"""Complex-argument special functions: log-Gamma, Gamma ratios, and the
Gauss hypergeometric function 2F1(a,b;c;z) for complex parameters and real
argument z in [0, 1).

Everything here is a pure function of its inputs and safe to call
concurrently.  The evaluation strategy:

* ``lngamma`` and ``gamma_ratio`` -- one numpy log-Gamma pass, a number
  being its one-element case: the reflection formula for Re(z) < 1/2, then
  a compensated Stirling series, summed at z + 10 inside |z| = 10.
* ``hyp2f1`` -- the defining Gauss series up to ``z = Z_SWITCH``; beyond
  that the connection formula toward z = 1 (``_hyp2f1_complement``), whose
  series argument ``1 - z`` is then small.  A number is the one-element
  column, (a, b, c) a one-element column of parameter sets.  Each series
  is summed in one numpy pass over its part of the column for all sets,
  up to 16 terms per numpy round with one stop test per round; every
  element stops at the first term that meets its own term-ratio rule, as
  a term-by-term loop would, so no value depends on the block or the
  other sets.  Each connection Gamma ratio is one call for all sets.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DegenerateParamsError, DomainError, NonConvergenceError, PoleError, ResultOverflowError, real_array

__all__ = ["POLE_TOL", "Z_SWITCH", "MAX_SERIES_TERMS", "lngamma", "gamma_ratio", "hyp2f1"]

# An argument within this distance of a non-positive integer is treated as
# sitting on a Gamma pole; the same tolerance flags integer degeneracies.
POLE_TOL = 1e-9

# Hand-off point between the Gauss series and the connection formula.  Both
# representations converge comfortably in a window around it, which the test
# suite uses as a consistency check.
Z_SWITCH = 0.5

MAX_SERIES_TERMS = 10_000
_SERIES_STOP = 1e-16
# ``_gauss_series`` sums up to _SERIES_BLOCK terms per numpy round, so its
# stop test and compaction run once per block, not once per term; a round
# holds at most _SERIES_ROUND element-terms (64 KiB per buffer) unless one
# term is longer, so long columns keep cache-sized buffers.
_SERIES_BLOCK = 16
_SERIES_ROUND = 4096

# exp(log_u), for a supplied log_u, may differ from 1 - z by this many
# units of the double epsilon, absolutely.
_COMPLEMENT_ULPS = 4.0
_EPS = float(np.finfo(float).eps)

_LOG_PI = 1.1447298858494001741434273

# B_{2n} / (2n (2n-1)) for the Stirling asymptotic series of log-Gamma.
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
    43867.0 / 244188.0,
)

# |w| below which the Stirling series is summed at w + 10, and the k of the
# pair products (w + k)(w + k + 1) that divide the shift back out:
# Gamma(w) = Gamma(w + 10) / (w (w + 1) ... (w + 9)), DLMF 5.5.1.
_STIRLING_RADIUS = 10.0
_PAIR_OFFSETS = np.arange(0.0, 10.0, 2.0)[:, None]
# |Im z| above which sin(pi z) overflows a double (cosh(pi y) passes 1.8e308
# at y ~ 226.2) and the reflection step takes log sin(pi z) from its
# exponential form instead.
_SIN_OVERFLOW_IM = 225.0


# -- error-free transformations for the compensated Stirling evaluation ----

def _two_sum(a, b):
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _split(a):
    t = 134217729.0 * a  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _two_prod(a, b):
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _lngamma_array(z):
    """log Gamma of every element of a 1-d complex array off the poles, as
    ``lngamma`` describes; Re z < 1/2 is reflected to w = 1 - z.  For
    Re w >= 1/2 each pair product (w + k)(w + k + 1) has its argument inside
    (-pi, pi), so its log adds no branch jump.  (v - 1/2) log v - v and the
    pair logs are summed with error-free products and sums (a complex sum
    rounds its real and imaginary parts apart), elementwise, the pair products
    in an array of their own (an in-place product rounds apart), so an element's
    value does not depend on the others or the column's length.  An argument
    whose evaluation overflows (from |z| ~ 1e154 up) raises ``DomainError``."""
    with np.errstate(all="ignore"):
        reflect = z.real < 0.5
        w = np.where(reflect, 1.0 - z, z)
        small = np.abs(w) < _STIRLING_RADIUS
        v = np.where(small, w + 10.0, w)

        # sum c_n v^(1 - 2n)
        inv_v2 = 1.0 / (v * v)
        series = 0.0
        for c in reversed(_STIRLING):
            series = (series + c) * inv_v2
        series = series * v + 0.5 * math.log(2.0 * math.pi)

        # (v - 1/2) log v - v, with (v - 1/2) log v = x log v + i y log v for
        # x + iy = v - 1/2: the real x and y times the (Re, Im) pair of log v
        xy = (v - 0.5).view(float).reshape(-1, 2, 1)
        products, errors = (a.view(complex).reshape(-1, 2) for a in _two_prod(xy, np.log(v).view(float).reshape(-1, 1, 2)))
        total, low = _two_sum(products[:, 0], 1j * products[:, 1])
        total, error = _two_sum(total, -v)
        low = low + errors[:, 0] + 1j * errors[:, 1] + error
        if small.any():
            pairs = w[small] + _PAIR_OFFSETS
            shifted, shifted_low = total[small], low[small]
            for log_pair in np.log(np.multiply(pairs, pairs + 1.0, out=np.empty_like(pairs))):
                shifted, error = _two_sum(shifted, -log_pair)
                shifted_low = shifted_low + error
            total[small], low[small] = shifted, shifted_low
        # |series| < 1: added to the low part it rounds at ~1e-16
        out = total + (low + series)

        if reflect.any():
            # log Gamma(z) = log pi - log sin(pi z) - log Gamma(1 - z)
            zr = z[reflect]
            log_sin = np.log(np.sin(np.pi * zr))
            far = np.abs(zr.imag) > _SIN_OVERFLOW_IM
            if far.any():
                # log(+-i/2 e^(-+i pi z)) + log1p(-e^(+-2 i pi z)), upper signs for
                # Im z > 0, where e^(+-2 i pi z) underflows: the log1p term is 0
                log_sin = np.where(far, (math.pi * np.abs(zr.imag) - math.log(2.0)) + 1j * (
                    np.copysign(1.0, zr.imag) * (0.5 * math.pi - math.pi * zr.real)), log_sin)
            out[reflect] = _LOG_PI - log_sin - out[reflect]
    finite = np.isfinite(out)
    if not finite.all():
        raise DomainError(f"log Gamma of {z[~finite][0]} is not finite in double precision")
    return out


def _gamma_arguments(args, n_num):
    """(column, stack): whether any argument is a 1-d array, and the
    arguments broadcast into a (len(args), n) complex array, n = 1 for
    numbers.  A bool or non-finite argument (or an int past the double range)
    raises ``DomainError``, one within ``POLE_TOL`` of a non-positive
    integer ``PoleError``, located in the numerator for the first ``n_num``
    arguments; the first argument with either, then its first element, is
    reported."""
    shaped = [np.asarray(v) for v in args if type(v) not in (int, float, complex)]  # numpy is slow on numbers
    if any(v.dtype.kind == "b" for v in shaped):
        raise DomainError("a Gamma argument must be a number, not a bool")
    column = any(v.ndim for v in shaped)
    shape = np.broadcast(*args).shape if column else (1,)
    if len(shape) != 1:
        raise DomainError("Gamma arguments must be numbers or 1-d arrays of one length")
    stack = np.empty((len(args),) + shape, dtype=complex)
    try:
        for row, v in zip(stack, args):
            row[...] = v
    except OverflowError:
        raise DomainError("a Gamma argument is an int past the double range") from None
    finite = np.isfinite(stack)
    with np.errstate(invalid="ignore"):
        bad = ~finite | (np.abs(stack - np.minimum(np.rint(stack.real), 0.0)) < POLE_TOL)
    if bad.any():
        k = np.flatnonzero(bad.any(axis=1))[0]
        if not finite[k].all():
            raise DomainError(f"Gamma argument {stack[k][~finite[k]][0]} is not finite")
        raise PoleError(complex(stack[k][bad[k]][0]), location="numerator" if k < n_num else "denominator")
    return column, stack


def lngamma(z):
    """Log-Gamma of a complex number, as a ``complex``, or of each element
    of a 1-d array, as an array equal to the number calls bit for bit.

    Satisfies ``exp(lngamma(z)) == Gamma(z)`` to better than 2e-14 relative
    accuracy for ``|z| < 10`` and 1e-13 for ``|z| <= 100``, off the poles.
    For ``Re z >= 1/2`` the 9-term Stirling series is summed at z from
    ``|z| = 10`` and at z + 10 inside, divided back by z (z + 1) ... (z + 9),
    with truncation error below 1.4e-16 (DLMF 5.11.ii).  The imaginary part
    is continuous on the right half-plane; across the reflection step for
    ``Re z < 1/2`` it is only defined modulo 2*pi*i, which every downstream
    use (ratios fed through ``exp``) is insensitive to.  The reflection step
    stays finite where sin(pi z) overflows a double (|Im z| > 225).

    Raises
    ------
    DomainError
        If an argument is a bool or not finite, an array is not 1-d, or the
        evaluation overflows a double (possible from |z| ~ 1e154 up).
    PoleError
        If an argument is within ``POLE_TOL`` of a non-positive integer.
    """
    column, stack = _gamma_arguments([z], 1)
    values = _lngamma_array(stack[0])
    return values if column else complex(values[0])


def gamma_ratio(numerators, denominators):
    """prod Gamma(numerators) / prod Gamma(denominators), evaluated in log
    space so products like Gamma(1-a1)Gamma(1-b1)Gamma(c1)/... neither
    overflow nor lose precision to cancellation.

    Each argument is a number, giving a ``complex``, or some are 1-d arrays
    of one length, giving an array of ratios (numbers broadcast).  Either
    way all arguments take one log-Gamma pass, so an array's elements
    equal the elementwise number calls bit for bit, and each factor has
    ``lngamma``'s accuracy.

    Numerator arguments at a pole raise ``PoleError(location="numerator")``
    (the ratio is infinite -- an amplitude pole); denominator poles violate
    the precondition and raise ``PoleError(location="denominator")``.
    Numerator poles are reported first when both occur, and otherwise the
    first pole in argument order, then element order.  A bool or non-finite
    argument, or one whose log-Gamma overflows, raises ``DomainError`` and
    a ratio that overflows ``ResultOverflowError`` (an ``OverflowError``).
    No arguments at all give the empty product, 1+0j.
    """
    n_num = len(numerators)
    column, stack = _gamma_arguments([*numerators, *denominators], n_num)
    logs = _lngamma_array(stack.ravel()).reshape(stack.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        acc = sum(logs[:n_num], np.zeros(stack.shape[1:], complex)) - sum(logs[n_num:], 0.0j)
        values = np.exp(acc)
    bad = ~(np.isfinite(acc) & np.isfinite(values))
    if bad.any():
        raise ResultOverflowError(f"Gamma ratio overflows at element {np.flatnonzero(bad)[0]}")
    return values if column else complex(values[0])


def _gauss_series(a, b, c, z, counts):
    """Raw Gauss series sum_k (a)_k (b)_k / ((c)_k k!) z^k (DLMF 15.2.1) of
    each parameter set of the 1-d complex arrays a, b, c at its ``counts``
    elements of the set-major 1-d float array z, in z's order, in one pass
    in rounds of up to ``_SERIES_BLOCK`` terms: each set's Python-complex
    ratios r_k multiply its slice of z into a block of r_k z, then
    t_k = t_(k-1) * (r_k z), S_k = S_(k-1) + t_k and one stop test per
    block.  An element stops at its first |t_k| <= 1e-16 |S_k|, as a
    term-by-term loop stops it, and leaves the live arrays, so no value
    depends on the other elements, sets or block size.  Assumes 0 <= z < 1
    and c off the pole set."""
    sets = list(zip(a.tolist(), b.tolist(), c.tolist()))
    out = np.empty(z.size, dtype=complex)
    live = np.arange(z.size)
    w = z.astype(complex)  # the live z; numpy would cast it for each complex product
    term = total = np.ones(z.size, dtype=complex)
    bounds = starts = [0, *itertools.accumulate(counts)]  # set i holds live[bounds[i]:bounds[i + 1]]
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing series runs out of terms
        while live.size and k < MAX_SERIES_TERMS:
            rows = min(_SERIES_BLOCK, max(1, _SERIES_ROUND // live.size), MAX_SERIES_TERMS - k)
            # row j holds r_(k+j) z, t_(k+j) and S_(k+j).  Each product goes to
            # an array of its own: numpy rounds an in-place complex multiply
            # differently, and from 256 KiB on makes ``x * temporary`` one.
            factors = np.empty((rows, live.size), dtype=complex)
            for (p, q, r), lo, hi in zip(sets, bounds, bounds[1:]):
                ratios = [(p + j) * (q + j) / ((r + j) * (j + 1.0)) for j in range(k, k + rows)]
                np.multiply(np.array(ratios)[:, None], w[lo:hi], out=factors[:, lo:hi])
            terms, totals = np.empty_like(factors), np.empty_like(factors)
            for j in range(rows):
                term = np.multiply(term, factors[j], out=terms[j])
                total = np.add(total, term, out=totals[j])
            k += rows
            hit = np.abs(terms) <= _SERIES_STOP * np.abs(totals)
            done = np.logical_or.reduce(hit)
            stops = done.nonzero()[0]  # indexes faster than the mask on 2-d arrays
            if stops.size:
                # an element's first hit is where a term-by-term loop stops it
                out[live[stops]] = totals[hit[:, stops].argmax(axis=0), stops]
                keep = ~done
                live, w, term, total = live[keep], w[keep], term[keep], total[keep]
                bounds = np.searchsorted(live, starts).tolist() if len(sets) > 1 else [0, live.size]
    if live.size:
        i = np.searchsorted(starts, live[0], "right") - 1
        raise NonConvergenceError(f"Gauss series for 2F1({a[i]}, {b[i]}; {c[i]}; {z[live[0]]}) did not converge in "
                                  f"{MAX_SERIES_TERMS} terms")
    return out


def _connection_ratio(numerators, denominators):
    """``gamma_ratio`` of the parameter-set columns, exactly 0 for a set with a
    denominator pole (its connection coefficient dies), found before any log-Gamma."""
    try:
        return gamma_ratio(numerators, denominators)
    except PoleError as err:
        if err.location != "denominator":
            raise
    dead = (np.abs(np.array(denominators) - np.minimum(np.rint(np.real(denominators)), 0.0)) < POLE_TOL).any(axis=0)
    ratio = gamma_ratio(*([np.where(dead, 1.0, v) for v in side] for side in (numerators, denominators)))
    return np.where(dead, 0.0, ratio)


def _hyp2f1_complement(a, b, c, u, log_u, counts):
    """Connection-formula values of 2F1(a,b;c;1-u) at each complement u=1-z,

        G(c)G(c-a-b)/(G(c-a)G(c-b)) * 2F1(a, b; a+b+1-c; u)
      + G(c)G(a+b-c)/(G(a)G(b)) * u^(c-a-b) * 2F1(c-a, c-b; c+1-a-b; u)

    with principal-branch powers (u > 0 on the physical domain), at ``u``
    and ``log_u`` = log u laid out as ``_gauss_series`` takes z; ``hyp2f1``
    takes this route above ``Z_SWITCH``, and it holds on the whole overlap
    window.  Each Gamma ratio is formed once for all sets, each series summed
    in one pass over the sets whose ratio is not 0.  Needs c-a-b off the integers.
    """
    s = c - a - b
    for v in s.tolist():
        if abs(v - round(v.real)) < POLE_TOL:
            raise DegenerateParamsError(f"c - a - b = {v} is within {POLE_TOL} of an integer; the formula degenerates")
    values = np.zeros(u.size, dtype=complex)
    for ratio, params, exponent in ((_connection_ratio([c, s], [c - a, c - b]), (a, b, 1.0 - s), None),
                                    (_connection_ratio([c, -s], [a, b]), (c - a, c - b, 1.0 + s), s)):
        live = ratio.nonzero()[0]
        if not live.size:
            continue
        # the live sets, their elements and counts: views where every set is live
        live, on, n = ((slice(None), slice(None), counts) if live.size == s.size
                       else (live, (ratio != 0).repeat(counts), np.asarray(counts)[live]))
        series = _gauss_series(*(v[live] for v in params), u[on], n)
        if exponent is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                power = np.exp(exponent[live].repeat(n) * log_u[on])
            if not np.isfinite(power).all():
                raise ResultOverflowError(f"(1 - z)^(c - a - b) overflows at log(1 - z) = {log_u[on][~np.isfinite(power)][0]}")
            # each product into an array of its own, as in ``_gauss_series``
            series = np.multiply(power, series, out=np.empty_like(power))
        values[on] += np.multiply(ratio[live].repeat(n), series, out=np.empty_like(series))
    return values


def hyp2f1(a, b, c, z, log_u=None):
    """2F1(a, b; c; z) for complex parameters and real z in [0, 1).

    ``z`` is a float or a 1-d array; an array gives an array of values, a
    float a ``complex``.  ``log_u``, of the same shape, is log(1 - z)
    (default: computed from z).  Callers that know it exactly, as
    log_u = -log(1 + e^x) for z = e^x/(e^x+1), pass it: the connection
    formula then sums its series in u = exp(log_u), which stays accurate
    where z has rounded to 1.0 (x above ~37).

    a, b and c are numbers, or three 1-d arrays of one length whose
    elements are parameter sets, each giving a row; then z and log_u may
    also be 2-d, a row of points per set.  The Gauss series serves
    ``z <= Z_SWITCH``, the connection formula toward z = 1 the rest, its
    Gamma ratios formed once per call.  Each series is summed once over
    the elements on its route for all sets, each element stopping at its
    own first |t_k| <= 1e-16 |S_k|, so array elements and rows equal their
    number calls bit for bit.  Relative accuracy is ~1e-11 or better away
    from the c-a-b integer degeneracy.  Every element and set is checked
    before any is evaluated.

    Raises
    ------
    PoleError
        If c is within ``POLE_TOL`` of a non-positive integer.
    DomainError
        If a, b, c are not finite numbers or 1-d arrays of one length, z has
        no row per set, or unless z >= 0 and log_u is finite and <= 0, with
        exp(log_u) within a few eps (absolutely) of 1 - z.
    NonConvergenceError
        If a series fails to meet the term-ratio stop within
        ``MAX_SERIES_TERMS`` terms at some element (the first is named).
    ResultOverflowError (an OverflowError)
        If (1 - z)^(c-a-b) overflows on the connection route.
    DegenerateParamsError
        If some ``z > Z_SWITCH`` and some c-a-b is near an integer.
    """
    try:
        params = np.array([a, b, c], dtype=complex)
        if params.ndim > 2:
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"2F1 parameters must be numbers, or three 1-d arrays of one length, got a = {a!r}, "
                          f"b = {b!r}, c = {c!r}") from None
    if not np.isfinite(params).all():
        raise DomainError(f"2F1 parameters must be finite, got a = {a}, b = {b}, c = {c}")
    sets, (a, b, c) = params.ndim == 2, params.reshape(3, -1)
    _gamma_arguments(c.tolist(), 0)  # c sits in the series' denominators
    scalar, given = np.ndim(z) == 0, log_u is not None
    z = real_array(z, "z")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        log_u = real_array(log_u, "log_u") if given else np.log1p(-z)
        u = np.exp(log_u) if given else 1.0 - z
    if z.ndim > 1 + sets or log_u.shape != z.shape or (z.ndim == 2 and len(z) != a.size):
        raise DomainError("z and log_u must be floats or 1-d arrays of one length, or 2-d with a row per parameter set")
    # absolute: z rounds to 1.0 past x ~ 37 while exp(log_u) stays exact
    ok = (z >= 0.0) & np.isfinite(log_u) & (log_u <= 0.0) & (np.abs(u - (1.0 - z)) <= _COMPLEMENT_ULPS * _EPS)
    if not ok.all():
        i = tuple(np.argwhere(~ok)[0])
        raise DomainError(f"z = {z[i]}, log_u = {log_u[i] if given else None}: need 0 <= z < 1 and a "
                          "supplied log_u finite, <= 0 and with exp(log_u) within a few eps of 1 - z")
    if z.ndim < 2:
        z, u, log_u = z.reshape(-1), u.reshape(-1), log_u.reshape(-1)
    far = z > Z_SWITCH
    values = np.empty((a.size, z.shape[-1]), dtype=complex)
    # the kernels take every set's points as one set-major column: z rows as they are, a shared z tiled
    for route, kernel, args in ((~far, _gauss_series, (z,)), (far, _hyp2f1_complement, (u, log_u))):
        if a.size and route.any():
            if z.ndim == 2:
                values[route] = kernel(a, b, c, *(v[route] for v in args), np.count_nonzero(route, axis=1))
            else:
                flat = kernel(a, b, c, *(np.concatenate([v[route]] * a.size) for v in args), [np.count_nonzero(route)] * a.size)
                values[:, route] = flat.reshape(a.size, -1)
    values = values[:, 0] if scalar else values
    return values if sets else complex(values[0]) if scalar else values[0]
