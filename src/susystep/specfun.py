"""Complex-argument special functions: log-Gamma, Gamma ratios, and the
Gauss hypergeometric function 2F1(a,b;c;z) for complex parameters and real
argument z in [0, 1).

Everything here is a pure function of its inputs and safe to call
concurrently.  The evaluation strategy:

* ``lngamma`` and ``gamma_ratio`` -- one numpy log-Gamma pass, a number
  being its one-element case: the reflection formula for Re(z) < 1/2, then
  a compensated Stirling series, summed at z + 10 inside |z| = 10.
* ``hyp2f1`` -- the Gauss series up to ``z = Z_SWITCH``, beyond it the
  connection formula toward z = 1 (``_hyp2f1_complement``, its series in
  1 - z); a number is the one-element column of one parameter set.  A call
  sums all its series in one ``_gauss_series`` pass, each element to its own
  stop, and makes one call per connection Gamma ratio.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateParamsError, DomainError, NonConvergenceError, PoleError, ResultOverflowError, real_array

__all__ = ["POLE_TOL", "Z_SWITCH", "MAX_SERIES_TERMS", "near_pole", "lngamma", "gamma_ratio", "hyp2f1"]

# An argument within this distance of a non-positive integer is treated as
# sitting on a Gamma pole; the same tolerance flags integer degeneracies.
POLE_TOL = 1e-9

# Hand-off point between the Gauss series and the connection formula.  Both
# representations converge comfortably in a window around it, which the test
# suite uses as a consistency check.
Z_SWITCH = 0.5

MAX_SERIES_TERMS = 10_000
_SERIES_STOP = 1e-16
# ``_gauss_series`` sums up to _SERIES_BLOCK terms per numpy round, with one stop
# test and compaction per block: 32, as a pass ends in rounds over a few elements,
# which cost more than their terms.  A round holds at most _SERIES_ROUND element-
# terms (64 KiB per buffer) unless one term is longer: cache-sized buffers.
_SERIES_BLOCK = 32
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


def near_pole(z):
    """Whether each element of a complex array is within ``POLE_TOL`` of a non-positive integer (a Gamma pole)."""
    return np.abs(z - np.minimum(np.rint(z.real), 0.0)) < POLE_TOL


def _gamma_arguments(args, n_num):
    """(column, stack): whether any argument is a 1-d array, and the
    arguments broadcast into a (len(args), n) complex array, n = 1 for
    numbers.  A bool, non-numeric or non-finite argument (or an int past the
    double range) raises ``DomainError``, one within ``POLE_TOL`` of a non-positive
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
    except (OverflowError, TypeError, ValueError):  # an int past the double range, a string, a non-number
        raise DomainError(f"a Gamma argument must be a number that a double holds, got {type(v).__name__} {str(v)[:40]}") from None
    finite = np.isfinite(stack)
    with np.errstate(invalid="ignore"):
        bad = ~finite | near_pole(stack)
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


def _ratio_table(a, b, c, rows):
    """(rows, sets) table of r_k = (a + k) (b + k) / ((c + k) (k + 1.0)), k < rows, of the sets
    of the 1-d complex arrays a, b, c in CPython 3.11's complex bits, from real numpy operations
    (numpy's complex products and quotients round apart): an int k adds as (k, 0.0), a product
    is (pr - qs, ps + qr), a quotient Smith's (CACM Algorithm 116), by the larger part of D."""
    k = np.arange(rows, dtype=float)[:, None]
    A, B, C = a + k, b + k, c + k  # numpy's complex sum is Python's
    nr, ni = A.real * B.real - A.imag * B.imag, A.real * B.imag + A.imag * B.real
    dr, di = C.real * (k + 1.0), C.imag * (k + 1.0)  # the product's bits, as no part of C is -0.0
    flip = np.abs(dr) < np.abs(di)  # Smith's form by Im D is its form by Re D on N (-i) / D (-i)
    nr, ni, dr, di = np.where(flip, ni, nr), np.where(flip, -nr, ni), np.where(flip, di, dr), np.where(flip, -dr, di)
    ratio = di / dr
    denom = dr + di * ratio
    out = np.empty((rows, a.size), dtype=complex)
    np.divide(nr + ni * ratio, denom, out=out.real)
    np.divide(ni - nr * ratio, denom, out=out.imag)
    return out


def _gauss_series(a, b, c, z, counts):
    """Raw Gauss series sum_k (a)_k (b)_k / ((c)_k k!) z^k (DLMF 15.2.1) of each parameter set
    of the 1-d complex arrays a, b, c at its ``counts`` elements of the set-major 1-d float array
    z, in z's order, in one pass of rounds of up to ``_SERIES_BLOCK`` terms: a live element takes
    its set's (``owner``'s) rows of one ``_ratio_table``, grown by doubling, to r_k z, then t_k =
    t_(k-1) r_k z and S_k = S_(k-1) + t_k, and stops at its first |t_k| <= 1e-16 |S_k| as a term-
    by-term loop does: no value depends on the other elements, sets or block size, nor a round's
    cost on the number of sets.  Assumes 0 <= z < 1 and c off the pole set."""
    out = np.empty(z.size, dtype=complex)
    live, owner = np.arange(z.size), np.arange(a.size).repeat(counts)
    w = z.astype(complex)  # the live z; numpy would cast it for each complex product
    term = total = np.ones(z.size, dtype=complex)
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing series runs out of terms, or to inf
        table = _ratio_table(a, b, c, 4 * _SERIES_BLOCK)  # a one-point pass mostly ends within it: one fill
        while live.size and k < MAX_SERIES_TERMS:
            rows = min(_SERIES_BLOCK, max(1, _SERIES_ROUND // live.size), MAX_SERIES_TERMS - k)
            if k + rows > len(table):
                table = _ratio_table(a, b, c, max(2 * len(table), k + rows))
            # row j holds r_(k+j) z, t_(k+j) and S_(k+j).  The rows are C-ordered (``take``'s new
            # array is, a fancy-index gather is not), as numpy may round strided complex products
            # apart, and each term is written by ``out=`` to a row of its own, never to a temporary.
            factors = table[k:k + rows].take(owner, axis=1, mode="clip")
            np.multiply(factors, w, out=factors)
            terms, totals = np.empty_like(factors), np.empty_like(factors)
            for j in range(rows):
                term = np.multiply(term, factors[j], out=terms[j])
            size = np.abs(terms)
            if rows < _SERIES_BLOCK:  # numpy accumulates column by column: dearer on wide blocks
                for j in range(rows):
                    total = np.add(total, terms[j], out=totals[j])
            else:  # S_(k-1) + t_k in place of t_k (term is the last row), then the running sums
                np.add(terms[0], total, out=terms[0])
                total = np.add.accumulate(terms, axis=0, out=totals)[-1]
            k += rows
            hit = size <= _SERIES_STOP * np.abs(totals)
            done = np.logical_or.reduce(hit)
            stops = done.nonzero()[0]  # indexes faster than the mask on 2-d arrays
            if stops.size:
                # an element's first hit is where a term-by-term loop stops it
                out[live[stops]] = totals[hit[:, stops].argmax(axis=0), stops]
                keep = ~done
                live, owner, w, term, total = live[keep], owner[keep], w[keep], term[keep], total[keep]
    if live.size:
        i = owner[0]
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
    dead = near_pole(np.array(denominators)).any(axis=0)
    ratio = gamma_ratio(*([np.where(dead, 1.0, v) for v in side] for side in (numerators, denominators)))
    return np.where(dead, 0.0, ratio)


def _hyp2f1_complement(a, b, c, u, log_u, counts, z_near, near_counts):
    """Connection-formula values of 2F1(a,b;c;1-u) at each complement u=1-z,

        G(c)G(c-a-b)/(G(c-a)G(c-b)) * 2F1(a, b; a+b+1-c; u)
      + G(c)G(a+b-c)/(G(a)G(b)) * u^(c-a-b) * 2F1(c-a, c-b; c+1-a-b; u)

    with principal-branch powers (u > 0 on the physical domain), at ``u`` and
    ``log_u`` = log u laid out as ``_gauss_series`` takes z (``hyp2f1``'s route
    above ``Z_SWITCH``).  After the Gamma ratios, one call each, one pass sums
    the series of (a, b, c) at each set's ``near_counts`` points of ``z_near``,
    then both series above, none for a set whose ratio is 0.  Returns (values at
    z_near, values at u).  Needs c-a-b off the integers."""
    s = c - a - b
    near = np.abs(s - np.rint(s.real)) < POLE_TOL
    if near.any():
        raise DegenerateParamsError(f"c - a - b = {s[near][0]} is within {POLE_TOL} of an integer; the formula degenerates")
    ratios = _connection_ratio([c, s], [c - a, c - b]), _connection_ratio([c, -s], [a, b])
    # a set whose ratio is 0 sums no series: it counts no element and its elements leave the column
    n = [counts * (ratio != 0) for ratio in ratios]
    on = [(ratio != 0).repeat(counts) for ratio in ratios]
    params = (np.concatenate(v if z_near.size else v[1:]) for v in ([a, a, c - a], [b, b, c - b], [c, 1.0 - s, 1.0 + s]))
    flat = _gauss_series(*params, np.concatenate([z_near, u[on[0]], u[on[1]]]),
                         np.concatenate([near_counts, *n] if z_near.size else n))
    hi = z_near.size + np.count_nonzero(on[0])  # the first series' end in the pass
    with np.errstate(over="ignore", invalid="ignore"):
        power = np.exp(s.repeat(n[1]) * log_u[on[1]])
    if not np.isfinite(power).all():
        raise ResultOverflowError(f"(1 - z)^(c - a - b) overflows at log(1 - z) = {log_u[on[1]][~np.isfinite(power)][0]}")
    # each product into an array of its own, as in ``_gauss_series``
    second = np.multiply(power, flat[hi:], out=np.empty_like(power))
    values = np.zeros(u.size, dtype=complex)
    values[on[0]] += np.multiply(ratios[0].repeat(n[0]), flat[z_near.size:hi], out=np.empty(hi - z_near.size, dtype=complex))
    values[on[1]] += np.multiply(ratios[1].repeat(n[1]), second, out=np.empty_like(second))
    return flat[:z_near.size], values


def hyp2f1(a, b, c, z, log_u=None):
    """2F1(a, b; c; z) for complex parameters and real z in [0, 1).

    ``z`` is a float or a 1-d array; an array gives an array of values, a
    float a ``complex``.  ``log_u``, of the same shape, is log(1 - z)
    (default: computed from z).  Callers that know it exactly, as
    log_u = -log(1 + e^x) for z = e^x/(e^x+1), pass it: the connection
    formula then sums its series in u = exp(log_u), which stays accurate
    where z has rounded to 1.0 (x above ~37).

    a, b and c are numbers, or three 1-d arrays of one length whose
    elements are parameter sets, each giving a row at the shared z.  The
    Gauss series serves ``z <= Z_SWITCH``, the connection formula toward
    z = 1 the rest, all in one pass where each element stops at its own
    first |t_k| <= 1e-16 |S_k|, so array elements and rows equal their
    number calls bit for bit.  Relative accuracy is ~1e-11 or better away
    from the c-a-b integer degeneracy.  Every element and set is checked
    before any is evaluated.

    Raises
    ------
    PoleError
        If c is within ``POLE_TOL`` of a non-positive integer.
    DomainError
        If a, b, c are not finite numbers or 1-d arrays of one length, z or
        log_u is not a float or a 1-d array (of z's shape), or unless z >= 0
        and log_u is finite and <= 0, with exp(log_u) within a few eps
        (absolutely) of 1 - z.
    NonConvergenceError
        If a series fails to meet the term-ratio stop within ``MAX_SERIES_TERMS``
        terms at some element (the first is named, near points first).
    ResultOverflowError (an OverflowError)
        If a value (the first is named) or (1 - z)^(c-a-b) on the connection route overflows.
    DegenerateParamsError
        If some ``z > Z_SWITCH`` and some c-a-b is near an integer (before any series).
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
    _gamma_arguments([c], 0)  # c sits in the series' denominators
    scalar, given = np.ndim(z) == 0, log_u is not None
    z = real_array(z, "z")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        log_u = real_array(log_u, "log_u") if given else np.log1p(-z)
        u = np.exp(log_u) if given else 1.0 - z
    if z.ndim > 1 or log_u.shape != z.shape:
        raise DomainError("z and log_u must be floats or 1-d arrays of one length")
    # absolute: z rounds to 1.0 past x ~ 37 while exp(log_u) stays exact
    ok = (z >= 0.0) & np.isfinite(log_u) & (log_u <= 0.0) & (np.abs(u - (1.0 - z)) <= _COMPLEMENT_ULPS * _EPS)
    if not ok.all():
        i = tuple(np.argwhere(~ok)[0])
        raise DomainError(f"z = {z[i]}, log_u = {log_u[i] if given else None}: need 0 <= z < 1 and a "
                          "supplied log_u finite, <= 0 and with exp(log_u) within a few eps of 1 - z")
    # the kernels take the shared z as every set's row of one set-major column, in boolean indexing's order
    z, u, log_u = (v.reshape(1, -1).repeat(a.size, axis=0) for v in (z, u, log_u))
    far = z > Z_SWITCH
    if far.any():
        near, n_far = ~far, far.sum(axis=1)
        values = np.empty(z.shape, dtype=complex)
        values[near], values[far] = _hyp2f1_complement(a, b, c, u[far], log_u[far], n_far, z[near], z.shape[1] - n_far)
    else:
        values = _gauss_series(a, b, c, z.ravel(), [z.shape[1]] * a.size).reshape(z.shape)
    if not (finite := np.isfinite(values)).all():
        i, j = np.argwhere(~finite)[0]  # the first in (set, z) order
        raise ResultOverflowError(f"2F1({a[i]}, {b[i]}; {c[i]}; {z[i, j]}) overflows a double")
    values = values[:, 0] if scalar else values
    return values if sets else complex(values[0]) if scalar else values[0]
