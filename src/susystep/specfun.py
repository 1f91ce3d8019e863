"""Complex-argument special functions: log-Gamma, Gamma ratios, and the
Gauss hypergeometric function 2F1(a,b;c;z) for complex parameters and real
argument z in [0, 1).

Everything here is a pure function of its inputs and safe to call
concurrently.  The evaluation strategy:

* ``lngamma`` and ``gamma_ratio`` -- one numpy log-Gamma pass, a number
  being its one-element case: the reflection formula for Re(z) < 1/2, then
  a compensated Stirling series, summed at z + 10 inside |z| = 10.
* ``hyp2f1`` -- the defining Gauss series up to ``z = Z_SWITCH``; beyond
  that the connection formula toward z = 1 (``connect_near_one``), whose
  series argument ``1 - z`` is then small.  A number is the one-element
  column.  Each series is summed in one numpy pass over its part of the
  column, every element stopped by its own term-ratio rule, and the
  connection formula's Gamma ratios, which depend on (a, b, c) only, are
  formed once per call.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DegenerateParamsError, DomainError, NonConvergenceError, PoleError

__all__ = [
    "POLE_TOL",
    "Z_SWITCH",
    "MAX_SERIES_TERMS",
    "lngamma",
    "gamma_ratio",
    "hyp2f1",
    "connect_near_one",
]

# An argument within this distance of a non-positive integer is treated as
# sitting on a Gamma pole; the same tolerance flags integer degeneracies.
POLE_TOL = 1e-9

# Hand-off point between the Gauss series and the connection formula.  Both
# representations converge comfortably in a window around it, which the test
# suite uses as a consistency check.
Z_SWITCH = 0.5

MAX_SERIES_TERMS = 10_000
_SERIES_STOP = 1e-16

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
    rounds its real and imaginary parts apart), elementwise, so an element's
    value does not depend on the others.  An argument whose evaluation
    overflows (possible from |z| ~ 1e154 up) raises ``DomainError``."""
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
            for log_pair in np.log(pairs * (pairs + 1.0)):
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
    numbers.  A non-finite argument raises ``DomainError``, one within
    ``POLE_TOL`` of a non-positive integer ``PoleError``, located in the
    numerator for the first ``n_num`` arguments; the first argument with
    either, then its first element, is reported."""
    column = any(np.ndim(v) for v in args if not isinstance(v, (int, float, complex)))  # np.ndim is slow on numbers
    if column:
        args = np.broadcast_arrays(*args)
        if args[0].ndim != 1:
            raise DomainError("Gamma arguments must be numbers or 1-d arrays of one length")
    stack = np.array(args, dtype=complex).reshape(len(args), np.size(args[0]))
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
        If an argument is not finite, an array is not 1-d, or the
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
    first pole in argument order, then element order.  A non-finite
    argument, or one whose log-Gamma overflows, raises ``DomainError`` and
    a ratio that overflows ``OverflowError``.
    """
    n_num = len(numerators)
    column, stack = _gamma_arguments([*numerators, *denominators], n_num)
    logs = _lngamma_array(stack.ravel()).reshape(stack.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        acc = sum(logs[:n_num], 0.0j) - sum(logs[n_num:], 0.0j)
        values = np.exp(acc)
    bad = ~(np.isfinite(acc) & np.isfinite(values))
    if bad.any():
        raise OverflowError(f"Gamma ratio overflows at element {np.flatnonzero(bad)[0]}")
    return values if column else complex(values[0])


def _gauss_series(a, b, c, z):
    """Raw Gauss series sum_k (a)_k (b)_k / ((c)_k k!) z^k at every element
    of a 1-d float array, as a complex array.  One pass over the column: an
    element stops at the first k with |t_k| <= 1e-16 |S_k|, is written out
    and dropped from the live arrays, so its value does not depend on the
    other elements.  Assumes 0 <= z < 1 and c off the pole set."""
    out = np.empty(z.shape, dtype=complex)
    live = np.arange(z.size)
    w = z.astype(complex)  # the live z; numpy would cast it for each complex product
    term = total = np.ones(z.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing series runs out of terms
        for k in range(MAX_SERIES_TERMS):
            if not live.size:
                break
            # out of place: numpy's in-place complex multiply rounds differently on long arrays
            term = term * ((a + k) * (b + k) / ((c + k) * (k + 1.0)) * w)
            total = total + term
            done = np.abs(term) <= _SERIES_STOP * np.abs(total)
            if np.count_nonzero(done):
                out[live[done]] = total[done]
                keep = ~done
                live, w, term, total = live[keep], w[keep], term[keep], total[keep]
    if live.size:
        raise NonConvergenceError(
            f"Gauss series for 2F1({a}, {b}; {c}; {z[live[0]]}) did not converge in {MAX_SERIES_TERMS} terms"
        )
    return out


def _ratio_or_zero(numerators, denominators) -> complex:
    """Gamma ratio where a denominator pole means the ratio is exactly zero
    (1/Gamma vanishing), as happens when a connection coefficient dies."""
    try:
        return gamma_ratio(numerators, denominators)
    except PoleError as err:
        if err.location == "denominator":
            return 0.0j
        raise


def _hyp2f1_complement(a, b, c, u, log_u):
    """Connection-formula values of 2F1(a,b;c;1-u) at each complement u=1-z.

    ``u`` and ``log_u`` are equal-length 1-d float arrays, log_u = log u.
    The two Gamma ratios depend on (a, b, c) only and are formed once; each
    of the two series is summed in one pass over the column.  Requires
    c-a-b away from the integers.
    """
    s = c - a - b
    if abs(s - round(s.real)) < POLE_TOL:
        raise DegenerateParamsError(
            f"c - a - b = {s} is within {POLE_TOL} of an integer; "
            "the connection formula degenerates"
        )
    first_ratio = _ratio_or_zero([c, s], [c - a, c - b])
    second_ratio = _ratio_or_zero([c, -s], [a, b])
    values = np.zeros(u.shape, dtype=complex)
    if first_ratio != 0.0:
        values = first_ratio * _gauss_series(a, b, 1.0 - s, u)
    if second_ratio != 0.0:
        with np.errstate(over="ignore", invalid="ignore"):
            power = np.exp(s * log_u)
        if not np.isfinite(power).all():
            raise OverflowError(f"(1 - z)^(c - a - b) overflows at log(1 - z) = {log_u[~np.isfinite(power)][0]}")
        values = values + second_ratio * (power * _gauss_series(c - a, c - b, 1.0 + s, u))
    return values


def _real_array(name, value):
    """``value`` as a float array; ``DomainError`` unless it is real."""
    array = np.asarray(value)
    if array.dtype.kind not in "biuf":
        raise DomainError(f"{name} must be real, got {value!r}")
    return np.asarray(array, dtype=float)


def _checked_args(a, b, c, z, log_u):
    """(z, u, log_u) as 1-d float arrays, u = 1 - z and log_u = log u unless
    log_u is supplied, then u = exp(log_u), once a, b, c and every element
    have passed ``hyp2f1``'s checks."""
    if not all(map(cmath.isfinite, (a, b, c))):
        raise DomainError(f"2F1 parameters must be finite, got a = {a}, b = {b}, c = {c}")
    _gamma_arguments([c], 0)  # c sits in the series' denominators
    z = _real_array("z", z)
    log_u = None if log_u is None else _real_array("log_u", log_u)
    if z.ndim > 1 or (log_u is not None and log_u.shape != z.shape):
        raise DomainError("z and log_u must be floats or 1-d arrays of one length")
    if log_u is None:
        ok = (z >= 0.0) & (z < 1.0)
    else:
        with np.errstate(over="ignore"):
            u = np.exp(log_u)
        # absolute: z rounds to 1.0 past x ~ 37 while exp(log_u) stays exact
        ok = (z >= 0.0) & np.isfinite(log_u) & (log_u <= 0.0) & (np.abs(u - (1.0 - z)) <= _COMPLEMENT_ULPS * _EPS)
    if not ok.all():
        i = np.flatnonzero(~ok)[0] if ok.ndim else ()
        raise DomainError(f"z = {z[i]}, log_u = {None if log_u is None else log_u[i]}: need 0 <= z < 1 and a "
                          "supplied log_u finite, <= 0 and with exp(log_u) within a few eps of 1 - z")
    if log_u is None:
        u, log_u = 1.0 - z, np.log1p(-z)
    return z.reshape(-1), u.reshape(-1), log_u.reshape(-1)


def hyp2f1(a, b, c, z, log_u=None):
    """2F1(a, b; c; z) for complex parameters and real z in [0, 1).

    ``z`` is a float or a 1-d array; an array gives an array of values, a
    float a ``complex``.  ``log_u``, of the same shape, is log(1 - z)
    (default: computed from z).  Callers that know it exactly, as
    log_u = -log(1 + e^x) for z = e^x/(e^x+1), pass it: the connection
    formula then sums its series in u = exp(log_u), which stays accurate
    where z has rounded to 1.0 (x above ~37).

    Uses the Gauss series for ``z <= Z_SWITCH`` and the connection formula
    toward z = 1 otherwise; its Gamma ratios are formed once per call.
    Each series is summed once over the elements on its route, each
    element stopping at its own first |t_k| <= 1e-16 |S_k|, so an array's
    elements equal the number calls bit for bit.  Relative accuracy is
    ~1e-11 or better away from the c-a-b integer degeneracy.  Every
    element is checked before any is evaluated.

    Raises
    ------
    PoleError
        If c is within ``POLE_TOL`` of a non-positive integer.
    DomainError
        If a, b or c is not finite, or unless z >= 0 and log_u is finite
        and <= 0, with exp(log_u) within a few eps (absolutely) of 1 - z.
    NonConvergenceError
        If a series fails to meet the term-ratio stop within
        ``MAX_SERIES_TERMS`` terms at some element (the first is named).
    OverflowError
        If (1 - z)^(c-a-b) overflows on the connection route.
    DegenerateParamsError
        If some ``z > Z_SWITCH`` and c-a-b is within tolerance of an integer.
    """
    a, b, c = complex(a), complex(b), complex(c)
    scalar = np.ndim(z) == 0
    z, u, log_u = _checked_args(a, b, c, z, log_u)
    far = z > Z_SWITCH
    values = np.empty(z.shape, dtype=complex)
    if not far.all():
        values[~far] = _gauss_series(a, b, c, z[~far])
    if far.any():
        values[far] = _hyp2f1_complement(a, b, c, u[far], log_u[far])
    return complex(values[0]) if scalar else values


def connect_near_one(a, b, c, z) -> complex:
    """Evaluate 2F1(a, b; c; z) through the connection formula at 1 - z:

        G(c)G(c-a-b)/(G(c-a)G(c-b)) * 2F1(a, b; a+b+1-c; 1-z)
      + G(c)G(a+b-c)/(G(a)G(b)) * (1-z)^(c-a-b) * 2F1(c-a, c-b; c+1-a-b; 1-z)

    with principal-branch powers (1 - z > 0 on the physical domain).
    ``hyp2f1`` takes this route above ``Z_SWITCH``; forcing it is valid on
    the whole overlap window, which the tests exercise.  Raises as
    ``hyp2f1`` does.
    """
    _, u, log_u = _checked_args(a, b, c, float(_real_array("z", z)), None)
    return complex(_hyp2f1_complement(a, b, c, u, log_u)[0])
