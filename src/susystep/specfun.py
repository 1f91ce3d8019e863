"""Complex-argument special functions: log-Gamma, Gamma ratios, and the
Gauss hypergeometric function 2F1(a,b;c;z) for complex parameters and real
argument z in [0, 1).

Everything here is a pure function of its inputs and safe to call
concurrently.  The evaluation strategy:

* ``lngamma`` -- Lanczos rational approximation for small ``|z|`` in the
  right half-plane, a compensated Stirling series for ``|z| >= 10``, and
  the reflection formula for ``Re(z) < 1/2``.  The Stirling series runs
  unshifted: by DLMF 5.11.ii its remainder after the 9 terms is at most
  |B_20| / (20 * 19 |z|^19) sec^20(ph(z)/2), below 1.4e-16 for |z| >= 10
  and Re(z) >= 1/2.
* ``hyp2f1`` -- the defining Gauss series up to ``z = Z_SWITCH``; beyond
  that the connection formula toward z = 1 (``connect_near_one``), whose
  series argument ``1 - z`` is then small.  Given a 1-d array of z it
  forms the connection formula's Gamma ratios, which depend on (a, b, c)
  only, once for the whole array.
"""

from __future__ import annotations

import cmath
import math
import operator

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
_HALF_LOG_TWO_PI_HI = 0.9189385332046727
_HALF_LOG_TWO_PI_LO = 5.2907123667054244e-17

# Lanczos coefficients, g = 7, n = 9.
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

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

# |z| above which the Stirling branch takes over from Lanczos.
_STIRLING_RADIUS = 10.0
# |Im z| above which sin(pi z) overflows a double (cosh(pi y) passes 1.8e308
# at y ~ 226.2) and the reflection step takes log sin(pi z) from its
# exponential form instead.
_SIN_OVERFLOW_IM = 225.0
_LOG_2 = math.log(2.0)


def _pole_distance(z: complex) -> float:
    """Distance from z to the nearest non-positive integer; ``DomainError``
    unless z is finite."""
    if not cmath.isfinite(z):
        raise DomainError(f"Gamma argument {z} is not finite")
    n = round(z.real)
    if n > 0:
        n = 0
    return abs(z - n)


def _near_integer(z: complex, tol: float = POLE_TOL) -> bool:
    return abs(z - round(z.real)) < tol


# -- error-free transformations for the compensated Stirling evaluation ----

def _two_sum(a: float, b: float):
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _split(a: float):
    t = 134217729.0 * a  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _two_prod(a: float, b: float):
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(xh: float, xl: float, yh: float, yl: float):
    sh, sl = _two_sum(xh, yh)
    sl += xl + yl
    return _two_sum(sh, sl)


def _stirling(z, log):
    """(Re, Im) of the Stirling series at z, |z| >= ``_STIRLING_RADIUS`` and
    Re(z) >= 1/2, where the 9-term series needs no recurrence shift.

    The dominant (z - 1/2) log z - z term is accumulated in double-double
    arithmetic so exp(lngamma) keeps ~1e-14 relative accuracy out to
    |z| = 100.  ``log`` is ``cmath.log`` for a complex z or ``np.log`` for
    an array; the arithmetic is the same for both."""
    w2 = 1.0 / (z * z)
    series = 0.0j
    for c in reversed(_STIRLING):
        series = (series + c) * w2
    series *= z  # series = sum c_n z^{-(2n-1)}

    lg = log(z)
    zr, zi = z.real - 0.5, z.imag
    # (z - 1/2) * log z, real and imaginary parts in double-double
    p1h, p1l = _two_prod(zr, lg.real)
    p2h, p2l = _two_prod(-zi, lg.imag)
    reh, rel = _dd_add(p1h, p1l, p2h, p2l)
    q1h, q1l = _two_prod(zr, lg.imag)
    q2h, q2l = _two_prod(zi, lg.real)
    imh, iml = _dd_add(q1h, q1l, q2h, q2l)

    reh, rel = _dd_add(reh, rel, -z.real, 0.0)
    imh, iml = _dd_add(imh, iml, -z.imag, 0.0)
    reh, rel = _dd_add(reh, rel, _HALF_LOG_TWO_PI_HI, _HALF_LOG_TWO_PI_LO)
    reh, rel = _dd_add(reh, rel, series.real, 0.0)
    imh, iml = _dd_add(imh, iml, series.imag, 0.0)
    return reh + rel, imh + iml


def _real_over_complex(x, z):
    """x / z for a float x and a complex array z, rounded as Python's own
    complex division rounds it (numpy multiplies by 1/denominator)."""
    rows = np.abs(z.real) >= np.abs(z.imag)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(rows, z.imag / z.real, z.real / z.imag)
        denom = np.where(rows, z.real + z.imag * ratio, z.real * ratio + z.imag)
        out = np.empty_like(z)
        out.real = np.where(rows, (x + 0.0 * ratio) / denom, (x * ratio + 0.0) / denom)
        out.imag = np.where(rows, (0.0 - x * ratio) / denom, (0.0 * ratio - x) / denom)
    return out


def _lanczos(z, log, quot):
    """Lanczos log-Gamma for Re(z) >= 1/2, |z| < ``_STIRLING_RADIUS``; z and
    ``log`` as for ``_stirling``, and ``quot`` the float-by-z
    division (``operator.truediv`` or ``_real_over_complex``)."""
    zm1 = z - 1.0
    acc = complex(_LANCZOS[0])
    for i in range(1, len(_LANCZOS)):
        acc += quot(_LANCZOS[i], zm1 + i)
    t = zm1 + 7.5
    # t = z + 6.5, so (z - 1/2)(log t - 1) - 7 avoids the large cancellation
    # of (z - 1/2) log t - t.
    return _HALF_LOG_TWO_PI_HI + (zm1 + 0.5) * (log(t) - 1.0) - 7.0 + log(acc)


def _log_sin_pi_far(x, y, xp):
    """(Re, Im) of log sin(pi z), z = x + iy, modulo 2 pi i, for |y| past
    ``_SIN_OVERFLOW_IM``: the exponential form
    log(+-i/2 e^(-+i pi z)) + log1p(-e^(+-2 i pi z)), upper signs for y > 0.
    There |e^(+-2 i pi z)| = e^(-2 pi |y|) underflows to 0, so the log1p
    term is exactly 0 in double precision and is left out.  ``xp`` is
    ``math`` for numbers, ``numpy`` for arrays."""
    sign = xp.copysign(1.0, y)
    return math.pi * abs(y) - _LOG_2, sign * (0.5 * math.pi - math.pi * x)


def lngamma(z: complex) -> complex:
    """Log-Gamma of a complex argument.

    Satisfies ``exp(lngamma(z)) == Gamma(z)`` to better than 1e-13 relative
    accuracy for ``|z| <= 100`` away from the poles.  The imaginary part is
    continuous on the right half-plane; across the reflection step it is
    only defined modulo 2*pi*i, which every downstream use (ratios fed
    through ``exp``) is insensitive to.  The reflection step stays finite
    where sin(pi z) overflows a double (|Im z| > 225).  From |z| = 10 the
    Stirling series is summed at z itself, with no recurrence shift: its
    truncation error there is below 1.4e-16 (DLMF 5.11.ii).

    Raises
    ------
    DomainError
        If ``z`` is not finite.
    PoleError
        If ``z`` is within ``POLE_TOL`` of a non-positive integer.
    """
    z = complex(z)
    if _pole_distance(z) < POLE_TOL:
        raise PoleError(z)
    if z.real < 0.5:
        # reflection: log Gamma(z) = log pi - log sin(pi z) - log Gamma(1-z)
        if abs(z.imag) <= _SIN_OVERFLOW_IM:
            log_sin = cmath.log(cmath.sin(cmath.pi * z))
        else:
            log_sin = complex(*_log_sin_pi_far(z.real, z.imag, math))
        return _LOG_PI - log_sin - lngamma(1.0 - z)
    if abs(z) >= _STIRLING_RADIUS:
        return complex(*_stirling(z, cmath.log))
    return _lanczos(z, cmath.log, operator.truediv)


def _lngamma_array(z):
    """``lngamma`` of every element of a 1-d complex array off the poles:
    the same branches and arithmetic, with masks for the reflection and the
    branch choice.  np.log and cmath.log may round differently, so values
    agree with ``lngamma`` to about 1e-15, not always bitwise.  Overflow
    gives inf or nan, not an exception."""
    reflect = z.real < 0.5
    w = np.where(reflect, 1.0 - z, z)
    big = np.hypot(w.real, w.imag) >= _STIRLING_RADIUS  # abs() as Python rounds it
    out = np.empty_like(w)
    out[~big] = _lanczos(w[~big], np.log, _real_over_complex)
    out.real[big], out.imag[big] = _stirling(w[big], np.log)

    zr = z[reflect]
    far = np.abs(zr.imag) > _SIN_OVERFLOW_IM
    log_sin = np.log(np.sin(np.pi * np.where(far, 0.5, zr)))
    log_sin.real[far], log_sin.imag[far] = _log_sin_pi_far(zr.real[far], zr.imag[far], np)
    out[reflect] = _LOG_PI - log_sin - out[reflect]
    return out


def gamma_ratio(numerators, denominators):
    """prod Gamma(numerators) / prod Gamma(denominators), evaluated in log
    space so products like Gamma(1-a1)Gamma(1-b1)Gamma(c1)/... neither
    overflow nor lose precision to cancellation.

    Each argument is a number, giving a ``complex``, or some are 1-d arrays
    of one length, giving an array of ratios (numbers broadcast).  Numbers
    take the pure-Python path; arrays take one vectorized log-Gamma pass
    over all their arguments, which agrees with the elementwise number
    calls to about 1e-14 relative.

    Numerator arguments at a pole raise ``PoleError(location="numerator")``
    (the ratio is infinite -- an amplitude pole); denominator poles violate
    the precondition and raise ``PoleError(location="denominator")``.
    Numerator poles are reported first when both occur, and otherwise the
    first pole in argument order, then element order.  A non-finite
    argument raises ``DomainError`` and a ratio that overflows
    ``OverflowError``, on both paths.
    """
    if any(isinstance(v, np.ndarray) and v.ndim for v in (*numerators, *denominators)):
        return _gamma_ratio_columns(numerators, denominators)
    for u in numerators:
        if _pole_distance(complex(u)) < POLE_TOL:
            raise PoleError(complex(u), location="numerator")
    for v in denominators:
        if _pole_distance(complex(v)) < POLE_TOL:
            raise PoleError(complex(v), location="denominator")
    acc = 0.0j
    for u in numerators:
        acc += lngamma(u)
    for v in denominators:
        acc -= lngamma(v)
    return cmath.exp(acc)


def _gamma_ratio_columns(numerators, denominators):
    """``gamma_ratio`` with array arguments: one ``_lngamma_array`` call on
    every argument column, summed in the scalar path's order."""
    columns = np.broadcast_arrays(*(np.asarray(v, dtype=complex) for v in (*numerators, *denominators)))
    if columns[0].ndim != 1:
        raise DomainError("gamma_ratio takes numbers or 1-d arrays of one length")
    n_num = len(numerators)
    for k, column in enumerate(columns):
        if not np.isfinite(column).all():
            raise DomainError(f"Gamma argument {column[~np.isfinite(column)][0]} is not finite")
        gap = column - np.minimum(np.round(column.real), 0.0)  # as _pole_distance, with abs() as Python rounds it
        pole = np.hypot(gap.real, gap.imag) < POLE_TOL
        if pole.any():
            raise PoleError(complex(column[pole][0]), location="numerator" if k < n_num else "denominator")
    with np.errstate(over="ignore", invalid="ignore"):
        logs = _lngamma_array(np.concatenate(columns)).reshape(len(columns), -1)
        acc = 0.0j
        for row in logs[:n_num]:
            acc = acc + row
        for row in logs[n_num:]:
            acc = acc - row
        values = np.exp(acc)
    bad = ~(np.isfinite(acc) & np.isfinite(values))
    if bad.any():
        raise OverflowError(f"Gamma ratio overflows at element {np.flatnonzero(bad)[0]}")
    return values


def _gauss_series(a, b, c, z) -> complex:
    """Raw Gauss series sum_k (a)_k (b)_k / ((c)_k k!) z^k with a term-ratio
    stopping rule.  Assumes |z| < 1 and c off the pole set."""
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    for k in range(MAX_SERIES_TERMS):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        total += term
        if abs(term) <= _SERIES_STOP * abs(total):
            return total
    raise NonConvergenceError(
        f"Gauss series for 2F1({a}, {b}; {c}; {z}) did not converge in {MAX_SERIES_TERMS} terms"
    )


def _ratio_or_zero(numerators, denominators) -> complex:
    """Gamma ratio where a denominator pole means the ratio is exactly zero
    (1/Gamma vanishing), as happens when a connection coefficient dies."""
    try:
        return gamma_ratio(numerators, denominators)
    except PoleError as err:
        if err.location == "denominator":
            return 0.0j
        raise


def _hyp2f1_complement(a, b, c, u, log_u) -> list:
    """Connection-formula values of 2F1(a,b;c;1-u) at each complement u=1-z.

    ``u`` and ``log_u`` are equal-length sequences of floats, log_u = log u.
    The two Gamma ratios depend on (a, b, c) only and are formed once; the
    two series are summed per element.  Requires c-a-b away from the
    integers.
    """
    s = c - a - b
    if _near_integer(s):
        raise DegenerateParamsError(
            f"c - a - b = {s} is within {POLE_TOL} of an integer; "
            "the connection formula degenerates"
        )
    first_ratio = _ratio_or_zero([c, s], [c - a, c - b])
    second_ratio = _ratio_or_zero([c, -s], [a, b])
    values = []
    for ui, log_ui in zip(u, log_u):
        first = first_ratio
        if first != 0.0:
            first *= _gauss_series(a, b, 1.0 - s, ui)
        second = second_ratio
        if second != 0.0:
            second *= cmath.exp(s * log_ui) * _gauss_series(c - a, c - b, 1.0 + s, ui)
        values.append(first + second)
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
    if _pole_distance(c) < POLE_TOL:
        raise PoleError(c, location="denominator")
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
    Relative accuracy is ~1e-11 or better away from the c-a-b integer
    degeneracy.  Every element is checked before any is evaluated.

    Raises
    ------
    PoleError
        If c is within ``POLE_TOL`` of a non-positive integer.
    DomainError
        If a, b or c is not finite, or unless z >= 0 and log_u is finite
        and <= 0, with exp(log_u) within a few eps (absolutely) of 1 - z.
    NonConvergenceError
        If the series fails to meet the term-ratio stop within
        ``MAX_SERIES_TERMS`` terms.
    DegenerateParamsError
        If some ``z > Z_SWITCH`` and c-a-b is within tolerance of an integer.
    """
    a, b, c = complex(a), complex(b), complex(c)
    scalar = np.ndim(z) == 0
    z, u, log_u = _checked_args(a, b, c, z, log_u)
    zs = z.tolist()
    values = [_gauss_series(a, b, c, zi) if zi <= Z_SWITCH else None for zi in zs]
    far = [i for i, zi in enumerate(zs) if zi > Z_SWITCH]
    if far:
        for i, value in zip(far, _hyp2f1_complement(a, b, c, u[far].tolist(), log_u[far].tolist())):
            values[i] = value
    return values[0] if scalar else np.array(values, dtype=complex)


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
    return _hyp2f1_complement(a, b, c, u.tolist(), log_u.tolist())[0]
