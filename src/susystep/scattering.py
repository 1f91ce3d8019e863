"""Reflection/transmission amplitudes, flux conservation, SUSY relations,
and quasinormal frequencies for the partner potentials and the smooth step.

All Gamma products run through :func:`susystep.specfun.gamma_ratio` in log
space; hyperbolic-ratio closed forms are rearranged into exponential
differences so they stay finite for arbitrarily large omega.

The amplitudes and closed forms take omega as a number or as a 1-d array
(an omega column); a column gives array fields from one Gamma-ratio call
per product, a number the pure-Python path.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GammaPoleError, PoleError
from .potentials import PotentialKind
from .solutions import b_exponent, make_exponents
from .specfun import POLE_TOL, gamma_ratio

__all__ = [
    "AsymptoticCoefficients",
    "ScatteringResult",
    "QnmFrequency",
    "asymptotic_coefficients",
    "reflection_transmission",
    "coefficients_closed_form",
    "susy_relation_check",
    "step_amplitudes",
    "step_reflection_closed_form",
    "compare_reflection",
    "qnm",
    "qnm_pole_check",
    "inverse_transmission_magnitude",
]

_SQRT_PI = math.sqrt(math.pi)
_LOG_2 = math.log(2.0)


@dataclass(frozen=True)
class AsymptoticCoefficients:
    """Plane-wave coefficients of the two solution branches (V+ problem,
    unit normalization, the common e^(-i pi/4) factor divided out).

    ``aX_minus``/``bX_minus`` multiply e^(+i omega x)/e^(-i omega x) as
    x -> -infinity; ``aX_plus``/``bX_plus`` multiply e^(+i k' x)/
    e^(-i k' x) as x -> +infinity, k' = sqrt(omega^2 - m^2).
    """

    aI_minus: complex
    bI_minus: complex
    aII_minus: complex
    bII_minus: complex
    aI_plus: complex
    bI_plus: complex
    aII_plus: complex
    bII_plus: complex


def _modulus(value):
    """|value|; for an array, hypot(re, im), which rounds as Python's
    abs(complex) does (numpy's abs on complex may differ by an ulp)."""
    return np.hypot(value.real, value.imag) if isinstance(value, np.ndarray) else abs(value)


@dataclass(frozen=True)
class ScatteringResult:
    """Amplitudes of one scattering problem; the coefficients derive from
    them.

    ``m`` is the coupling solved: m for the partners, sqrt(V0) for the
    step.  ``flux`` is R2 + (kprime/omega) T2; for the analytic amplitudes
    it equals 1 to rounding, for oracle-extracted ones to the integrator's
    accuracy.  For an omega column, ``omega``, ``R``, ``T``, ``kprime`` and
    the derived fields are arrays.
    """

    omega: float
    m: float
    kind: PotentialKind
    R: complex
    T: complex
    kprime: float

    @property
    def R2(self) -> float:
        return _modulus(self.R) ** 2

    @property
    def T2(self) -> float:
        return _modulus(self.T) ** 2

    @property
    def flux(self) -> float:
        return self.R2 + (self.kprime / self.omega) * self.T2


@dataclass(frozen=True)
class QnmFrequency:
    """One quasinormal frequency (pole of the transmission amplitude)."""

    n: int
    omega: complex
    kind: PotentialKind


def _check_scattering_regime(omega, m: float):
    """(omega, float(m)) for real omega > m > 0: omega a Python float for a
    real number (numpy scalars too), a float array for a 1-d real array,
    whose every element is checked."""
    column = np.ndim(omega) > 0
    if column:
        omega = np.asarray(omega)
        real = omega.ndim == 1 and omega.dtype.kind in "iuf"
    else:
        real = isinstance(omega, numbers.Real)
    if not (real and isinstance(m, numbers.Real)):
        raise DomainError("scattering amplitudes and closed forms take real m and real omega, a number or a 1-d array")
    if not m > 0:
        raise DomainError(f"require m > 0, got m = {m}")
    if column:
        omega = omega.astype(float)
        below = omega[~(omega > m)]
    else:
        omega = float(omega)
        below = [] if omega > m else [omega]
    if len(below):
        raise DomainError(f"scattering requires omega > m (~propagating transmitted wave); got omega = {below[0]}, m = {m}")
    return omega, float(m)


def _math(omega):
    """The module of elementwise functions (exp, expm1, sqrt) for omega:
    numpy for a column, math for a number."""
    return np if isinstance(omega, np.ndarray) else math


def _over(z, m: float):
    """z / m for a real m; an array is divided part by part, as Python
    divides a complex number (numpy multiplies by 1/m instead)."""
    if not isinstance(z, np.ndarray):
        return z / m
    out = np.empty_like(z)
    out.real, out.imag = z.real / m, z.imag / m
    return out


def _wrap_gamma_pole(fn):
    try:
        return fn()
    except PoleError as err:
        raise GammaPoleError(
            f"Gamma product hit a pole at argument {err.argument} "
            f"({err.location}); quasinormal frequency or degenerate parameters"
        ) from err


def asymptotic_coefficients(omega: float, m: float) -> AsymptoticCoefficients:
    """The eight plane-wave coefficients of Z^I, Z^II for the V+ problem.

    At x -> -infinity the values are exact by construction (1, 0, 0,
    (c1-1)/m); at x -> +infinity they are the connection-formula Gamma
    products.  omega > m > 0 required.
    """
    omega, m = _check_scattering_regime(omega, m)
    p = make_exponents(omega, m)
    a1, b1, c1 = p.a1, p.b1, p.c1
    fac_in = 1.0 + (c1 - a1) / m
    fac_out = 1.0 + b1 / m

    def build():
        aI_plus = gamma_ratio([c1, a1 + b1 - c1], [a1, b1]) * fac_in
        bI_plus = gamma_ratio([c1, c1 - a1 - b1], [c1 - a1, c1 - b1]) * fac_out
        aII_plus = gamma_ratio([2.0 - c1, a1 + b1 - c1], [a1 - c1 + 1.0, b1 - c1 + 1.0]) * fac_in
        bII_plus = gamma_ratio([2.0 - c1, c1 - a1 - b1], [1.0 - a1, 1.0 - b1]) * fac_out
        return aI_plus, bI_plus, aII_plus, bII_plus

    aI_plus, bI_plus, aII_plus, bII_plus = _wrap_gamma_pole(build)
    return AsymptoticCoefficients(
        aI_minus=1.0 + 0.0j,
        bI_minus=0.0j,
        aII_minus=0.0j,
        bII_minus=(c1 - 1.0) / m,
        aI_plus=aI_plus,
        bI_plus=bI_plus,
        aII_plus=aII_plus,
        bII_plus=bII_plus,
    )


def reflection_transmission(kind: PotentialKind, omega, m: float) -> ScatteringResult:
    """Reflection and transmission amplitudes of V+ or V- for omega > m
    (omega a number or a 1-d array):

        R+ = (1/m) G(1-a1)G(1-b1)G(c1) / (G(1-c1)G(c1-a1)G(c1-b1))
        T+ = (1 + (c1-a1)/m) G(1-a1)G(1-b1) / (G(1-c1)G(1+c1-a1-b1))

    and R- = -R+, T- = ((1-(c1-a1)/m)/(1+(c1-a1)/m)) T+.
    """
    if kind not in (PotentialKind.PLUS, PotentialKind.MINUS):
        raise DomainError("reflection_transmission handles the partner kinds; use step_amplitudes for the step")
    omega, m = _check_scattering_regime(omega, m)
    p = make_exponents(omega, m)
    a1, b1, c1 = p.a1, p.b1, p.c1

    def build():
        r_plus = _over(gamma_ratio([1.0 - a1, 1.0 - b1, c1], [1.0 - c1, c1 - a1, c1 - b1]), m)
        t_core = gamma_ratio([1.0 - a1, 1.0 - b1], [1.0 - c1, 1.0 + c1 - a1 - b1])
        return r_plus, t_core

    r_plus, t_core = _wrap_gamma_pole(build)
    if kind is PotentialKind.PLUS:
        R, T = r_plus, (1.0 + _over(c1 - a1, m)) * t_core
    else:
        R, T = -r_plus, (1.0 - _over(c1 - a1, m)) * t_core
    kprime = _math(omega).sqrt(omega * omega - m * m)
    return ScatteringResult(omega=omega, m=m, kind=kind, R=R, T=T, kprime=kprime)


def _sinh_ratio(a, c, xp):
    """sinh(a)/sinh(c) for 0 <= a <= c, via exponent differences; ``xp`` as
    from ``_math``."""
    return xp.exp(a - c) * xp.expm1(-2.0 * a) / xp.expm1(-2.0 * c)


def coefficients_closed_form(omega, m: float):
    """Closed hyperbolic forms of the partner reflection/transmission
    coefficients,

        |R|^2 = sinh(2 pi (omega - k')) / sinh(2 pi (omega + k'))
        |T|^2 = (omega/k') 2 cosh(2 pi omega) sinh(2 pi k')
                                            / sinh(2 pi (omega + k'))

    rearranged into exponential differences, so no intermediate ever
    overflows (plain sinh would at omega ~ 113), and with omega - k'
    written as m^2/(omega + k'), which does not cancel for m << omega.  An
    omega column gives two arrays.
    """
    omega, m = _check_scattering_regime(omega, m)
    xp = _math(omega)
    kprime = xp.sqrt(omega * omega - m * m)
    a = 2.0 * math.pi * (m * m / (omega + kprime))
    b = 2.0 * math.pi * kprime
    c = 2.0 * math.pi * (omega + kprime)
    r2 = _sinh_ratio(a, c, xp)
    # 2 cosh(2 pi w) sinh(2 pi k') / sinh(2 pi (w + k')):
    # exponents cancel exactly, leaving expm1 factors only.
    t2 = (omega / kprime) * (1.0 + xp.exp(-2.0 * c + 2.0 * b)) * (-xp.expm1(-2.0 * b)) / (-xp.expm1(-2.0 * c))
    return r2, t2


def susy_relation_check(omega, m: float):
    """Partnership identities: returns (R+ + R-, T+ - (i k/(m + i k')) T-),
    both of which the closed amplitudes satisfy identically (k = omega,
    k' = sqrt(omega^2 - m^2)); arrays for an omega column."""
    omega, m = _check_scattering_regime(omega, m)
    res_plus = reflection_transmission(PotentialKind.PLUS, omega, m)
    res_minus = reflection_transmission(PotentialKind.MINUS, omega, m)
    factor = 1j * res_plus.omega / (m + 1j * res_plus.kprime)
    return res_plus.R + res_minus.R, res_plus.T - factor * res_minus.T


def step_amplitudes(omega, m: float) -> ScatteringResult:
    """Amplitudes of the smooth step with height V0 = m^2 and width
    alpha = 1 (the comparison convention used throughout), omega a number
    or a 1-d array:

        R^S = G(2iw)G(-iw-ik')G(1-iw-ik') / (G(-2iw)G(iw-ik')G(1+iw-ik'))
        T^S = G(1-iw-ik')G(-iw-ik') / (G(-2iw)G(1-2ik'))
    """
    omega, m = _check_scattering_regime(omega, m)
    kprime = _math(omega).sqrt(omega * omega - m * m)
    iw = 1j * omega
    ikp = 1j * kprime

    def build():
        r = gamma_ratio(
            [2.0 * iw, -iw - ikp, 1.0 - iw - ikp],
            [-2.0 * iw, iw - ikp, 1.0 + iw - ikp],
        )
        t = gamma_ratio([1.0 - iw - ikp, -iw - ikp], [-2.0 * iw, 1.0 - 2.0 * ikp])
        return r, t

    R, T = _wrap_gamma_pole(build)
    return ScatteringResult(omega=omega, m=m, kind=PotentialKind.STEP, R=R, T=T, kprime=kprime)


def step_reflection_closed_form(omega, m: float):
    """|R^S|^2 = sinh^2(pi(omega - k')) / sinh^2(pi(omega + k')), with
    omega - k' = m^2/(omega + k') free of cancellation; an array for an
    omega column."""
    omega, m = _check_scattering_regime(omega, m)
    xp = _math(omega)
    kprime = xp.sqrt(omega * omega - m * m)
    return _sinh_ratio(math.pi * (m * m / (omega + kprime)), math.pi * (omega + kprime), xp) ** 2


def compare_reflection(omega_grid, m: float):
    """Per-frequency triples (|R+|^2, |R^S|^2, difference) over a grid.

    The two reflection coefficients are visually indistinguishable but not
    equal; the difference column is the quantity of interest.
    """
    omega = np.asarray(omega_grid)
    r2_plus, _ = coefficients_closed_form(omega, m)
    r2_step = step_reflection_closed_form(omega, m)
    return list(zip(r2_plus.tolist(), r2_step.tolist(), (r2_plus - r2_step).tolist()))


def qnm(kind: PotentialKind, n: int, m: float) -> QnmFrequency:
    """Closed-form quasinormal frequency of overtone n:

        step:    omega = -(i/2) (n + 1 - m^2/(n+1))
        partner: omega = -(i/4) (n + 1 - 4 m^2/(n+1))

    Reported verbatim, including the low overtones with non-negative
    imaginary part; no stability filtering is applied.
    """
    if not (isinstance(n, numbers.Integral) and n >= 0):
        raise DomainError(f"overtone index must be an integer >= 0, got {n!r}")
    if not m > 0:
        raise DomainError(f"require m > 0, got m = {m}")
    if kind is PotentialKind.STEP:
        omega = -0.5j * (n + 1.0 - m * m / (n + 1.0))
    elif kind in (PotentialKind.PLUS, PotentialKind.MINUS):
        omega = -0.25j * (n + 1.0 - 4.0 * m * m / (n + 1.0))
    else:
        raise DomainError(f"unknown potential kind {kind!r}")
    return QnmFrequency(n=int(n), omega=omega, kind=kind)


def inverse_transmission_magnitude(kind: PotentialKind, omega: complex, m: float) -> float:
    """|1/T| for a partner potential at complex omega, via the
    Legendre-duplication rewrite of the transmission amplitude

        T = pref * sqrt(pi) 2^(2iw + 2ik') G(1 - 2iw - 2ik')
                          / (G(1/2 - 2iw) G(1 - 2ik'))

    which stays evaluable where the hypergeometric parameter c1 is an
    integer.  A pole of the numerator Gamma means T is infinite, so 0.0 is
    returned (the amplitude-pole signal that locates quasinormal
    frequencies).  A pole of a denominator Gamma raises GammaPoleError.
    """
    if kind not in (PotentialKind.PLUS, PotentialKind.MINUS):
        raise DomainError("transmission poles are computed for the partner kinds")
    if not m > 0:
        raise DomainError(f"require m > 0, got m = {m}")
    omega = complex(omega)
    B = b_exponent(omega, m)
    kprime = -1j * B
    numerator_arg = 1.0 - 2j * omega - 2j * kprime
    dist = numerator_arg - round(numerator_arg.real)
    if round(numerator_arg.real) <= 0 and abs(dist) < POLE_TOL:
        return 0.0  # T has a Gamma pole here: |1/T| vanishes
    sign = 1.0 if kind is PotentialKind.PLUS else -1.0
    pref = 1.0 + sign * (1j * omega - B) / m
    if pref == 0.0:
        return float("inf")

    def build():
        return gamma_ratio([0.5 - 2j * omega, 1.0 - 2j * kprime], [numerator_arg])

    ratio = _wrap_gamma_pole(build)
    inv_t = ratio / (pref * _SQRT_PI * cmath.exp((2j * omega + 2j * kprime) * _LOG_2))
    return abs(inv_t)


def qnm_pole_check(kind: PotentialKind, n: int, m: float) -> float:
    """|1/T| evaluated at the closed-form quasinormal frequency.

    The frequency always places the transmission numerator Gamma at a
    non-positive integer, so the returned magnitude is 0.0 up to the pole
    tolerance; perturbing the frequency moves it far from zero.
    """
    freq = qnm(kind, n, m)
    return inverse_transmission_magnitude(kind, freq.omega, m)
