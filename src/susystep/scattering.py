"""Reflection/transmission amplitudes, flux conservation, SUSY relations,
and quasinormal frequencies for the partner potentials and the smooth step.

All Gamma products run through :func:`susystep.specfun.gamma_ratio` in log
space; hyperbolic-ratio closed forms are rearranged into exponential
differences so they stay finite for arbitrarily large omega.

The amplitudes and closed forms take omega as a number or as a 1-d array
(an omega column); a column gives array fields from one Gamma-ratio call
per product, a number Python-number fields from the same calls.
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


def _squared_modulus(value):
    """|value|^2 as r * r with r = |value|; for an array r = hypot(re, im),
    which rounds as Python's abs(complex) does (numpy's abs on complex may
    differ by an ulp), and r * r, not r ** 2, which on a float is pow() and
    may round apart from the array's square."""
    r = np.hypot(value.real, value.imag) if isinstance(value, np.ndarray) else abs(value)
    return r * r


@dataclass(frozen=True)
class ScatteringResult:
    """Amplitudes of one scattering problem; k' derives from (omega, m), the
    coefficients from the amplitudes.

    ``m`` is the coupling solved: m for the partners, sqrt(V0) for the
    step.  ``flux`` is R2 + (kprime/omega) T2; for the analytic amplitudes
    it equals 1 to rounding, for oracle-extracted ones to the integrator's
    accuracy.  For an omega column, ``omega``, ``R``, ``T`` and the derived
    fields are arrays.
    """

    omega: float
    m: float
    kind: PotentialKind
    R: complex
    T: complex

    @property
    def kprime(self) -> float:
        return _kprime(self.omega, self.m)

    @property
    def R2(self) -> float:
        return _squared_modulus(self.R)

    @property
    def T2(self) -> float:
        return _squared_modulus(self.T)

    @property
    def flux(self) -> float:
        return self.R2 + (self.kprime / self.omega) * self.T2


def _coupling(m) -> float:
    """m as a float; ``DomainError`` unless it is a real number in (0, inf)."""
    if not (isinstance(m, numbers.Real) and 0 < m < math.inf):
        raise DomainError(f"require a real, finite m > 0, got m = {m}")
    return float(m)


def _check_scattering_regime(omega, m: float):
    """(omega, float(m)) for real omega > m > 0: omega a Python float for a
    real number (numpy scalars too), a float array for a 1-d real array,
    whose every element is checked."""
    m = _coupling(m)
    column = np.ndim(omega) > 0
    if column:
        omega = np.asarray(omega)
        real = omega.ndim == 1 and omega.dtype.kind in "iuf"
    else:
        real = isinstance(omega, numbers.Real)
    if not real:
        raise DomainError("scattering amplitudes and closed forms take a real omega, a number or a 1-d array")
    if column:
        omega = omega.astype(float)
        below = omega[~((omega > m) & (omega < math.inf))]
    else:
        omega = float(omega)
        below = [] if m < omega < math.inf else [omega]
    if len(below):
        raise DomainError(f"scattering requires a finite omega > m (~propagating transmitted wave); got omega = {below[0]}, m = {m}")
    return omega, m


def _math(omega):
    """The module of elementwise functions (exp, expm1, sqrt) for omega:
    numpy for a column, math for a number."""
    return np if isinstance(omega, np.ndarray) else math


def _kprime(omega, m: float):
    """k' = sqrt(omega^2 - m^2) as sqrt(omega - m) sqrt(omega + m), which
    neither overflows for large omega nor cancels just above threshold."""
    xp = _math(omega)
    return xp.sqrt(omega - m) * xp.sqrt(omega + m)


def _top_exponent(scale, omega, kprime):
    """scale (omega + k'), the largest exponent of a closed form;
    ``DomainError`` where it overflows a double (omega past ~1e307)."""
    with np.errstate(over="ignore"):
        c = scale * (omega + kprime)
    if not np.isfinite(c).all():
        raise DomainError("omega is too large for the closed form: its exponent overflows a double")
    return c


def _gamma_arguments(omega, m: float):
    """The checked (omega, m) and k', s = i(omega + k'), d = i omega - i k'
    and d/m, with d written as i m^2/(omega + k') so it never cancels.  Past
    omega = 1e4 each log-Gamma near +-2i omega carries about |z| eps of
    error and the products miss 1e-10: any such element raises."""
    omega, m = _check_scattering_regime(omega, m)
    if np.any(omega > 1e4):
        raise DomainError(f"the Gamma products hold their accuracy for omega <= 1e4, got omega = {np.max(omega)}; "
                          "the closed forms hold at any omega")
    kprime = _kprime(omega, m)
    total = omega + kprime
    return omega, m, kprime, 1j * total, 1j * (m * m / total), 1j * (m / total)


def _gamma_products(*pairs):
    """``gamma_ratio(numerators, denominators)`` of each pair, in order; a
    pole raises ``GammaPoleError``."""
    try:
        return [gamma_ratio(num, den) for num, den in pairs]
    except PoleError as err:
        raise GammaPoleError(f"Gamma product hit a pole at argument {err.argument} ({err.location}); "
                             "quasinormal frequency or degenerate parameters") from err


def asymptotic_coefficients(omega: float, m: float) -> AsymptoticCoefficients:
    """The eight plane-wave coefficients of Z^I, Z^II for the V+ problem.

    At x -> -infinity the values are exact by construction (1, 0, 0,
    (c1-1)/m); at x -> +infinity they are the connection-formula Gamma
    products of the record's a1, b1, c1, with c1 - a1 = d as in
    :func:`reflection_transmission` and 1/G(d) = d/G(1 + d).  Holds for
    m < omega <= 1e4.
    """
    omega, m, kprime, _, d, d_m = _gamma_arguments(omega, m)
    p = make_exponents(omega, m)
    a1, b1, c1 = p.a1, p.b1, p.c1
    aI_plus, bI_plus, aII_plus, bII_plus = _gamma_products(
        ([c1, 2j * kprime], [a1, b1]),
        ([c1, -2j * kprime], [1.0 + d, 0.5 + d]),
        ([2.0 - c1, 2j * kprime], [1.0 - d, 0.5 - d]),
        ([2.0 - c1, -2j * kprime], [1.0 - a1, 1.0 - b1]),
    )
    fac_in, fac_out = 1.0 + d_m, 1.0 + b1 / m
    return AsymptoticCoefficients(
        aI_minus=1.0 + 0.0j,
        bI_minus=0.0j,
        aII_minus=0.0j,
        bII_minus=(c1 - 1.0) / m,
        aI_plus=aI_plus * fac_in,
        bI_plus=d * bI_plus * fac_out,
        aII_plus=aII_plus * fac_in,
        bII_plus=bII_plus * fac_out,
    )


def reflection_transmission(kind: PotentialKind, omega, m: float) -> ScatteringResult:
    """Reflection and transmission amplitudes of V+ or V- (omega a number or
    a 1-d array), with s = i(omega + k') and d = i omega - i k' =
    i m^2/(omega + k'):

        R+ = (d/m) G(1/2-s)G(1-s)G(1/2+2iw) / (G(1/2-2iw)G(1+d)G(1/2+d))
        T+- = (1 +- d/m) G(1/2-s)G(1-s) / (G(1/2-2iw)G(1-2ik'))

    and R- = -R+.  1/G(d) = d/G(1+d) (DLMF 5.5.1) takes out the factor
    that is near a pole for m << omega.  |R|^2 and |T|^2 meet the closed
    forms to 1e-10 relative for any m > 0 and m < omega <= 1e4; above
    that ``DomainError`` is raised (the closed forms hold at any omega).
    """
    if kind not in (PotentialKind.PLUS, PotentialKind.MINUS):
        raise DomainError("reflection_transmission handles the partner kinds; use step_amplitudes for the step")
    omega, m, kprime, s, d, d_m = _gamma_arguments(omega, m)
    r_plus, t_core = _gamma_products(
        ([0.5 - s, 1.0 - s, 0.5 + 2j * omega], [0.5 - 2j * omega, 1.0 + d, 0.5 + d]),
        ([0.5 - s, 1.0 - s], [0.5 - 2j * omega, 1.0 - 2j * kprime]),
    )
    sign = 1.0 if kind is PotentialKind.PLUS else -1.0
    return ScatteringResult(omega=omega, m=m, kind=kind, R=sign * d_m * r_plus, T=(1.0 + sign * d_m) * t_core)


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
    kprime = _kprime(omega, m)
    c = _top_exponent(2.0 * math.pi, omega, kprime)
    a = 2.0 * math.pi * (m * m / (omega + kprime))
    b = 2.0 * math.pi * kprime
    r2 = _sinh_ratio(a, c, xp)
    # 2 cosh(2 pi w) sinh(2 pi k') / sinh(2 pi (w + k')):
    # exponents cancel exactly, leaving expm1 factors only.
    t2 = (omega / kprime) * (1.0 + xp.exp(-2.0 * c + 2.0 * b)) * (-xp.expm1(-2.0 * b)) / (-xp.expm1(-2.0 * c))
    return r2, t2


def susy_relation_check(omega, m: float):
    """Partnership identities: returns (R+ + R-, T+ - (i k/(m + i k')) T-),
    both of which the closed amplitudes satisfy identically (k = omega,
    k' = sqrt(omega^2 - m^2)); arrays for an omega column."""
    res_plus = reflection_transmission(PotentialKind.PLUS, omega, m)
    res_minus = reflection_transmission(PotentialKind.MINUS, omega, m)
    factor = 1j * res_plus.omega / (res_plus.m + 1j * res_plus.kprime)
    return res_plus.R + res_minus.R, res_plus.T - factor * res_minus.T


def step_amplitudes(omega, m: float) -> ScatteringResult:
    """Amplitudes of the smooth step with height V0 = m^2 and width
    alpha = 1 (the comparison convention used throughout), omega a number
    or a 1-d array, with s and d as in :func:`reflection_transmission`:

        R^S = (d/s) G(1+2iw)G(1-s)^2 / (G(1-2iw)G(1+d)^2)
        T^S = (2iw/s) G(1-s)^2 / (G(1-2iw)G(1-2ik'))

    where d/s = m^2/(omega + k')^2 and 2iw/s = 2 omega/(omega + k') are
    real.  G(-s) = -G(1-s)/s and G(+-2iw) = G(1+-2iw)/(+-2iw) (DLMF 5.5.1)
    keep every argument a unit away from the poles, however small omega
    is.  G(1-s)^2 is evaluated as G(1-s)G(2-s)/(1-s), whose two log-Gamma
    errors do not add up coherently as a square's do.  |R^S|^2 and
    |T^S|^2 meet the closed form to 1e-10 relative for any m > 0 and
    m < omega <= 1e4; above that ``DomainError`` is raised.
    """
    omega, m, kprime, s, d, _ = _gamma_arguments(omega, m)
    total = omega + kprime
    # 1/(1 - s) = (1 + s)/(1 + (omega + k')^2), applied as x (1 + s) =
    # x + s x: complex division and complex-by-complex products round apart
    # on numbers and arrays, products by the imaginary s do not
    q = m / total
    scale = 1.0 / (1.0 + total * total)
    r, t = _gamma_products(
        ([1.0 + 2j * omega, 1.0 - s, 2.0 - s], [1.0 - 2j * omega, 1.0 + d, 1.0 + d]),
        ([1.0 - s, 2.0 - s], [1.0 - 2j * omega, 1.0 - 2j * kprime]),
    )
    return ScatteringResult(omega=omega, m=m, kind=PotentialKind.STEP,
                            R=q * q * scale * (r + s * r), T=2.0 * omega / total * scale * (t + s * t))


def step_reflection_closed_form(omega, m: float):
    """|R^S|^2 = sinh^2(pi(omega - k')) / sinh^2(pi(omega + k')), with
    omega - k' = m^2/(omega + k') free of cancellation; an array for an
    omega column."""
    omega, m = _check_scattering_regime(omega, m)
    kprime = _kprime(omega, m)
    c = _top_exponent(math.pi, omega, kprime)
    return _sinh_ratio(math.pi * (m * m / (omega + kprime)), c, _math(omega)) ** 2


def compare_reflection(omega_grid, m: float):
    """Per-frequency triples (|R+|^2, |R^S|^2, difference) over a grid.

    The two reflection coefficients are visually indistinguishable but not
    equal; the difference column is the quantity of interest.
    """
    omega = np.asarray(omega_grid)
    r2_plus, _ = coefficients_closed_form(omega, m)
    r2_step = step_reflection_closed_form(omega, m)
    return list(zip(r2_plus.tolist(), r2_step.tolist(), (r2_plus - r2_step).tolist()))


def qnm(kind: PotentialKind, n: int, m: float) -> complex:
    """Closed-form quasinormal frequency of overtone n:

        step:    omega = -(i/2) (n + 1 - m^2/(n+1))
        partner: omega = -(i/4) (n + 1 - 4 m^2/(n+1))

    Reported verbatim, including the low overtones with non-negative
    imaginary part; no stability filtering is applied.
    """
    if not (isinstance(n, numbers.Integral) and n >= 0):
        raise DomainError(f"overtone index must be an integer >= 0, got {n!r}")
    m = _coupling(m)
    if kind is PotentialKind.STEP:
        return -0.5j * (n + 1.0 - m * m / (n + 1.0))
    if kind in (PotentialKind.PLUS, PotentialKind.MINUS):
        return -0.25j * (n + 1.0 - 4.0 * m * m / (n + 1.0))
    raise DomainError(f"unknown potential kind {kind!r}")


def inverse_transmission_magnitude(kind: PotentialKind, omega: complex, m: float) -> float:
    """|1/T| for a partner potential at complex omega, via the
    Legendre-duplication rewrite of the transmission amplitude

        T = pref * sqrt(pi) 2^(2iw + 2ik') G(1 - 2iw - 2ik')
                          / (G(1/2 - 2iw) G(1 - 2ik'))

    which stays evaluable where the hypergeometric parameter c1 is an
    integer.  A pole of the numerator Gamma means T is infinite, so 0.0 is
    returned (the amplitude-pole signal that locates quasinormal
    frequencies).  A pole of a denominator Gamma raises GammaPoleError;
    an omega that is not one finite number, or an m that is not a real
    0 < m < inf, raises DomainError.
    """
    if kind not in (PotentialKind.PLUS, PotentialKind.MINUS):
        raise DomainError("transmission poles are computed for the partner kinds")
    m = _coupling(m)
    if not (isinstance(omega, numbers.Number) and cmath.isfinite(omega)):
        raise DomainError(f"omega must be a finite number, got omega = {omega}")
    omega = complex(omega)
    B = complex(b_exponent(omega, m))
    kprime = -1j * B
    numerator_arg = 1.0 - 2j * omega - 2j * kprime
    dist = numerator_arg - round(numerator_arg.real)
    if round(numerator_arg.real) <= 0 and abs(dist) < POLE_TOL:
        return 0.0  # T has a Gamma pole here: |1/T| vanishes
    sign = 1.0 if kind is PotentialKind.PLUS else -1.0
    pref = 1.0 + sign * (1j * omega - B) / m
    if pref == 0.0:
        return float("inf")
    (ratio,) = _gamma_products(([0.5 - 2j * omega, 1.0 - 2j * kprime], [numerator_arg]))
    inv_t = ratio / (pref * _SQRT_PI * cmath.exp((2j * omega + 2j * kprime) * _LOG_2))
    return abs(inv_t)


def qnm_pole_check(kind: PotentialKind, n: int, m: float) -> float:
    """|1/T| evaluated at the closed-form quasinormal frequency.

    The frequency always places the transmission numerator Gamma at a
    non-positive integer, so the returned magnitude is 0.0 up to the pole
    tolerance; perturbing the frequency moves it far from zero.
    """
    return inverse_transmission_magnitude(kind, qnm(kind, n, m), m)
