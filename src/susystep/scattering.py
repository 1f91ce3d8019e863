"""Reflection/transmission amplitudes, flux conservation, SUSY relations, and quasinormal frequencies for the
partner potentials and the smooth step.

All Gamma products run through :func:`susystep.specfun.gamma_ratio` in log space; hyperbolic-ratio closed forms are
rearranged into exponential differences so they stay finite for arbitrarily large omega.

The amplitudes and the closed forms take omega and m as numbers or as 1-d case columns of one length (a number stands
for every case), |1/T| a complex omega column at one m, all in numpy, numbers giving Python numbers of the same bits;
the SUSY check takes one amplitude call's (V+, V-).  An amplitude call, for one kind or a tuple of the partners and
the step, makes one Gamma-ratio call, and |1/T| at most one; a closed-form call checks (omega, m) once for all its
columns.  A kind is checked to be a ``PotentialKind`` before it is compared with one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GammaPoleError, PoleError, finite_real, real_array
from .potentials import PotentialKind, PotentialSpec
from .solutions import b_exponent, make_exponents
from .specfun import gamma_ratio, near_pole

__all__ = [
    "AsymptoticCoefficients", "ScatteringResult", "asymptotic_coefficients", "reflection_transmission",
    "coefficients_closed_form", "susy_relation_check", "step_amplitudes", "step_reflection_closed_form",
    "closed_form_columns", "transmitted_wavenumber", "qnm", "qnm_pole_check", "inverse_transmission_magnitude"
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


def _squared_modulus(omega, value):
    """|value|^2 per omega as r * r with r = hypot(re, im), not numpy's abs on
    complex (which may differ by an ulp) nor r ** 2 (pow() on a numpy scalar)."""
    r = np.hypot(np.real(value), np.imag(value))
    return _per_case(omega, r * r)[0]


@dataclass(frozen=True)
class ScatteringResult:
    """Amplitudes of one scattering problem; k' derives from (omega, m), the
    coefficients from the amplitudes.

    ``m`` is the coupling solved: m for the partners, sqrt(V0) for the
    step.  ``flux`` is R2 + (kprime/omega) T2; for the analytic amplitudes
    it equals 1 to rounding, for oracle-extracted ones to the integrator's
    accuracy.  For case columns, ``omega``, ``R``, ``T``, the derived fields and
    an m column are arrays.  Its builders check (omega, m), so ``kprime`` reads them unchecked.
    """

    omega: float
    m: float
    kind: PotentialKind
    R: complex
    T: complex

    @property
    def kprime(self) -> float:
        return _per_case(self.omega, _kprime(self.omega, self.m))[0]

    @property
    def R2(self) -> float:
        return _squared_modulus(self.omega, self.R)

    @property
    def T2(self) -> float:
        return _squared_modulus(self.omega, self.T)

    @property
    def flux(self) -> float:
        return self.R2 + (self.kprime / self.omega) * self.T2


def _coupling(m):
    """m as a float, or a 1-d array as a float array; ``DomainError`` unless m (each
    element) is a real number in (0, inf) and not a bool."""
    if not isinstance(m, numbers.Number):
        ms = real_array(m, "m")
        if ms.ndim == 1 and ((ms > 0) & (ms < math.inf)).all():
            return ms
    elif finite_real(m) and m > 0:
        return float(m)
    raise DomainError(f"require a real, finite m > 0 (or a 1-d column of them), got m = {m}")


def _kprime(omega, m):
    """k' = sqrt(omega - m) sqrt(omega + m) for omega > m >= 0: it neither overflows nor cancels."""
    return np.sqrt(omega - m) * np.sqrt(omega + m)


def _check_scattering_regime(omega, m):
    """(omega, m, k') for a float m or m column and an omega checked in one numpy pass to be real
    (not a bool), finite and above m: 0-d for a number pair, else 1-d (a number omega repeated)."""
    omega = real_array(omega, "omega")
    if omega.ndim > 1:
        raise DomainError(f"omega must be a number or a 1-d array, got shape {omega.shape}")
    if isinstance(m, np.ndarray) and omega.shape != m.shape:
        if omega.ndim:
            raise DomainError(f"omega and m columns must have one length, got {omega.size} and {m.size}")
        omega = np.repeat(omega, m.size)
    below = ~((omega > m) & (omega < math.inf))
    if below.any():
        w, mb = (np.broadcast_to(v, omega.shape)[below][0] for v in (omega, m))
        raise DomainError(f"scattering requires a finite omega > m (~propagating transmitted wave); got omega = {w}, m = {mb}")
    return omega, m, _kprime(omega, m)


def transmitted_wavenumber(omega, m: float):
    """k' = sqrt(omega^2 - m^2), a float for a number omega, an array for a 1-d
    array; ``DomainError`` unless m >= 0 and omega > m are real (not bools) and finite."""
    if not (finite_real(m) and m >= 0):
        raise DomainError(f"k' requires a real, finite m >= 0, got m = {m}")
    omega, _, kprime = _check_scattering_regime(omega, float(m))
    return _per_case(omega, kprime)[0]


def _gamma_arguments(omega, m: float):
    """The checked (omega, m) and k', s = i(omega + k'), d = i omega - i k'
    and d/m, with d written as i m^2/(omega + k') so it never cancels.  Past
    omega = 1e4 each log-Gamma near +-2i omega carries about |z| eps of
    error and the products miss 1e-10: any such element raises."""
    omega, m, kprime = _check_scattering_regime(omega, _coupling(m))
    if np.any(omega > 1e4):
        raise DomainError(f"the Gamma products hold their accuracy for omega <= 1e4, got omega = {np.max(omega)}; "
                          "the closed forms hold at any omega")
    total = omega + kprime
    return omega, m, kprime, 1j * total, 1j * (m * m / total), 1j * (m / total)


def _gamma_products(*pairs):
    """``gamma_ratio(numerators, denominators)`` of each pair of one arity, a
    row of one element per case (one for a number pair) per pair, in one call
    over the pairs stacked along the column; a pole raises ``GammaPoleError``."""
    numerators, denominators = ([np.concatenate([np.atleast_1d(v) for v in args]) for args in zip(*side)]
                                for side in zip(*pairs))
    try:
        return gamma_ratio(numerators, denominators).reshape(len(pairs), -1)
    except PoleError as err:
        raise GammaPoleError(f"Gamma product hit a pole at argument {err.argument} ({err.location}); "
                             "quasinormal frequency or degenerate parameters") from err


def _per_case(omega, *values):
    """The numpy values as they are for a checked omega column, as Python numbers (``.item()``) for a number."""
    return values if np.ndim(omega) else tuple(v.item() for v in values)


def asymptotic_coefficients(omega: float, m: float) -> AsymptoticCoefficients:
    """The eight plane-wave coefficients of Z^I, Z^II for the V+ problem.

    At x -> -infinity the values are exact by construction (1, 0, 0,
    (c1-1)/m); at x -> +infinity they are the connection-formula Gamma
    products of the record's a1, b1, c1, with c1 - a1 = d as in
    :func:`reflection_transmission` and 1/G(d) = d/G(1 + d), all four from
    one ``gamma_ratio`` call.  Holds for m < omega <= 1e4.
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
    return AsymptoticCoefficients(1.0 + 0.0j, 0.0j, 0.0j, (c1 - 1.0) / m, *_per_case(
        omega, aI_plus * fac_in, d * bI_plus * fac_out, aII_plus * fac_in, bII_plus * fac_out))


def _check_kinds(kinds, allowed=tuple(PotentialKind)):
    """``DomainError`` unless ``kinds`` is a nonempty tuple of ``allowed`` kinds, each tested by ``isinstance``
    first, so that an array or any other object never meets an enum comparison."""
    for k in kinds or ((),):
        if not isinstance(k, PotentialKind):
            raise DomainError(f"unknown potential kind {k!r}")
        if k not in allowed:
            raise DomainError(f"{k} is not computed here: only the partner kinds are")


def reflection_transmission(kind, omega, m):
    """Reflection and transmission amplitudes of V+, V- or the smooth step (omega and m numbers or case
    columns), with s = i(omega + k') and d = i omega - i k' = i m^2/(omega + k'):

        R+ = (d/m) G(1/2-s)G(1-s)G(1/2+2iw) / (G(1/2-2iw)G(1+d)G(1/2+d))
        T+- = (1 +- d/m) G(1/2-s)G(1-s) / (G(1/2-2iw)G(1-2ik'))
        R^S = (d/s) G(1+2iw)G(1-s)^2 / (G(1-2iw)G(1+d)^2)
        T^S = (2iw/s) G(1-s)^2 / (G(1-2iw)G(1-2ik'))

    and R- = -R+.  The step has height V0 = m^2 and width alpha = 1 (the comparison convention used
    throughout); d/s = m^2/(omega + k')^2 and 2iw/s = 2 omega/(omega + k') are real.  Each R is its T's Gamma
    core times G(1/2+2iw)G(1-2ik')/(G(1+d)G(1/2+d)), or G(1+2iw)G(1-2ik')/G(1+d)^2 for the step, and a kind or
    a tuple of kinds (a tuple of results) takes one Gamma-ratio call.  1/G(d) = d/G(1+d), G(-s) = -G(1-s)/s and
    G(+-2iw) = G(1+-2iw)/(+-2iw) (DLMF 5.5.1) keep every argument a unit away from the poles for m << omega and
    however small omega is; the step's G(1-s)^2 is G(1-s)G(2-s)/(1-s), whose two log-Gamma errors do not add up
    coherently as a square's do.  |R|^2 and |T|^2 meet the closed forms to 1e-10 relative for any m > 0 and
    m < omega <= 1e4; above that ``DomainError`` is raised (the closed forms hold at any omega).
    """
    kinds = kind if isinstance(kind, tuple) else (kind,)
    _check_kinds(kinds)
    omega, m, kprime, s, d, d_m = _gamma_arguments(omega, m)
    step, partners = PotentialKind.STEP in kinds, any(k is not PotentialKind.STEP for k in kinds)
    rows = iter(_gamma_products(*([
        ([0.5 - s, 1.0 - s], [0.5 - 2j * omega, 1.0 - 2j * kprime]),
        ([0.5 + 2j * omega, 1.0 - 2j * kprime], [1.0 + d, 0.5 + d]),
    ] if partners else []), *([
        ([1.0 - s, 2.0 - s], [1.0 - 2j * omega, 1.0 - 2j * kprime]),
        ([1.0 + 2j * omega, 1.0 - 2j * kprime], [1.0 + d, 1.0 + d]),
    ] if step else [])))
    amplitudes = {}
    if partners:
        t_core = next(rows)
        r_core = t_core * next(rows)
        for sign, k in ((1.0, PotentialKind.PLUS), (-1.0, PotentialKind.MINUS)):
            amplitudes[k] = sign * d_m * r_core, (1.0 + sign * d_m) * t_core
    if step:  # 1/(1 - s) = (1 + s)/(1 + (omega + k')^2), as x (1 + s) = x + s x: no complex division
        t, total = next(rows), omega + kprime
        r, q, scale = t * next(rows), m / total, 1.0 / (1.0 + total * total)
        amplitudes[PotentialKind.STEP] = q * q * scale * (r + s * r), 2.0 * omega / total * scale * (t + s * t)
    results = [ScatteringResult(_per_case(omega, omega)[0], m, k, *_per_case(omega, *amplitudes[k])) for k in kinds]
    return tuple(results) if isinstance(kind, tuple) else results[0]


def _closed_form_parts(omega, m, kprime, scale):
    """(b, c, sinh(a)/sinh(c)) at a checked (omega, m, k') for a = scale (omega - k') =
    scale m^2/(omega + k'), b = scale k', c = a + 2b: the ratio is e^(-2b)
    expm1(-2a)/expm1(-2c), finite even where m^2 overflows, and cancels neither
    at threshold (a ~ c) nor for m << omega.  ``DomainError`` where c overflows."""
    with np.errstate(over="ignore"):
        c = scale * (omega + kprime)
    if not np.isfinite(c).all():
        raise DomainError("omega is too large for the closed form: its exponent overflows a double")
    a, b = scale * (m * m / (omega + kprime)), scale * kprime
    return b, c, np.exp(-2.0 * b) * np.expm1(-2.0 * a) / np.expm1(-2.0 * c)


def closed_form_columns(kind, omega, m):
    """Closed hyperbolic forms of the partners' coefficients (either partner kind: they are equal),

        |R|^2 = sinh(2 pi (omega - k')) / sinh(2 pi (omega + k'))
        |T|^2 = (omega/k') 2 cosh(2 pi omega) sinh(2 pi k') / sinh(2 pi (omega + k')),

    or of the step's, |R^S|^2 = sinh^2(pi (omega - k'))/sinh^2(pi (omega + k')) and |T^S|^2 = (omega/k') sinh(2 pi
    omega) sinh(2 pi k')/sinh^2(pi (omega + k')), with the flux |R|^2 + (k'/omega)|T|^2 and a partner's |R|^2 less
    the step's (None for the step): the ``scatter`` table's columns, numbers or case columns, from one check of
    (omega, m).  Each is rearranged into exponential differences (``_closed_form_parts``), so no intermediate ever
    overflows (plain sinh would at omega ~ 113) or cancels.  A kind that is none of the three is a ``DomainError``.
    """
    _check_kinds((kind,))
    omega, m, kprime = _check_scattering_regime(omega, _coupling(m))
    b, c, r = _closed_form_parts(omega, m, kprime, math.pi)
    if kind is PotentialKind.STEP:  # (omega/k') expm1(-4 pi omega) expm1(-4 pi k')/expm1(-2 pi (omega + k'))^2
        r2, t2 = r * r, (omega / kprime) * np.expm1(-4.0 * math.pi * omega) * np.expm1(-4.0 * b) / np.square(np.expm1(-2.0 * c))
    else:  # 2 cosh(2 pi w) sinh(2 pi k')/sinh(2 pi (w + k')): exponents cancel exactly, leaving expm1 factors only
        b, c, r2 = _closed_form_parts(omega, m, kprime, 2.0 * math.pi)
        t2 = (omega / kprime) * (1.0 + np.exp(-2.0 * c + 2.0 * b)) * (-np.expm1(-2.0 * b)) / (-np.expm1(-2.0 * c))
    excess = None if kind is PotentialKind.STEP else _per_case(omega, r2 - r * r)[0]
    return (*_per_case(omega, r2, t2, r2 + kprime / omega * t2), excess)


def coefficients_closed_form(omega, m):
    """(|R|^2, |T|^2) of the partners' closed forms, as :func:`closed_form_columns` gives them."""
    return closed_form_columns(PotentialKind.PLUS, omega, m)[:2]


def susy_relation_check(plus: ScatteringResult, minus: ScatteringResult):
    """Partnership identities of the V+ and V- results of one case or case column, as
    ``reflection_transmission((PLUS, MINUS), omega, m)`` returns them: (R+ + R-, T+ - (i k/(m + i k')) T-),
    which the closed amplitudes satisfy identically (k = omega, k' = sqrt(omega^2 - m^2)).  From that call
    R+ + R- is 0.0 by construction (R- is -R+), so only the T relation can fail.  Any other pair (wrong
    kinds, or a different omega or m) is a ``DomainError``; a case gives Python numbers, a column arrays."""
    if not (isinstance(plus, ScatteringResult) and isinstance(minus, ScatteringResult)
            and (plus.kind, minus.kind) == (PotentialKind.PLUS, PotentialKind.MINUS)
            and np.array_equal(plus.omega, minus.omega) and np.array_equal(plus.m, minus.m)):
        raise DomainError("susy_relation_check takes a V+ and a V- result at one (omega, m)")
    omega, kprime = np.atleast_1d(plus.omega), np.atleast_1d(plus.kprime)  # numpy arithmetic for a case too
    factor = 1j * omega / (plus.m + 1j * kprime)
    return _per_case(plus.omega, np.add(plus.R, minus.R), plus.T - factor * minus.T)


def step_amplitudes(omega, m) -> ScatteringResult:
    """The smooth step's amplitudes, ``reflection_transmission(PotentialKind.STEP, omega, m)``."""
    return reflection_transmission(PotentialKind.STEP, omega, m)


def step_reflection_closed_form(omega, m):
    """|R^S|^2 of the step's closed form, as :func:`closed_form_columns` gives it."""
    return closed_form_columns(PotentialKind.STEP, omega, m)[0]


def qnm(kind: PotentialKind, n: int, m: float) -> complex:
    """Closed-form quasinormal frequency of overtone n:

        step:    omega = -(i/2) (n + 1 - m^2/(n+1))
        partner: omega = -(i/4) (n + 1 - 4 m^2/(n+1))

    Reported verbatim, including the low overtones with non-negative
    imaginary part; no stability filtering is applied.  A bool n or m, or
    an m whose square overflows, is a DomainError.
    """
    if not (finite_real(n) and isinstance(n, numbers.Integral) and n >= 0):
        raise DomainError(f"overtone index must be an integer >= 0 within the double range, got {n!r}")
    m = float(PotentialSpec.plus(m).m)  # its rule: m > 0 with m^2 finite
    _check_kinds((kind,))
    if kind is PotentialKind.STEP:
        return -0.5j * (n + 1.0 - m * m / (n + 1.0))
    return -0.25j * (n + 1.0 - 4.0 * m * m / (n + 1.0))


def inverse_transmission_magnitude(kind: PotentialKind, omega, m: float):
    """|1/T| for a partner potential at complex omega, a number (giving a float) or a 1-d column (an array equal to
    its number calls bit for bit), via the Legendre-duplication rewrite of the transmission amplitude

        T = pref * sqrt(pi) 2^(2iw + 2ik') G(1 - 2iw - 2ik') / (G(1/2 - 2iw) G(1 - 2ik'))

    which stays evaluable where c1 is an integer.  Where the numerator Gamma has a pole |1/T| is 0.0 (the signal that
    locates quasinormal frequencies), where pref is 0 inf; the rest take one Gamma pass.  A denominator pole raises
    GammaPoleError naming the first such omega; an omega that is not finite, 1-d and real or complex, or an m not a
    real 0 < m < inf with m^2 finite (a bool is neither), DomainError, all before any Gamma pass.  So does an omega
    where |omega| + |B| reaches 1e6, past which the Gamma arguments' rounding exceeds the pole tolerance, or one
    where 2^(2iw + 2ik') overflows (for a real omega, from m ~ 512 up, where |1/T| is below about 1e-300).
    """
    _check_kinds((kind,), (PotentialKind.PLUS, PotentialKind.MINUS))
    m, column = float(PotentialSpec.plus(m).m), np.asarray(omega)
    if column.dtype.kind not in "iufc" or column.ndim > 1 or not np.isfinite(column).all():
        raise DomainError(f"omega must be a finite number or a 1-d column of them, got omega = {omega}")
    w = np.atleast_1d(column).astype(complex)
    B = b_exponent(w, m)
    kprime = -1j * B
    # G(1/2 - 2iw), G(1 - 2ik') and the numerator G(1 - 2iw - 2ik')
    args = np.stack([0.5 - 2j * w, 1.0 - 2j * kprime, 1.0 - 2j * w - 2j * kprime])
    poles = near_pole(args)
    pref = 1.0 + (1.0 if kind is PotentialKind.PLUS else -1.0) * (1j * w - B) / m
    out = np.where(poles[2], 0.0, math.inf)
    live = ~poles[2] & (pref != 0.0)
    exponent = (2j * w + 2j * kprime) * _LOG_2  # of 2^(2iw + 2ik') = e^exponent
    # the arguments' rounding, about 4 (|w| + |B|) eps, must stay below POLE_TOL, and e^exponent finite where used
    if (bad := ~(np.abs(w) + np.abs(B) < 1e6) | live & ~(exponent.real < 709.78)).any():
        raise DomainError(f"|1/T| at omega = {w[bad][0]} is past its Gamma arguments' pole tolerance or 2^(2iw + 2ik') overflows")
    if (stuck := live & poles[:2].any(axis=0)).any():
        raise GammaPoleError(f"a denominator Gamma of T has a pole at omega = {w[stuck][0]}")
    if live.any():
        ratio = gamma_ratio(list(args[:2, live]), [args[2, live]])  # its poles are ruled out above
        inv_t = ratio / (pref[live] * _SQRT_PI * np.exp(exponent[live]))
        out[live] = np.hypot(inv_t.real, inv_t.imag)
    return _per_case(column, out)[0]


def qnm_pole_check(kind: PotentialKind, n: int, m: float) -> float:
    """|1/T| at the closed-form quasinormal frequency, which places the transmission numerator Gamma
    at a non-positive integer: 0.0 up to the pole tolerance (a perturbed frequency gives far more)."""
    return inverse_transmission_magnitude(kind, qnm(kind, n, m), m)
