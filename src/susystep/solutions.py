"""Exact wavefunctions of the partner potentials.

The construction: map x to z = e^x/(e^x+1), peel off power factors
z^C (1-z)^B with exponents solving the indicial equations, and the
remainder satisfies the Gauss hypergeometric equation.  Each linearly
independent solution Z_+/-^I, Z_+/-^II is a fixed linear combination of two
hypergeometric terms whose coefficients are locked to each other by the
coupled first-order system.

Power factors are evaluated from log z and log(1-z) computed directly from
x (never via the subtraction 1 - z), so the closed forms stay accurate all
the way into the asymptotic regions.
"""

from __future__ import annotations

import cmath
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .errors import DegenerateCError, DomainError, ZeroFrequencyError, finite_real, real_array
from .potentials import PotentialKind, superpotential

__all__ = [
    "SolutionParams", "WaveField", "x_to_z", "b_exponent", "make_exponents", "exact_solution", "exact_solution_at_z",
    "rotated_component", "coupled_residual", "wave_equation_residual", "wronskian", "sample_wavefield"
]

_QUARTER_TURN = cmath.exp(-0.25j * cmath.pi)
# A rounded stencil offset (x + k h) - x may miss k h by this fraction of h.
_STENCIL_SLIP = 1e-6


def x_to_z(x):
    """z = e^x / (e^x + 1), the map onto (0, 1); overflow-safe.  x is a
    real number (a float is returned) or array (an array of its shape).

    In floating point the value saturates to exactly 0.0 or 1.0 once |x|
    exceeds ~37 (x = +-inf gives that limit, a NaN ``DomainError``); the
    solution evaluators below avoid that loss by working with log z and
    log(1-z) directly.
    """
    z = _logs_from_x(real_array(x, "x"))[0]
    if np.isnan(z).any():
        raise DomainError("x = nan has no z")
    return z if np.ndim(z) else float(z)


def _logs_from_x(x):
    """(z, log z, log u) columns, u = 1 - z, of a float array of x, all at
    full relative accuracy."""
    e = np.exp(-np.abs(x))  # e^-x for x >= 0, e^x below
    log_near = -np.log1p(e)  # log z for x >= 0, log u below
    right = x >= 0.0
    z = np.where(right, 1.0, e) / (1.0 + e)
    return z, np.where(right, log_near, log_near + x), np.where(right, log_near - x, log_near)


def _unit_column(z):
    """(is z a 1-d array, z as a 1-d float array); ``DomainError`` unless z
    is a real number or 1-d array with every element in (0, 1)."""
    z = real_array(z, "z")
    if z.ndim > 1:
        raise DomainError(f"z must be a float or a 1-d array, got shape {z.shape}")
    outside = z[~((z > 0.0) & (z < 1.0))]
    if outside.size:
        raise DomainError(f"z = {outside[0]} outside (0, 1)")
    return z.ndim == 1, np.atleast_1d(z)


def _logs_from_z(z):
    """(z, log z, log u) columns of a float array of z in (0, 1)."""
    return z, np.log(z), np.log1p(-z)


def _x_grid(grid, min_points=0):
    """``grid`` as a float array, checked to be a real, 1-d, finite, strictly
    increasing x grid of at least ``min_points`` points."""
    xs = real_array(grid, "x")
    if xs.ndim != 1:
        raise DomainError(f"the x grid must be 1-d, got shape {xs.shape}")
    if xs.size < min_points:
        raise DomainError(f"the x grid needs at least {min_points} points")
    bad = xs[~np.isfinite(xs)]
    if bad.size:
        raise DomainError(f"x = {bad[0]} is not finite")
    if not np.all(np.diff(xs) > 0):
        raise DomainError("the x grid must be strictly increasing")
    return xs


def b_exponent(omega, m: float):
    """The branch of B = sqrt(m^2 - omega^2) used throughout, elementwise
    over a number or an array of omega (a numpy scalar or array).

    Real omega > m: +i sqrt(omega^2 - m^2), so the first connection term
    carries e^(-i sqrt(omega^2-m^2) x) as x -> +infinity.  Real omega < m:
    the positive real root (solution decaying to the right).  Complex
    omega: the root with positive imaginary part, continuous from the
    omega > m case; when the root is real (omega on the imaginary axis)
    the tie is broken toward positive real part.
    """
    r = np.sqrt(m * m - omega * omega + 0j)
    return np.where(r.imag < -1e-14 * np.abs(r), -r, r)[()]  # a (near-)real root keeps the principal Re >= 0


@dataclass(frozen=True)
class SolutionParams:
    """Everything that (omega, m) fixes in the exact solutions.

    Exponents: B1 = sqrt(m^2 - omega^2) (branch per ``b_exponent``) solves
    B^2 + omega^2 - m^2 = 0; C1 = i omega and C2 = C1 + 1/2 solve
    C^2 - C/2 + i omega eps/2 + omega^2 = 0 with eps = +1, -1.  Gauss
    parameters: a1 = C1 + B1 + 1/2, b1 = C1 + B1, c1 = 2 C1 + 1/2, and
    a2 = b1 + 1, b2 = a1, c2 = c1 + 1.  The coupled system fixes the
    second-component constants of the unit normalization G1 = H1 = 1:
    G2 = i (a1 - c1) b1 / (m c1), H2 = i (1 - c1) / m.  Any other
    normalization is a constant multiple of it.
    """

    omega: complex
    m: float
    B1: complex
    C1: complex
    C2: complex
    a1: complex
    b1: complex
    c1: complex
    a2: complex
    b2: complex
    c2: complex
    G2: complex
    H2: complex


@dataclass(frozen=True)
class WaveField:
    """A finite complex wavefunction on a real, finite, strictly increasing 1-d
    x grid (``DomainError`` otherwise); ``m`` is the coupling it solves (sqrt(V0) for the step)."""

    grid: np.ndarray
    values: np.ndarray
    omega: complex
    m: float
    kind: PotentialKind
    branch: str | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        grid, values = _x_grid(self.grid), np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if values.shape != grid.shape:
            raise DomainError("grid and values must be 1-d arrays of equal length")
        if not np.all(np.isfinite(values.view(float))):
            raise DomainError("wavefunction values must be finite")


def make_exponents(omega, m: float) -> SolutionParams:
    """The :class:`SolutionParams` record of (omega, m).

    ``omega`` is a number, giving ``complex`` fields, or a 1-d array,
    giving a record whose fields are columns (``m`` stays a float).  A
    number is the one-element case of one checked numpy pass, so a column
    record equals the one-omega records bit for bit.

    Raises
    ------
    DomainError
        For an omega that is not a number or a 1-d array, a non-finite
        omega, or an m that is not a real, finite number other than 0
        (a bool is not one).
    ZeroFrequencyError
        For omega = 0, where the first-order factorization that couples
        Z+ and Z- breaks down.  A column with a zero element raises this
        before ``DegenerateCError``, whatever the element order.
    DegenerateCError
        When c1 = 2 i omega + 1/2 is within tolerance of an integer and
        the second power-series solution would pick up logarithms.
    """
    column, omega = np.ndim(omega) > 0, np.atleast_1d(omega)
    if omega.ndim > 1 or omega.dtype.kind not in "iufc":
        raise DomainError(f"omega must be a number or a 1-d array, got omega = {omega}")
    if not (finite_real(m) and m != 0 and np.isfinite(omega).all()):
        raise DomainError(f"solutions require finite omega and a real, finite m != 0, got omega = {omega}, m = {m}")
    omega, m = omega.astype(complex), float(m)
    if (abs(omega) < 1e-12).any():
        raise ZeroFrequencyError("solutions require omega != 0")
    C1 = 1j * omega
    c1 = 2.0 * C1 + 0.5
    degenerate = c1[abs(c1 - c1.real.round()) < specfun.POLE_TOL]
    if degenerate.size:
        raise DegenerateCError(f"c1 = {degenerate[0]} is within tolerance of an integer")
    B1 = b_exponent(omega, m)
    a1 = C1 + B1 + 0.5
    b1 = C1 + B1
    fields = dict(omega=omega, B1=B1, C1=C1, C2=C1 + 0.5, a1=a1, b1=b1, c1=c1, a2=b1 + 1.0, b2=a1, c2=c1 + 1.0,
                  G2=1j * (a1 - c1) * b1 / (m * c1), H2=1j * (1.0 - c1) / m)
    return SolutionParams(m=m, **{name: v if column else complex(v[0]) for name, v in fields.items()})


def _one_omega(omega, m) -> SolutionParams:
    """``make_exponents(omega, m)`` for the functions that evaluate one
    wavefunction, which take one omega: an omega array raises
    ``DomainError`` naming its shape."""
    if not isinstance(omega, numbers.Number) and np.ndim(omega):
        raise DomainError(f"omega must be a number here, got an array of shape {np.shape(omega)}; "
                          "make_exponents takes omega columns")
    return make_exponents(omega, m)


def _rotated(j, branches, p, z, log_z, log_u):
    """Rotated components (R-tilde)_j of a tuple of solution branches at
    every point of the (z, log z, log u) column arrays, a row per branch,
    from one ``hyp2f1`` call with a parameter set per branch."""
    C, a, b, c = (p.C1, p.a1, p.b1, p.c1) if j == 1 else (p.C2, p.a2, p.b2, p.c2)
    sets = {"I": (1.0 if j == 1 else p.G2, C, a, b, c),  # (scale, power, a, b, c)
            "II": (1.0 if j == 1 else p.H2, C + 1.0 - c, a - c + 1.0, b - c + 1.0, 2.0 - c)}
    if not branches or not all(isinstance(branch, str) and branch in sets for branch in branches):
        raise DomainError(f"branches must each be 'I' or 'II', got {branches!r}")
    scale, power, a, b, c = np.array([sets[branch] for branch in branches], dtype=complex).T
    f = specfun.hyp2f1(a, b, c, z, log_u)
    with np.errstate(over="ignore", invalid="ignore"):
        factor = np.exp(power[:, None] * log_z + p.B1 * log_u)
    if not np.isfinite(factor).all():
        i = np.argmin(np.isfinite(factor).all(axis=0))
        raise DomainError(f"the power factor z^C (1-z)^B overflows at x = {log_z[i] - log_u[i]}, omega = {p.omega}")
    # a product of its own: numpy's in-place ``x * temporary`` rounds apart
    return np.multiply(scale[:, None] * factor, f, out=factor)


def _signs(sign, many=False):
    """``sign``, +1 or -1 (where ``many``, also a 1-d array of them), as a column against z columns."""
    signs = real_array(sign, "sign")
    if signs.ndim > many or not signs.size or not (np.abs(signs) == 1).all():
        raise DomainError(f"sign must be +1 or -1{', or a 1-d array of them' if many else ''}, got {sign!r}")
    return signs[..., None]


def _solution_from_logs(branches, signs, p, z, log_z, log_u):
    """Z_sign^branch at every point of the column arrays, a row per branch
    of the ``branches`` tuple, each with a row per row of the ``_signs``
    column: the R-tilde columns are evaluated once for all."""
    shape = (len(branches),) + (1,) * (signs.ndim - 1) + (-1,)
    r1, r2 = (_rotated(j, branches, p, z, log_z, log_u).reshape(shape) for j in (1, 2))
    return np.multiply(_QUARTER_TURN, r1 + signs * 1j * r2)


def exact_solution(branch, sign, omega, m, x) -> complex:
    """Closed-form wavefunction Z_sign^branch at position x.

    Parameters
    ----------
    branch : "I" or "II"
        Which linearly independent solution.
    sign : +1 or -1
        Partner choice: +1 for the V+ equation, -1 for V-.
    omega, m : complex, float
        Frequency (E = omega^2) and coupling.

    The normalization is the unit one, G1 = H1 = 1 (see
    :class:`SolutionParams`).  Evaluation is stable for any finite x; the
    hypergeometric argument and all power factors come from log-space
    forms of z(x).  A non-finite x, omega or m raises ``DomainError``, and
    so do a complex x or m and an x where the power factor overflows
    (complex omega, |x| in the hundreds).
    """
    p = _one_omega(omega, m)
    return complex(_solution_from_logs((branch,), _signs(sign), p, *_logs_from_x(_x_grid([x])))[0, 0])


def exact_solution_at_z(branch, sign, omega, m, z) -> complex:
    """Same as :func:`exact_solution` but parametrized by z in (0, 1)."""
    p = _one_omega(omega, m)
    return complex(_solution_from_logs((branch,), _signs(sign), p, *_logs_from_z(_unit_column([z])[1]))[0, 0])


def rotated_component(j, branch, omega, m, z) -> complex:
    """Rotated component (R-tilde)_j (j = 1, 2) of a solution branch at z.

    These are the functions in which the first-order system decouples;
    Z+/- = e^(-i pi/4) ((R-tilde)_1 +/- i (R-tilde)_2).
    """
    if j not in (1, 2):
        raise DomainError(f"component index must be 1 or 2, got {j!r}")
    p = _one_omega(omega, m)
    return complex(_rotated(j, (branch,), p, *_logs_from_z(_unit_column([z])[1]))[0, 0])


def _stencil(x, h):
    """The points x + k h, k = -2..2, of ``_five_point``, five per element
    of x in a flat array, h a number or of x's shape.  ``DomainError`` where
    the stencil collapses: unless h^2, which ``_five_point`` divides by, is
    a normal double and every rounded offset (x + k h) - x is within
    ``_STENCIL_SLIP`` h of k h."""
    x = np.asarray(x, dtype=float)[..., None]
    h = np.asarray(h, dtype=float)[..., None]
    offsets = np.arange(-2, 3) * h
    points = x + offsets
    collapsed = ~(h * h >= np.finfo(float).tiny) | (np.abs((points - x) - offsets) > _STENCIL_SLIP * h)
    if collapsed.any():
        step = np.broadcast_to(h, collapsed.shape)[collapsed][0]
        raise DomainError(f"the five-point stencil of step h = {step} collapses in double precision")
    return points.reshape(-1)


def _five_point(samples, h):
    """(f(x), f'(x), f''(x)) by five-point central differences of step h
    from the samples of f at ``_stencil(x, h)``, five per x along the
    trailing axis."""
    fm2, fm1, f0, fp1, fp2 = np.moveaxis(samples.reshape(*samples.shape[:-1], -1, 5), -1, 0)
    d1 = (fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * h)
    d2 = (-fm2 + 16 * fm1 - 30 * f0 + 16 * fp1 - fp2) / (12 * h * h)
    return f0, d1, d2


def coupled_residual(omega, m, x_grid, branch="I") -> float:
    """Largest scaled residual of the coupled first-order system

        (d/dx - W) Z+ = i omega Z-,      (d/dx + W) Z- = i omega Z+

    over ``x_grid``, with Z+/- reconstructed from the rotated components
    and d/dx taken by five-point central differences with step equal to
    half the smallest grid spacing.  Requires a finite, strictly increasing
    grid of at least 3 points; all stencil points are evaluated in one
    ``hyp2f1`` call per component.
    """
    xs = _x_grid(x_grid, 3)
    p = _one_omega(omega, m)
    h = 0.5 * float(np.min(np.diff(xs)))
    points = _logs_from_x(_stencil(xs, h))
    (zp, zm), (dzp, dzm), _ = _five_point(_solution_from_logs((branch,), np.array([[1], [-1]]), p, *points)[0], h)
    w = superpotential(xs, m)
    iw = 1j * complex(omega)
    res = np.maximum(np.abs(dzp - w * zp - iw * zm), np.abs(dzm + w * zm - iw * zp))
    scale = (1.0 + abs(iw) + np.abs(w)) * (np.abs(zp) + np.abs(zm))
    return float(np.max(res / scale))


def wave_equation_residual(branch, sign, omega, m, z):
    """Scaled residual of the wave equation in z for Z_sign^branch,

        d/dz[z(1-z) Z'] + q(z) Z = 0,
        q = (omega^2 - m^2)/(1-z) + omega^2/z + sign m/(2 sqrt z),

    at z in (0, 1), with five-point derivatives of step
    0.01 z(1-z) / max(1, |omega|), which follows the wave's oscillation as
    omega grows.  A 1-d array of z (every element checked first) or of
    signs gives the number calls' values, a row per sign, and a tuple of
    branches, such as ("I", "II"), a row per branch ahead of those; all
    branches and signs share one ``hyp2f1`` call per R-tilde component.
    """
    column, z = _unit_column(z)
    branches, signs, p = branch if isinstance(branch, tuple) else (branch,), _signs(sign, many=True), _one_omega(omega, m)
    h = 0.01 * z * (1.0 - z) / max(1.0, abs(p.omega))
    points = _logs_from_z(_stencil(z, h))
    f0, d1, d2 = _five_point(_solution_from_logs(branches, signs, p, *points), h)
    q = (omega * omega - m * m) / (1 - z) + omega * omega / z + signs * m / (2.0 * np.sqrt(z))
    res = (1 - 2 * z) * d1 + z * (1 - z) * d2 + q * f0
    scale = np.abs(q * f0) + np.abs((1 - 2 * z) * d1) + np.abs(z * (1 - z) * d2)
    residual = np.abs(res) / scale
    residual = residual if isinstance(branch, tuple) else residual[0]
    return residual if column else residual[..., 0] if residual.ndim > 1 else float(residual[0])


def wronskian(sign, omega, m, z):
    """Flux-form Wronskian z(1-z) (Z^I dZ^II/dz - Z^II dZ^I/dz) at z.

    The z(1-z) weight is the self-adjoint coefficient of the transformed
    wave equation (equivalently, this is the plain x-Wronskian), so the
    value is z-independent:  +/- (2 omega / m)(1 - c1) for the unit
    normalization G1 = H1 = 1 of every solution here.

    The derivatives are evaluated numerically (five-point stencil) so the
    constancy check is independent of the algebra that predicts it.  A 1-d
    array of z (every element checked first) or of signs gives the number
    calls' values, a row per sign.  Z^I and Z^II, with all signs, share
    one ``hyp2f1`` call per R-tilde component.
    """
    column, z = _unit_column(z)
    h = 1e-3 * np.minimum(np.minimum(z, 1.0 - z), 0.5)
    points = _logs_from_z(_stencil(z, h))
    signs, p = _signs(sign, many=True), _one_omega(omega, m)
    (zi, zii), (di, dii), _ = _five_point(_solution_from_logs(("I", "II"), signs, p, *points), h)
    value = z * (1.0 - z) * (zi * dii - zii * di)
    return value if column else value[..., 0] if value.ndim > 1 else complex(value[0])


def sample_wavefield(branch, sign, omega, m, grid) -> WaveField:
    """Sample an exact solution on an x grid into a :class:`WaveField`.

    The grid must be 1-d, finite and strictly increasing (``DomainError``
    otherwise, before any point is evaluated); the whole grid takes one
    ``hyp2f1`` call per component.
    """
    xs = _x_grid(grid)
    p = _one_omega(omega, m)
    values = _solution_from_logs((branch,), _signs(sign), p, *_logs_from_x(xs))[0]
    kind = PotentialKind.PLUS if sign == 1 else PotentialKind.MINUS
    return WaveField(grid=xs, values=values, omega=omega, m=float(m), kind=kind, branch=branch)
