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
import math
from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .errors import DegenerateCError, DomainError, ZeroFrequencyError
from .potentials import PotentialKind, superpotential

__all__ = [
    "SolutionParams",
    "WaveField",
    "x_to_z",
    "z_to_x",
    "b_exponent",
    "make_exponents",
    "exact_solution",
    "exact_solution_at_z",
    "rotated_component",
    "coupled_residual",
    "wave_equation_residual",
    "wronskian",
    "sample_wavefield",
]

_QUARTER_TURN = cmath.exp(-0.25j * cmath.pi)


def x_to_z(x: float) -> float:
    """z = e^x / (e^x + 1), the map onto (0, 1); overflow-safe.

    In floating point the value saturates to exactly 0.0 or 1.0 once
    |x| exceeds ~37; the solution evaluators below avoid that loss by
    working with log z and log(1-z) directly.
    """
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def z_to_x(z: float) -> float:
    """Inverse map x = ln(z / (1 - z)) for z in (0, 1)."""
    if not 0.0 < z < 1.0:
        raise DomainError(f"z = {z} outside (0, 1)")
    return math.log(z) - math.log1p(-z)


def _logs_from_x(x: float):
    """(z, u, log z, log u) with u = 1 - z, all at full relative accuracy."""
    if x >= 0.0:
        t = math.exp(-x)
        log_z = -math.log1p(t)
        return 1.0 / (1.0 + t), t / (1.0 + t), log_z, log_z - x
    s = math.exp(x)
    log_u = -math.log1p(s)
    return s / (1.0 + s), 1.0 / (1.0 + s), log_u + x, log_u


def _logs_from_z(z: float):
    if not 0.0 < z < 1.0:
        raise DomainError(f"z = {z} outside (0, 1)")
    return z, 1.0 - z, math.log(z), math.log1p(-z)


def _columns(points):
    """The (z, u, log z, log u) columns, as float arrays, of an iterable of
    per-point ``_logs_from_x``/``_logs_from_z`` tuples."""
    return np.array(list(points), dtype=float).reshape(-1, 4).T


def _x_grid(grid, min_points=0):
    """``grid`` as a float array, checked to be a 1-d, finite, strictly
    increasing x grid of at least ``min_points`` points."""
    xs = np.asarray(grid, dtype=float)
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


def b_exponent(omega: complex, m: float) -> complex:
    """The branch of B = sqrt(m^2 - omega^2) used throughout.

    Real omega > m: +i sqrt(omega^2 - m^2), so the first connection term
    carries e^(-i sqrt(omega^2-m^2) x) as x -> +infinity.  Real omega < m:
    the positive real root (solution decaying to the right).  Complex
    omega: the root with positive imaginary part, continuous from the
    omega > m case; when the root is real (omega on the imaginary axis)
    the tie is broken toward positive real part.
    """
    r = cmath.sqrt(m * m - omega * omega + 0.0j)
    if abs(r.imag) <= 1e-14 * abs(r):
        return r  # real root: principal sqrt already has Re >= 0
    return r if r.imag > 0 else -r


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

    def indicial_residuals(self) -> float:
        """Largest residual of the defining algebraic equations (over every
        element of a record of columns)."""
        residuals = [abs(self.B1 * self.B1 + self.omega**2 - self.m**2)]
        for C, eps in ((self.C1, 1), (self.C2, -1)):
            residuals.append(abs(C * C - 0.5 * C + 0.5j * self.omega * eps + self.omega**2))
        return float(np.max(residuals))


@dataclass(frozen=True)
class WaveField:
    """A complex wavefunction sampled on a strictly increasing x grid;
    ``m`` is the coupling it solves (sqrt(V0) for the step)."""

    grid: np.ndarray
    values: np.ndarray
    omega: complex
    m: float
    kind: PotentialKind
    branch: str | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or grid.size != values.size:
            raise DomainError("grid and values must be 1-d arrays of equal length")
        if grid.size >= 2 and not np.all(np.diff(grid) > 0):
            raise DomainError("grid must be strictly increasing")
        if not np.all(np.isfinite(values.view(float))):
            raise DomainError("wavefunction values must be finite")


def make_exponents(omega, m: float) -> SolutionParams:
    """The :class:`SolutionParams` record of (omega, m).

    ``omega`` is a number or a 1-d array; an array gives a record whose
    fields are columns (``m`` stays a float), each element equal to the
    field of the one-omega record (G2 and H2 to rounding: numpy divides
    complex numbers differently).

    Raises
    ------
    ZeroFrequencyError
        For omega = 0, where the first-order factorization that couples
        Z+ and Z- breaks down.
    DegenerateCError
        When c1 = 2 i omega + 1/2 is within tolerance of an integer and
        the second power-series solution would pick up logarithms.
    """
    column = np.ndim(omega) > 0
    omega, m = (np.asarray(omega, dtype=complex) if column else complex(omega)), float(m)
    C1 = 1j * omega
    C2 = C1 + 0.5
    c1 = 2.0 * C1 + 0.5
    if column:
        if omega.ndim != 1:
            raise DomainError(f"omega must be a number or a 1-d array, got shape {omega.shape}")
        omegas = omega.tolist()
        for w, c in zip(omegas, c1.tolist()):
            _check_frequency(w, m, c)
        B1 = np.array([b_exponent(w, m) for w in omegas], dtype=complex)
    else:
        _check_frequency(omega, m, c1)
        B1 = b_exponent(omega, m)
    a1 = C1 + B1 + 0.5
    b1 = C1 + B1
    return SolutionParams(
        omega=omega, m=m, B1=B1, C1=C1, C2=C2, a1=a1, b1=b1, c1=c1,
        a2=b1 + 1.0, b2=a1, c2=c1 + 1.0, G2=1j * (a1 - c1) * b1 / (m * c1), H2=1j * (1.0 - c1) / m,
    )


def _check_frequency(omega: complex, m: float, c1: complex):
    """``make_exponents``' checks of one omega and its c1."""
    if abs(omega) < 1e-12:
        raise ZeroFrequencyError("solutions require omega != 0")
    if m == 0:
        raise DomainError("solutions require m != 0")
    if abs(c1 - round(c1.real)) < specfun.POLE_TOL:
        raise DegenerateCError(f"c1 = {c1} is within tolerance of an integer")


def _rotated(j, branch, p, z, u, log_z, log_u):
    """Rotated component (R-tilde)_j of the requested solution branch at
    every point of the (z, u, log z, log u) column arrays, as a list; the
    2F1 factor takes one ``hyp2f1`` call for all of them."""
    C, a, b, c = (p.C1, p.a1, p.b1, p.c1) if j == 1 else (p.C2, p.a2, p.b2, p.c2)
    if branch == "I":
        scale, power = (1.0 if j == 1 else p.G2), C
        f = specfun.hyp2f1(a, b, c, z, u, log_u)
    elif branch == "II":
        scale, power = (1.0 if j == 1 else p.H2), C + 1.0 - c
        f = specfun.hyp2f1(a - c + 1.0, b - c + 1.0, 2.0 - c, z, u, log_u)
    else:
        raise DomainError(f"branch must be 'I' or 'II', got {branch!r}")
    values = []
    for lz, lu, fi in zip(log_z.tolist(), log_u.tolist(), f.tolist()):
        try:
            values.append(scale * cmath.exp(power * lz + p.B1 * lu) * fi)
        except OverflowError:
            raise DomainError(f"the power factor z^C (1-z)^B overflows at x = {lz - lu}, omega = {p.omega}") from None
    return values


def _solution_from_logs(branch, sign, p, z, u, log_z, log_u):
    """Z_sign^branch at every point of the column arrays, as a list."""
    if sign not in (1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign!r}")
    r1 = _rotated(1, branch, p, z, u, log_z, log_u)
    r2 = _rotated(2, branch, p, z, u, log_z, log_u)
    return [_QUARTER_TURN * (v1 + sign * 1j * v2) for v1, v2 in zip(r1, r2)]


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
    forms of z(x).  A non-finite x raises ``DomainError``, and so does an
    x where the power factor overflows (complex omega, |x| in the
    hundreds).
    """
    p = make_exponents(omega, m)
    return _solution_from_logs(branch, sign, p, *_columns(map(_logs_from_x, _x_grid([float(x)]).tolist())))[0]


def exact_solution_at_z(branch, sign, omega, m, z) -> complex:
    """Same as :func:`exact_solution` but parametrized by z in (0, 1)."""
    p = make_exponents(omega, m)
    return _solution_from_logs(branch, sign, p, *_columns([_logs_from_z(float(z))]))[0]


def rotated_component(j, branch, omega, m, z) -> complex:
    """Rotated component (R-tilde)_j (j = 1, 2) of a solution branch at z.

    These are the functions in which the first-order system decouples;
    Z+/- = e^(-i pi/4) ((R-tilde)_1 +/- i (R-tilde)_2).
    """
    if j not in (1, 2):
        raise DomainError(f"component index must be 1 or 2, got {j!r}")
    p = make_exponents(omega, m)
    return _rotated(j, branch, p, *_columns([_logs_from_z(float(z))]))[0]


def _stencil(x, h):
    """The five points x + k h, k = -2..2, of ``_five_point``."""
    return [x + k * h for k in (-2, -1, 0, 1, 2)]


def _five_point(samples, h):
    """(f(x), f'(x), f''(x)) by five-point central differences of step h
    from the samples of f at ``_stencil(x, h)``; a sample may be a numpy
    array, differentiated componentwise."""
    fm2, fm1, f0, fp1, fp2 = samples
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
    p = make_exponents(omega, m)
    h = 0.5 * float(np.min(np.diff(xs)))
    points = _columns(_logs_from_x(s) for x in xs.tolist() for s in _stencil(x, h))
    r1 = _rotated(1, branch, p, *points)
    r2 = _rotated(2, branch, p, *points)
    pairs = [_QUARTER_TURN * np.array([v1 + 1j * v2, v1 - 1j * v2]) for v1, v2 in zip(r1, r2)]

    worst = 0.0
    iw = 1j * complex(omega)
    for i, x in enumerate(xs):
        (zp, zm), (dzp, dzm), _ = _five_point(pairs[5 * i:5 * i + 5], h)
        w = float(superpotential(x, m))
        res1 = dzp - w * zp - iw * zm
        res2 = dzm + w * zm - iw * zp
        scale = (1.0 + abs(iw) + abs(w)) * (abs(zp) + abs(zm))
        worst = max(worst, max(abs(res1), abs(res2)) / scale)
    return float(worst)


def wave_equation_residual(branch, sign, omega, m, z) -> float:
    """Scaled residual of the wave equation in z for Z_sign^branch,

        d/dz[z(1-z) Z'] + q(z) Z = 0,
        q = (omega^2 - m^2)/(1-z) + omega^2/z + sign m/(2 sqrt z),

    at z in (0, 1), with five-point derivatives of step 0.01 z(1-z).
    """
    z = float(z)
    p = make_exponents(omega, m)
    h = 0.01 * z * (1.0 - z)
    points = _columns(_logs_from_z(zz) for zz in _stencil(z, h))
    f0, d1, d2 = _five_point(_solution_from_logs(branch, sign, p, *points), h)
    q = (omega * omega - m * m) / (1 - z) + omega * omega / z + sign * m / (2.0 * math.sqrt(z))
    res = (1 - 2 * z) * d1 + z * (1 - z) * d2 + q * f0
    scale = abs(q * f0) + abs((1 - 2 * z) * d1) + abs(z * (1 - z) * d2)
    return abs(res) / scale


def wronskian(sign, omega, m, z) -> complex:
    """Flux-form Wronskian z(1-z) (Z^I dZ^II/dz - Z^II dZ^I/dz) at z.

    The z(1-z) weight is the self-adjoint coefficient of the transformed
    wave equation (equivalently, this is the plain x-Wronskian), so the
    value is z-independent:  +/- (2 omega / m)(1 - c1) for the unit
    normalization G1 = H1 = 1 of every solution here.

    The derivatives are evaluated numerically (five-point stencil) so the
    constancy check is independent of the algebra that predicts it.
    """
    z = float(z)
    if not 0.0 < z < 1.0:
        raise DomainError(f"z = {z} outside (0, 1)")
    h = 1e-3 * min(z, 1.0 - z, 0.5)
    p = make_exponents(omega, m)
    points = _columns(_logs_from_z(zz) for zz in _stencil(z, h))
    zi, di, _ = _five_point(_solution_from_logs("I", sign, p, *points), h)
    zii, dii, _ = _five_point(_solution_from_logs("II", sign, p, *points), h)
    return z * (1.0 - z) * (zi * dii - zii * di)


def sample_wavefield(branch, sign, omega, m, grid) -> WaveField:
    """Sample an exact solution on an x grid into a :class:`WaveField`.

    The grid must be 1-d, finite and strictly increasing (``DomainError``
    otherwise, before any point is evaluated); the whole grid takes one
    ``hyp2f1`` call per component.
    """
    xs = _x_grid(grid)
    p = make_exponents(omega, m)
    vals = np.array(_solution_from_logs(branch, sign, p, *_columns(map(_logs_from_x, xs.tolist()))), dtype=complex)
    kind = PotentialKind.PLUS if sign == 1 else PotentialKind.MINUS
    return WaveField(grid=xs, values=vals, omega=omega, m=float(m), kind=kind, branch=branch)
