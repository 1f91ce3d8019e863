"""Exact wavefunctions of the partner potentials.

The construction: map x to z = e^x/(e^x+1), peel off power factors z^C (1-z)^B with exponents solving the
indicial equations, and the remainder satisfies the Gauss hypergeometric equation.  Each linearly independent
solution Z_+/-^I, Z_+/-^II is a fixed linear combination of two hypergeometric terms whose coefficients are
locked to each other by the coupled first-order system.  ``solution_checks`` gives the Wronskian and the
wave-equation residual in z from one evaluation of both solutions and their exact derivatives.

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
from .potentials import PotentialKind

__all__ = [
    "SolutionParams", "WaveField", "b_exponent", "make_exponents", "exact_solution", "exact_solution_at_z",
    "solution_checks", "sample_wavefield"
]

_QUARTER_TURN = cmath.exp(-0.25j * cmath.pi)


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


def _x_grid(grid):
    """``grid`` as a float array, checked to be a real, 1-d, finite, strictly increasing x grid."""
    xs = real_array(grid, "x")
    if xs.ndim != 1:
        raise DomainError(f"the x grid must be 1-d, got shape {xs.shape}")
    bad = xs[~np.isfinite(xs)]
    if bad.size:
        raise DomainError(f"x = {bad[0]} is not finite")
    if not (xs[1:] > xs[:-1]).all():
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
    the tie is broken toward positive real part.  A root past the double
    range raises ``DomainError`` naming the first such (omega, m), and so
    does a non-numeric omega or m, or an integer past the double range.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            r = np.sqrt(m * m - omega * omega + 0j)
    except (TypeError, OverflowError) as err:
        raise DomainError(f"B = sqrt(m^2 - omega^2) needs numbers within the double range ({err})") from err
    if not (finite := np.isfinite(r)).all():
        raise DomainError("B overflows at omega = {}, m = {}".format(*(v[~finite][0] for v in np.broadcast_arrays(omega, m))))
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


def make_exponents(omega, m) -> SolutionParams:
    """The :class:`SolutionParams` record of (omega, m).

    ``omega`` and ``m`` are numbers, giving ``complex`` fields (``m`` a
    float), or 1-d arrays of one length (a number stands for every element),
    a column of (omega, m) cases giving a record whose fields are columns
    (``m`` one only if given as one).  A number is the one-element case of
    one checked numpy pass, so a column record equals its one-case records
    bit for bit.

    Raises
    ------
    DomainError
        For an omega or m that is not a number or a 1-d array, columns of
        two lengths, a non-finite omega or record (omega^2 or m^2 overflows), or
        an m that is not real, finite and other than 0 (a bool is not real), in any case.
    ZeroFrequencyError
        For omega = 0, where the first-order factorization that couples
        Z+ and Z- breaks down.  A column with a zero element raises this
        before ``DegenerateCError``, whatever the element order.
    DegenerateCError
        When c1 = 2 i omega + 1/2 is within tolerance of an integer and
        the second power-series solution would pick up logarithms.
    """
    columns = np.ndim(omega) > 0, not isinstance(m, numbers.Number) and np.ndim(m) > 0
    omega, ms = np.atleast_1d(omega), real_array(m, "m") if columns[1] else m
    if omega.ndim > 1 or omega.dtype.kind not in "iufc":
        raise DomainError(f"omega must be a number or a 1-d array, got omega = {omega}")
    valid = ms.ndim == 1 and np.isfinite(ms).all() and (ms != 0).all() if columns[1] else finite_real(m) and m != 0
    if not (valid and np.isfinite(omega).all()):
        raise DomainError(f"solutions require finite omega and a real, finite m != 0, got omega = {omega}, m = {m}")
    if all(columns) and omega.shape != ms.shape:
        raise DomainError(f"omega and m columns must have one length, got {omega.size} and {ms.size}")
    omega, m = (np.broadcast_to(omega, ms.shape) if columns[1] else omega).astype(complex), ms if columns[1] else float(m)
    if (abs(omega) < 1e-12).any():
        raise ZeroFrequencyError("solutions require omega != 0")
    with np.errstate(over="ignore", invalid="ignore"):  # a record that overflows raises below
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
    if (overflow := ~np.isfinite(np.stack(list(fields.values()))).all(axis=0)).any():  # name the first such case
        raise DomainError(f"omega = {omega[overflow][0]}, m = {np.broadcast_to(m, omega.shape)[overflow][0]}: the record overflows")
    column = any(columns)
    return SolutionParams(m=m, **{name: v if column else complex(v[0]) for name, v in fields.items()})


def _one_omega(omega, m) -> SolutionParams:
    """``make_exponents(omega, m)`` for the functions that evaluate one
    wavefunction, which take one (omega, m) case: an omega or m array
    raises ``DomainError`` naming its shape."""
    for name, value in (("omega", omega), ("m", m)):
        if not isinstance(value, numbers.Number) and np.ndim(value):
            raise DomainError(f"{name} must be a number here, got an array of shape {np.shape(value)}; "
                              "make_exponents and solution_checks take (omega, m) columns")
    return make_exponents(omega, m)


def _rotated(j, branches, p, z, log_z, log_u, order=0):
    """(R-tilde)_j of a tuple of solution branches for each case of ``p`` (a number
    record is one) at the 1-d (z, log z, log u) points, with its first ``order`` (0, 1 or 2)
    x-derivatives, d/dx = z(1-z) d/dz (finite at every z in (0, 1)), as (branch, order,
    case, point) from one ``hyp2f1`` call: a parameter set per branch and case, branch-major,
    and DLMF 15.5.2's shifted sets (a + k, b + k, c + k), k <= order, in turn."""
    C, a, b, c = (p.C1, p.a1, p.b1, p.c1) if j == 1 else (p.C2, p.a2, p.b2, p.c2)
    one = c * 0 + 1.0  # 1 in the shape of a case column
    sets = {"I": (one if j == 1 else p.G2, C, p.B1, a, b, c),  # (scale, power of z, power of 1 - z, a, b, c)
            "II": (one if j == 1 else p.H2, C + 1.0 - c, p.B1, a - c + 1.0, b - c + 1.0, 2.0 - c)}
    if not branches or not all(isinstance(branch, str) and branch in sets for branch in branches):
        raise DomainError(f"branches must each be 'I' or 'II', got {branches!r}")
    scale, power, B1, a, b, c = np.array([sets[branch] for branch in branches], dtype=complex).swapaxes(0, 1).reshape(6, -1)
    shifted = np.concatenate([(a + k, b + k, c + k) for k in range(order + 1)], axis=1)
    # d^k/dz^k 2F1(a, b; c; z) = (a)_k (b)_k / (c)_k 2F1(a + k, b + k; c + k; z)
    f = specfun.hyp2f1(*shifted, z, log_u).reshape(order + 1, len(a), z.size)
    with np.errstate(over="ignore", invalid="ignore"):
        factor = np.exp(power[:, None] * log_z + B1[:, None] * log_u)
    if not np.isfinite(factor).all():
        x = np.broadcast_to(log_z - log_u, factor.shape)[~np.isfinite(factor)][0]
        raise DomainError(f"the power factor z^C (1-z)^B overflows at x = {x}, omega = {p.omega}")
    rows = [f[0]]  # R, R' and R'' over the power factor
    if order:
        u = np.exp(log_u)
        zu, gamma = z * u, power[:, None] * u - B1[:, None] * z  # gamma = d/dx log(z^C (1-z)^B)
        df = zu * (a * b / c)[:, None] * f[1]  # d/dx 2F1
        rows.append(gamma * f[0] + df)
        if order == 2:
            d2f = (1.0 - 2.0 * z) * df + zu * zu * (a * (a + 1.0) * b * (b + 1.0) / (c * (c + 1.0)))[:, None] * f[2]
            rows.append((gamma * gamma - (power + B1)[:, None] * zu) * f[0] + 2.0 * gamma * df + d2f)
    product = scale[:, None] * factor
    return np.stack([(product * row).reshape(len(branches), len(a) // len(branches), z.size) for row in rows], axis=1)


def _signs(sign, many=False):
    """``sign``, +1 or -1 (where ``many``, also a 1-d array of them), as a column against z columns."""
    signs = real_array(sign, "sign")
    if signs.ndim > many or not signs.size or not (np.abs(signs) == 1).all():
        raise DomainError(f"sign must be +1 or -1{', or a 1-d array of them' if many else ''}, got {sign!r}")
    return signs[..., None]


def _solution_from_logs(branches, signs, p, z, log_z, log_u, order=0):
    """Z_sign^branch at every point of ``_rotated``'s arrays, a row per branch
    of the ``branches`` tuple, each with a row per derivative order up to
    ``order``, each with a row per row of the ``_signs`` column, then a row
    per case: the R-tilde columns are evaluated once for all."""
    r1, r2 = (_rotated(j, branches, p, z, log_z, log_u, order) for j in (1, 2))
    r1, r2 = (np.expand_dims(r, -3) for r in (r1, r2)) if signs.ndim > 1 else (r1, r2)
    return np.multiply(_QUARTER_TURN, r1 + signs[..., None] * 1j * r2)


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
    return complex(_solution_from_logs((branch,), _signs(sign), p, *_logs_from_x(_x_grid([x])))[0, 0, 0, 0])


def exact_solution_at_z(branch, sign, omega, m, z) -> complex:
    """Same as :func:`exact_solution` but parametrized by z in (0, 1)."""
    p = _one_omega(omega, m)
    return complex(_solution_from_logs((branch,), _signs(sign), p, *_logs_from_z(_unit_column([z])[1]))[0, 0, 0, 0])


def solution_checks(sign, omega, m, z):
    """(Wronskian, wave-equation residual of ("I", "II")) at z in (0, 1), from one evaluation of Z^I, Z^II and their
    exact x-derivatives, d/dx = z(1-z) d/dz, up to order 2 (DLMF 15.5.2's sets (a + k, b + k, c + k)): one ``hyp2f1``
    call per R-tilde component.

    The Wronskian is the flux form z(1-z) (Z^I dZ^II/dz - Z^II dZ^I/dz): the z(1-z) weight is the self-adjoint
    coefficient of the transformed wave equation (this is the plain x-Wronskian), so the value is z-independent,
    +/- (2 omega / m)(1 - c1) for the unit normalization G1 = H1 = 1, which the exponents alone predict: a wrong
    hypergeometric value, connection ratio or normalization shows.  The residual is that of the wave equation in z,

        d/dz[z(1-z) Z'] + q(z) Z = 0,
        q = (omega^2 - m^2)/(1-z) + omega^2/z + sign m/(2 sqrt z),

    |sum of the three terms| over the sum of their moduli, every term taken times z(1-z), a row per branch.  A 1-d
    array of z (checked whole) or of signs gives the number calls' values, a row per sign, and (omega, m) columns
    (see ``make_exponents``) a row per case ahead of all; number arguments give a complex Wronskian."""
    column, z = _unit_column(z)
    signs, p = _signs(sign, many=True), make_exponents(omega, m)
    f0, d1, d2 = _solution_from_logs(("I", "II"), signs, p, *_logs_from_z(z), 2).swapaxes(0, 1)  # Z, dZ/dx, d2Z/dx2
    # q takes f0's ndim: numpy rounds a one-element complex product of two ndims apart
    omega, m, signs = np.reshape(omega, (-1, 1)), np.reshape(m, (-1, 1)), signs[None, ..., None]
    q = omega * omega - m * m * z + signs * m * np.sqrt(z) * (1.0 - z) / 2.0  # z(1-z) q, which is omega^2 - V
    first = (1 - 2 * z) * d1  # z(1-z) (1-2z) Z', and d2 - first is z^2 (1-z)^2 Z''
    residual = np.abs(d2 + q * f0) / (np.abs(q * f0) + np.abs(first) + np.abs(d2 - first))
    rows = [(f0[0] * d1[1] - f0[1] * d1[0], complex), (residual, float)]  # d/dx = z(1-z) d/dz
    rows = [(np.moveaxis(v, -2, 0) if np.ndim(p.omega) else v[..., 0, :], number) for v, number in rows]  # cases leading
    return tuple(v if column else v[..., 0] if v.ndim > 1 else number(v[0]) for v, number in rows)


def sample_wavefield(branch, sign, omega, m, grid) -> WaveField:
    """Sample an exact solution on an x grid into a :class:`WaveField`.

    The grid must be 1-d, finite and strictly increasing (``DomainError``
    otherwise, before any point is evaluated); the whole grid takes one
    ``hyp2f1`` call per component.
    """
    xs = _x_grid(grid)
    p = _one_omega(omega, m)
    values = _solution_from_logs((branch,), _signs(sign), p, *_logs_from_x(xs))[0, 0, 0]
    kind = PotentialKind.PLUS if sign == 1 else PotentialKind.MINUS
    return WaveField(grid=xs, values=values, omega=omega, m=float(m), kind=kind, branch=branch)
