"""Independent numerical verification path: fixed-step sixth-order Magnus integration of
the wave equation Z'' + (omega^2 - V) Z = 0 in x, and extraction of reflection and
transmission amplitudes by least-squares boundary matching.

The integration marches right-to-left from a unit transmitted wave at
x_max, which pins the solution without solving a two-point boundary
problem; both window edges take the potential's leading tail to first order.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, ConfigError, DomainError, IllConditionedError, finite_real
from .potentials import PotentialKind, PotentialSpec, potential
from .scattering import ScatteringResult, transmitted_wavenumber
from .solutions import WaveField

__all__ = ["IntegrationConfig", "DEFAULT_CONFIG", "integrate_wavefunction", "extract_rt", "numerical_rt"]

_BLOWUP_LIMIT = 1e12
_COND_LIMIT = 1e8
_SCAN_STEPS = 2 ** 15  # a call's (spec, omega) rows share Magnus scans of at most this many steps (or one row)
_MATCH_WINDOW = 5.0  # width of the left matching window
# (max|V - omega^2|) step^2, so each |s^2|, stays below 2; cosh(s), sinh(s)/s to s^20 are exact to rounding to |s^2| = 3
_S2_LIMIT, _SERIES = 2.0, np.array([[1 / math.factorial(k + odd) for odd in (0, 1)] for k in range(0, 22, 2)])[..., None, None]
# (p, c, g) of a step from the quartic through the 5 half-step samples around it, which for an end step _GHOST
# extends by one: its moments b_i = int u^i q du (u in [-1/2, 1/2] along the step) as Gauss-node values q_k,
# p - omega^2 = q2 = 9/4 b0 - 15 b2, c = q1 - 2 q2 + q3 = 54 b2 - 9/2 b0 and g = (q3 - q1) sqrt(15)/36 = b1
_STENCIL = np.array([[-1, 4, 274, 4, -1], [-1, 88, -174, 88, -1], [1, -17, 0, 17, -1]]) / [[280], [140], [180]]
_GHOST = np.array([5.0, -10.0, 10.0, -5.0, 1.0])  # the quartic through 5 samples, one sample before them


@dataclass(frozen=True)
class IntegrationConfig:
    """Fixed-step integration window and step; the step must keep (max|V - omega^2|) step^2 < 2."""

    x_min: float = -30.0
    x_max: float = 30.0
    step: float = 1e-3

    def __post_init__(self):
        for name, sign, bound in (("x_min", -1.0, -5.0), ("x_max", 1.0, 5.0), ("step", 1.0, 0.0)):
            if not (finite_real(value := getattr(self, name)) and sign * value > sign * bound):  # no comparison of a non-real
                raise ConfigError(f"{name} must be a finite real number {'<' if sign < 0 else '>'} {bound:g}, got {value!r}")


DEFAULT_CONFIG = IntegrationConfig()


def _prepare(specs, omega, cfg: IntegrationConfig):
    """(v, n, omegas): a list with a row per spec of V, sampled by one ``potential`` call on the
    2n + 1 point half-step grid of the n-step march, n, and omega as Python floats ([omega] for a
    number, a 1-d array's elements in order).  ``transmitted_wavenumber`` checks omega against the
    specs' largest coupling before V is sampled, and each V must be finite and meet the step bound
    at every omega before any march; a step that goes down (V0 < 0) raises ``DomainError`` first."""
    if (asym := min((spec.right_asymptote for spec in specs), default=0.0)) < 0:
        raise DomainError(f"the oracle solves a step that goes up, V0 >= 0; got V0 = {asym}")
    transmitted_wavenumber(omega, max(map(_coupling, specs), default=0.0))
    omegas = np.asarray(omega, dtype=float).reshape(-1).tolist()
    n = int(round((cfg.x_max - cfg.x_min) / cfg.step))
    if n < 2:
        raise ConfigError("fewer than 2 integration steps; shrink step or widen the window")
    h = (cfg.x_max - cfg.x_min) / n
    v = []
    for spec in specs:
        v.append(row := np.asarray(potential(spec, np.linspace(cfg.x_min, cfg.x_max, 2 * n + 1)), dtype=float))
        if not np.isfinite(row).all():
            raise ConfigError(f"the potential is not finite on the grid, at x = {cfg.x_min + np.isfinite(row).argmin() * h / 2:g}")
        # rounding is monotone, so max|V - omega^2| is exactly the larger of max V - omega^2 and omega^2 - min V
        v_lo, v_hi = float(row.min()), float(row.max())
        for w in omegas:
            if not (reach := max(v_hi - w * w, w * w - v_lo) * h * h) < _S2_LIMIT:
                raise ConfigError(f"step {h} too coarse at omega = {w}: (max|V - omega^2|) h^2 = {reach:.3g} >= {_S2_LIMIT}")
    return v, n, omegas


def _running_products(rows):
    """Packed step rows M_j along the last axis, replaced in place by M_j ... M_0."""
    for j in range(1, rows.shape[-1]):
        (upper, lower), row = rows[..., j - 1], rows[..., j]
        np.add(row.real * upper, row.imag * lower, out=row)
    return rows


def _march(specs, cfg: IntegrationConfig, v, n: int, rows):
    """(grid, values): the n + 1 point grid and the field on it of each row (i, omega), specs[i] at
    omega marched over the samples v[i] as :func:`integrate_wavefunction` describes, in one scan
    with the rows (a spec's consecutive) the leading axis; it holds 2 complex numbers per step and row."""
    h = (cfg.x_max - cfg.x_min) / n
    # step i (right to left) maps (Z, Z') at x_max - i h to x_max - (i + 1) h by the real
    # matrix [[a, b], [c, d]], stored as its rows a + ib and c + id and laid out as (groups,
    # width, width) blocks padded with identities; a running product's rows pack the same way,
    # so row r of S P is S[r, 0] P[0] + S[r, 1] P[1]: real-by-complex products.  A step is
    # exp(Omega) = cosh(s) I + (sinh(s)/s) Omega, Omega^2 = s^2 I, for the sixth-order Omega =
    # a1 + a3/12 + [-20 a1 - a3 + C1, a2 + C2]/240 of [[0, 1], [q, 0]] over the step -h, in
    # closed form [[oh, on], [oe, -oh]]: only q2 = p - omega^2 carries omega
    hm, h2 = -h, h * h
    width = round(n ** (1 / 3)) + 1
    groups = -(-n // (width * width))
    parts = []  # (on, oe, oh) of each spec's rows, joined only for several specs: a fresh block costs one row 20%
    for i in dict.fromkeys(j for j, _ in rows):  # a spec's rows share p, c and g
        w2 = np.square([w for j, w in rows if j == i])[:, None]
        # the samples in march order, one past each end: a temporary that goes with the stencil product
        p, c, hg = _STENCIL @ np.lib.stride_tricks.sliding_window_view(np.concatenate(
            [[_GHOST @ v[i][:-6:-1]], v[i][::-1], [_GHOST @ v[i][:5]]]), 5)[::2].T * [[1.0], [1.0], [h2]]  # hg = h^2 g
        hg2, hc = hg * hg * (hm / 25.0), c * (hm * h2 / 54.0)
        on, dq2 = hm - hc + hg2, hm + hc + hg2
        del hc  # before oe's temporaries, which set the march's memory peak
        oe = p * dq2 + c * (5.0 * hm / 18.0 + c * (hm * h2 / 324.0)) - hg2 * (30.0 / h2) - w2 * dq2
        parts.append((np.broadcast_to(on, oe.shape), oe, hg * ((h2 / 180.0) * c + (h2 / 15.0) * p - 1.0) - w2 * ((h2 / 15.0) * hg)))
    on, oe, oh = parts[0] if len(parts) == 1 else (np.concatenate(part) for part in zip(*parts))
    del p, c, hg, hg2, dq2, parts
    s2 = oh * oh + on * oe
    cosh_s, sinhc_s = series = s2 * _SERIES[-1] + _SERIES[-2]
    for k in _SERIES[-3::-1]:  # Horner in s^2, both series in one array
        series *= s2
        series += k
    oh *= sinhc_s
    steps = np.empty((2, len(rows), groups * width * width), dtype=complex)
    np.add(cosh_s, oh, out=steps[0].real[:, :n])
    np.multiply(sinhc_s, on, out=steps[0].imag[:, :n])
    np.multiply(sinhc_s, oe, out=steps[1].real[:, :n])
    np.subtract(cosh_s, oh, out=steps[1].imag[:, :n])
    steps[..., n:] = [[[1.0]], [[1j]]]
    del on, oe, oh, s2, series, cosh_s, sinhc_s
    steps = steps.reshape(2, len(rows), groups, width, width)

    starts = [(z * (1 + b), z * (1j * kp * (1 + b) - kr * b)) for i, w in rows  # (Z, Z') at x_max
              for (kr, cr), c, x in [(specs[i].tails[1], _coupling(specs[i]), cfg.x_max)]
              for kp in [math.sqrt(w - c) * math.sqrt(w + c)]  # ScatteringResult.kprime's k', positive for w > c
              for z, b in [(cmath.exp(1j * kp * x), cr * math.exp(-kr * x) / (kr * kr - 2j * kp * kr))]]
    # buf[:, -1] is the initial point and buf[:, -2::-1] the march order, so
    # the grid's values are the last n + 1 entries of each row
    buf = np.empty((len(rows), groups * width * width + 1), dtype=complex)
    buf[:, -1] = [z for z, _ in starts]
    entering = np.empty((2, len(rows), groups, width), dtype=complex)  # (Z, Z') entering each block
    with np.errstate(over="ignore", invalid="ignore"):
        # running products inside the blocks, then of the block totals inside
        # the groups; the state carried over the groups, then into each block
        totals = _running_products(_running_products(steps)[..., -1].copy())
        state = np.array(starts, dtype=complex).T
        for k in range(groups):
            entering[..., k, 0] = state
            state = totals[..., k, -1].real * state[0] + totals[..., k, -1].imag * state[1]
        entering[..., 1:] = totals[..., :-1].real * entering[0, ..., :1] + totals[..., :-1].imag * entering[1, ..., :1]
        march = buf[:, -2::-1].reshape(len(rows), groups, width, width)
        np.multiply(steps[0].real, entering[0, ..., None], out=march)
        march += steps[0].imag * entering[1, ..., None]
        values = buf[:, groups * width * width - n:]
        bad = ~(np.abs(values[:, :n]) <= _BLOWUP_LIMIT)
    if bad.any():
        r = bad.any(axis=1).argmax()  # the first row in order; bad[r, ::-1] runs in march order
        raise BlowUpError(f"|Z| exceeded {_BLOWUP_LIMIT:g} at x = {cfg.x_max + (1 + bad[r, ::-1].argmax()) * hm:.3f}; "
                          f"omega = {rows[r][1]} is below threshold or the step too coarse for {specs[rows[r][0]]}")
    return np.linspace(cfg.x_min, cfg.x_max, n + 1), values


def _fit(grid, values, specs, rows):
    """(R, T) arrays: :func:`extract_rt`'s fit of each value row (i, omega) on the strictly increasing grid, the field
    of specs[i] at omega.  A u + B conj(u) = alpha Re u + beta Im u, A = (alpha - i beta)/2, B = (alpha + i beta)/2:
    modified Gram-Schmidt on the real columns Re u, Im u, the field a third column (Bjorck), in reductions along the
    last axis, so a row fits the same alone or among others.  The 2x2 R has [u, conj(u)]'s condition number."""
    x = grid[:np.searchsorted(grid, grid[0] + _MATCH_WINDOW, side="right")]
    kl, omega = np.array([(specs[i].tails[0][0], w) for i, w in rows]).T[..., None]
    tail = np.array([[c / (k * k + 2j * w * k)] for i, w in rows for k, c in [specs[i].tails[0]]])
    incoming = np.exp(1j * omega * x) * (1.0 + np.exp(kl * x) * tail)
    p, q, z = incoming.real, incoming.imag, values[:, :x.size]
    dot = lambda a, b: np.sum(a * b, axis=-1, keepdims=True)  # row by row, kept as a column
    with np.errstate(divide="ignore", invalid="ignore"):  # a degenerate window fails the condition test
        p = p / (r11 := np.sqrt(dot(p, p)))
        q = q - (r12 := dot(p, q)) * p
        beta = dot(q, z - (c1 := dot(p, z)) * p) / (qq := dot(q, q))
        s_max = (np.hypot(r11 + (r22 := np.sqrt(qq)), r12) + np.hypot(r11 - r22, r12)) / 2.0  # and s_min = r11 r22/s_max
    if (bad := ~(s_max < _COND_LIMIT * (r11 * r22 / s_max))[:, 0] | (x.size < 2)).any():  # one point cannot fit two amplitudes
        i, w = rows[bad.argmax()]  # the first row in order
        raise IllConditionedError(f"matching fit at omega = {w} for {specs[i]} has condition number above {_COND_LIMIT:g}")
    alpha = (c1 - r12 * beta) / r11
    return ((alpha + 1j * beta) / (alpha - 1j * beta))[:, 0], (2.0 / (alpha - 1j * beta))[:, 0]


def _coupling(spec: PotentialSpec) -> float:
    """The coupling the oracle solves: m for the partners, sqrt(V0) for the step."""
    return math.sqrt(spec.right_asymptote) if spec.kind is PotentialKind.STEP else spec.m


def integrate_wavefunction(spec: PotentialSpec, omega: float, cfg: IntegrationConfig = DEFAULT_CONFIG) -> WaveField:
    """Integrate Z'' = (V - omega^2) Z from x_max down to x_min.

    Initial data at x_max is the unit transmitted wave with the first-order term of the right tail
    V - V(+inf) ~ cR e^(-kR x) (``spec.tails``): Z = e^(i k' x) (1 + b), Z' = e^(i k' x) (i k' (1 + b) - kR b),
    b = cR e^(-kR x)/(kR^2 - 2i k' kR), with the k' of the result's ``kprime`` and ``flux``: sqrt(omega - c)
    sqrt(omega + c) for the coupling c (m, or sqrt(V(+inf)) for the step).  Sixth-order Magnus steps (Blanes, Casas &
    Ros 2000; Blanes et al. 2009), error O(step^6), take V at their Gauss nodes from the quartic through the 5
    half-step samples around each (one ``potential`` call on the 2n + 1 point half-step grid): real 2x2 matrices on
    (Z, Z'), their rows packed into complex numbers, from cosh and sinh series that the step bound keeps exact to
    rounding.  The error does not grow with omega (Iserles 2002): at step 0.02, omega = 60 meets the closed-form R and
    T to about 2e-13.  The march is a three-level scan (running products inside blocks of w = round(n^(1/3)) + 1
    steps, then of the block totals inside groups of w blocks, the state carried from group to group), so each value
    is a product of at most about 3 n^(1/3) matrices in march order and rounding accumulates as in a point-by-point
    march (to about 1e-13).  ``omega`` is one real number: this is the one-row scan of :func:`numerical_rt`'s march.
    Beyond the field (n + 1 values and the grid) it holds 2 n complex numbers (the packed step rows) and the 2n + 1
    samples.

    Raises DomainError if omega is not one number that ``transmitted_wavenumber`` accepts above the coupling c
    (complex, nan, a string, an array, at or below c) or the spec is a step that goes down (V0 < 0); ConfigError if
    there are fewer than 2 steps, V is not finite or the step bound (max|V - omega^2|) step^2 < 2 fails; BlowUpError
    if |Z| exceeds 1e12 (or is not finite) in the march, naming omega, spec and first such x.
    """
    if np.ndim(omega) > 0:
        raise DomainError(f"integrate_wavefunction takes one omega; got an array of shape {np.shape(omega)}")
    v, n, (w,) = _prepare((spec,), omega, cfg)
    grid, values = _march((spec,), cfg, v, n, [(0, w)])
    return WaveField(grid, values[0], w, _coupling(spec), spec.kind, meta={"spec": spec, "config": cfg})


def extract_rt(field: WaveField) -> ScatteringResult:
    """Fit Z ~ A u + B conj(u) over the field's leftmost 5 units (a leading slice of its grid) and return R = B/A,
    T = 1/A (the march's unit transmitted wave) as Python ``complex`` numbers, at the field's own omega and coupling m;
    u = e^(i omega x) (1 + cL e^(kL x)/(kL^2 + 2i omega kL)) is the incoming wave with its first-order term for the
    left tail V - V(-inf) ~ cL e^(kL x).  The fit is a closed-form least-squares solve (no ``numpy.linalg`` call), the
    one-row call of the one :func:`numerical_rt` makes for a scan's rows at once.  Raises DomainError unless the field
    came from :func:`integrate_wavefunction` (the only source of the unit transmitted wave) and
    ``transmitted_wavenumber`` accepts its (omega, m), and IllConditionedError if [u, conj(u)] over the window has
    condition number above 1e8 (e.g. a one-point window).
    """
    if not isinstance(field, WaveField) or field.branch is not None or "spec" not in field.meta:
        raise DomainError("extract_rt needs a field integrated by integrate_wavefunction (unit transmitted wave)")
    transmitted_wavenumber(field.omega, field.m)
    R, T = _fit(field.grid, field.values[None], (field.meta["spec"],), [(0, float(field.omega))])
    return ScatteringResult(omega=float(field.omega), m=field.m, kind=field.kind, R=complex(R[0]), T=complex(T[0]))


def numerical_rt(spec, omega, cfg: IntegrationConfig = DEFAULT_CONFIG):
    """Integrate and extract: :func:`extract_rt` of the march at omega.

    ``spec`` is a :class:`PotentialSpec` or a tuple of them (a tuple of results, in order), and ``omega`` a real
    number (Python-number fields) or a 1-d real array (array ``omega``, ``R``, ``T`` and ``kprime``), each element
    equal bit for bit to the one-spec, one-omega call ``extract_rt(integrate_wavefunction(...))``.  Any other call is
    one checked scan: every (spec, omega) is checked before any sampling and the step bound before any march, each
    potential is sampled once, and the (spec, omega) rows, spec-major, are marched in scans of as many rows as fit in
    2^15 steps (at least one; at most max(n, 2^15) steps, n per row), fitted together.  Raises as
    :func:`integrate_wavefunction` and :func:`extract_rt`; a blow-up or an ill-conditioned fit names the first such
    (spec, omega) in row order.
    """
    if not isinstance(spec, tuple) and np.ndim(omega) == 0:
        return extract_rt(integrate_wavefunction(spec, omega, cfg))
    specs = spec if isinstance(spec, tuple) else (spec,)
    v, n, omegas = _prepare(specs, omega, cfg)
    rows = [(i, w) for i in range(len(specs)) for w in omegas]
    per_scan, rt = max(1, _SCAN_STEPS // n), np.empty((2, len(rows)), dtype=complex)
    for at in (slice(start, start + per_scan) for start in range(0, len(rows), per_scan)):
        rt[:, at] = _fit(*_march(specs, cfg, v, n, rows[at]), specs, rows[at])
    rt = rt.reshape(2, len(specs), len(omegas)) if np.ndim(omega) else rt.tolist()  # a number: Python numbers
    results = tuple(ScatteringResult(omega=np.array(omegas) if np.ndim(omega) else omegas[0], m=_coupling(s),
                                     kind=s.kind, R=r, T=t) for s, r, t in zip(specs, *rt))
    return results if isinstance(spec, tuple) else results[0]
