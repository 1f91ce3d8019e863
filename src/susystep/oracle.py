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

from .errors import BlowUpError, ConfigError, DomainError, IllConditionedError, finite_real, real_array
from .potentials import PotentialKind, PotentialSpec, potential
from .scattering import ScatteringResult
from .solutions import WaveField

__all__ = ["IntegrationConfig", "DEFAULT_CONFIG", "integrate_wavefunction", "extract_rt", "numerical_rt"]

_BLOWUP_LIMIT = 1e12
_COND_LIMIT = 1e8
_SCAN_STEPS = 2 ** 15  # a column's omegas share Magnus scans of at most this many steps (or one omega)
_MATCH_WINDOW = 5.0  # width of the left matching window
# (max|V - omega^2|) step^2, so each |s^2|, stays below 2; cosh(s), sinh(s)/s to s^20 are exact to rounding to |s^2| = 3
_S2_LIMIT, _SERIES = 2.0, [[1 / math.factorial(k + odd) for k in range(0, 22, 2)] for odd in (0, 1)]
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
        rules = (("x_min", self.x_min < -5.0, "< -5"), ("x_max", self.x_max > 5.0, "> 5"),
                 ("step", self.step > 0, "positive"))
        for name, ok, rule in rules:
            value = getattr(self, name)
            if not finite_real(value):
                raise ConfigError(f"{name} must be finite, got {value}")
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {value}")


DEFAULT_CONFIG = IntegrationConfig()


def _prepare(spec: PotentialSpec, omega, cfg: IntegrationConfig):
    """(v, h, omegas) for the marches at omega: V sampled by one ``potential`` call on the 2n + 1
    point half-step grid of the n-step march, the step h, and omega as Python floats ([omega] for
    a number, a 1-d array's elements in order).  Every omega passes the domain and threshold checks
    before V is sampled, and V must be finite and every omega meet the step bound before any march;
    a step that goes down (V0 < 0, no real coupling) raises ``DomainError`` first."""
    asym = spec.right_asymptote
    if asym < 0:
        raise DomainError(f"the oracle solves a step that goes up, V0 >= 0; got V0 = {asym}")
    column = real_array(omega, "omega")
    if column.ndim > 1:
        raise DomainError(f"the oracle takes omega as a number or a 1-d array, got shape {column.shape}")
    omegas = column.reshape(-1).tolist()
    for w in omegas:
        if not (math.isfinite(w) and w > 0):
            raise DomainError(f"omega = {w} is not a finite positive frequency")
        if not w * w > asym:
            raise ConfigError(f"omega = {w} is below the propagation threshold sqrt({asym}) of the right asymptote")

    n = int(round((cfg.x_max - cfg.x_min) / cfg.step))
    if n < 2:
        raise ConfigError("fewer than 2 integration steps; shrink step or widen the window")
    h = (cfg.x_max - cfg.x_min) / n
    v = np.asarray(potential(spec, np.linspace(cfg.x_min, cfg.x_max, 2 * n + 1)), dtype=float)
    if not np.isfinite(v).all():
        raise ConfigError(f"the potential is not finite on the grid, at x = {cfg.x_min + np.isfinite(v).argmin() * h / 2:g}")
    # rounding is monotone, so max|V - omega^2| is exactly the larger of max V - omega^2 and omega^2 - min V
    v_lo, v_hi = float(v.min()), float(v.max())
    for w in omegas:
        if not (reach := max(v_hi - w * w, w * w - v_lo) * h * h) < _S2_LIMIT:
            raise ConfigError(f"step {h} too coarse at omega = {w}: (max|V - omega^2|) h^2 = {reach:.3g} >= {_S2_LIMIT}")
    return v, h, omegas


def _running_products(rows):
    """Packed step rows M_j along the last axis, replaced in place by M_j ... M_0."""
    for j in range(1, rows.shape[-1]):
        (upper, lower), row = rows[..., j - 1], rows[..., j]
        np.add(row.real * upper, row.imag * lower, out=row)
    return rows


def _march(spec: PotentialSpec, cfg: IntegrationConfig, v, h: float, omegas) -> list:
    """The field of each omega (a list of floats) on the n + 1 point grid, marched over the
    half-step samples v as :func:`integrate_wavefunction` describes, in one scan with omega
    the leading axis; besides the fields it holds two complex numbers per step and omega."""
    n = (v.size - 1) // 2
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
    ahead = np.concatenate([[_GHOST @ v[:-6:-1]], v[::-1], [_GHOST @ v[:5]]])  # march order, a sample past each end
    p, c, hg = _STENCIL @ np.lib.stride_tricks.sliding_window_view(ahead, 5)[::2].T * [[1.0], [1.0], [h2]]  # hg = h^2 g
    hg2, hc = hg * hg * (hm / 25.0), c * (hm * h2 / 54.0)
    on, dq2 = hm - hc + hg2, hm + hc + hg2
    w2 = np.square(omegas)[:, None]
    oe = p * dq2 + c * (5.0 * hm / 18.0 + c * (hm * h2 / 324.0)) - hg2 * (30.0 / h2) - w2 * dq2
    oh = hg * ((h2 / 180.0) * c + (h2 / 15.0) * p - 1.0) - w2 * ((h2 / 15.0) * hg)
    del ahead, p, c, hg, hg2, hc, dq2
    s2 = oh * oh + on * oe
    cosh_s, sinhc_s = (s2 * coefficients[-1] + coefficients[-2] for coefficients in _SERIES)
    for series, coefficients in zip((cosh_s, sinhc_s), _SERIES):
        for k in coefficients[-3::-1]:  # Horner in s^2
            series *= s2
            series += k
    oh *= sinhc_s
    rows = np.empty((2, len(omegas), groups * width * width), dtype=complex)
    np.add(cosh_s, oh, out=rows[0].real[:, :n])
    np.multiply(sinhc_s, on, out=rows[0].imag[:, :n])
    np.multiply(sinhc_s, oe, out=rows[1].real[:, :n])
    np.subtract(cosh_s, oh, out=rows[1].imag[:, :n])
    rows[..., n:] = [[[1.0]], [[1j]]]
    del on, oe, oh, s2, cosh_s, sinhc_s
    rows = rows.reshape(2, len(omegas), groups, width, width)

    (kr, cr), x = spec.tails[1], cfg.x_max
    kprime = (math.sqrt(w * w - spec.right_asymptote) for w in omegas)
    starts = [(z * (1 + b), z * (1j * kp * (1 + b) - kr * b)) for kp in kprime  # (Z, Z') at x_max
              for z, b in [(cmath.exp(1j * kp * x), cr * math.exp(-kr * x) / (kr * kr - 2j * kp * kr))]]
    # buf[:, -1] is the initial point and buf[:, -2::-1] the march order, so
    # the grid's values are the last n + 1 entries of each row
    buf = np.empty((len(omegas), groups * width * width + 1), dtype=complex)
    buf[:, -1] = [z for z, _ in starts]
    entering = np.empty((2, len(omegas), groups, width), dtype=complex)  # (Z, Z') entering each block
    with np.errstate(over="ignore", invalid="ignore"):
        # running products inside the blocks, then of the block totals inside
        # the groups; the state carried over the groups, then into each block
        totals = _running_products(_running_products(rows)[..., -1].copy())
        for i, ((zc, dz), group_totals) in enumerate(zip(starts, zip(*totals[..., -1].tolist()))):
            for k, (ab, cd) in enumerate(zip(*group_totals)):
                entering[:, i, k, 0] = zc, dz
                zc, dz = ab.real * zc + ab.imag * dz, cd.real * zc + cd.imag * dz
        entering[..., 1:] = totals[..., :-1].real * entering[0, ..., :1] + totals[..., :-1].imag * entering[1, ..., :1]
        march = buf[:, -2::-1].reshape(len(omegas), groups, width, width)
        np.multiply(rows[0].real, entering[0, ..., None], out=march)
        march += rows[0].imag * entering[1, ..., None]
        values = buf[:, groups * width * width - n:]
        bad = ~(np.abs(values[:, :n]) <= _BLOWUP_LIMIT)
    if bad.any():
        row = bad.any(axis=1).argmax()  # the first omega in column order; bad[row, ::-1] runs in march order
        raise BlowUpError(f"|Z| exceeded {_BLOWUP_LIMIT:g} at x = {cfg.x_max + (1 + bad[row, ::-1].argmax()) * hm:.3f}; "
                          f"omega = {omegas[row]} is below threshold or the step too coarse")

    grid = np.linspace(cfg.x_min, cfg.x_max, n + 1)
    return [WaveField(grid, z, w, _coupling(spec), spec.kind, meta={"spec": spec, "config": cfg}) for w, z in zip(omegas, values)]


def _coupling(spec: PotentialSpec) -> float:
    """The coupling the oracle solves: m for the partners, sqrt(V0) for the step."""
    return math.sqrt(spec.right_asymptote) if spec.kind is PotentialKind.STEP else spec.m


def integrate_wavefunction(spec: PotentialSpec, omega: float, cfg: IntegrationConfig = DEFAULT_CONFIG) -> WaveField:
    """Integrate Z'' = (V - omega^2) Z from x_max down to x_min.

    Initial data at x_max is the unit transmitted wave with the first-order term of the right
    tail V - V(+inf) ~ cR e^(-kR x) (``spec.tails``): Z = e^(i k' x) (1 + b), Z' = e^(i k' x)
    (i k' (1 + b) - kR b), b = cR e^(-kR x)/(kR^2 - 2i k' kR), k' = sqrt(omega^2 - V(+inf)).
    Sixth-order Magnus steps (Blanes, Casas & Ros 2000; Blanes et al. 2009), error O(step^6),
    take V at their Gauss nodes from the quartic through the 5 half-step samples around each
    (one ``potential`` call on the 2n + 1 point half-step grid): real 2x2 matrices on (Z, Z'),
    their rows packed into complex numbers, from cosh and sinh series that the step bound keeps
    exact to rounding.  The error does not grow with omega (Iserles 2002): at step 0.02,
    omega = 60 meets the closed-form R and T to about 2e-13.  The march is a three-level scan:
    one pass forms the running products inside blocks of w = round(n^(1/3)) + 1 steps, a second
    those of the block totals inside groups of w blocks, the state is carried from group to
    group, and each value is its block's running product applied to the state entering the
    block.  Each value is thus a product of at most about 3 n^(1/3) matrices taken in march
    order, so rounding accumulates as in a point-by-point march (to about 1e-13).

    ``omega`` is one real number: the one-omega scan of the march that
    :func:`numerical_rt` runs over an omega column.  Beyond the field (n + 1
    complex values and the grid), it holds 2 n complex numbers (the packed
    step rows) and the 2n + 1 potential samples.

    Raises DomainError if omega is not a real, finite, positive number (complex, nan, negative,
    a string, an array) or the spec is a step that goes down (V0 < 0); ConfigError if omega is
    not above the right asymptote (no propagating transmitted wave), there are fewer than 2
    steps, V is not finite or the step bound (max|V - omega^2|) step^2 < 2 fails; BlowUpError if
    |Z| exceeds 1e12 (or is not finite) during the march, naming omega and the first such x in
    march order.
    """
    if np.ndim(omega) > 0:
        raise DomainError(f"integrate_wavefunction takes one omega; got an array of shape {np.shape(omega)}")
    return _march(spec, cfg, *_prepare(spec, omega, cfg))[0]


def extract_rt(field: WaveField) -> ScatteringResult:
    """Fit Z ~ A u + B conj(u) over the field's leftmost 5 units and return
    R = B/A, T = 1/A (the march's unit transmitted wave), at the field's own
    omega and coupling m, as Python ``complex`` numbers.  u = e^(i omega x)
    (1 + cL e^(kL x)/(kL^2 + 2i omega kL)) is the incoming wave with its
    first-order term for the left tail V - V(-inf) ~ cL e^(kL x).  Raises
    DomainError unless the field came from :func:`integrate_wavefunction`
    (the only source of the unit transmitted wave) and its omega is real
    and above m >= 0, and IllConditionedError if the design matrix has
    condition number above 1e8 (e.g. a step so coarse that the window
    holds one grid point).
    """
    if field.branch is not None or "spec" not in field.meta:
        raise DomainError("extract_rt needs a field integrated by integrate_wavefunction (unit transmitted wave)")
    omega, m = field.omega, field.m
    if not (omega.imag == 0 and omega.real > m >= 0):
        raise DomainError(f"extract_rt needs a real field omega above its coupling m >= 0; got omega = {omega}, m = {m}")
    omega = float(omega.real)
    xs = field.grid  # strictly increasing: the window is a leading slice
    stop = np.searchsorted(xs, xs[0] + _MATCH_WINDOW, side="right")
    x_win = xs[:stop]
    (k, c), _ = field.meta["spec"].tails
    incoming = np.exp(1j * omega * x_win) * (1.0 + np.exp(k * x_win) * (c / (k * k + 2j * omega * k)))
    design = np.column_stack([incoming, incoming.conj()])
    (a_in, b_refl), _, _, sv = np.linalg.lstsq(design, field.values[:stop], rcond=None)
    cond = sv[0] / sv[-1] if x_win.size >= 2 and sv[-1] > 0 else math.inf
    if not cond < _COND_LIMIT:
        raise IllConditionedError(f"matching fit condition number {cond:.3g} exceeds {_COND_LIMIT:g}")
    return ScatteringResult(omega=omega, m=m, kind=field.kind, R=complex(b_refl / a_in), T=complex(1.0 / a_in))


def numerical_rt(spec: PotentialSpec, omega, cfg: IntegrationConfig = DEFAULT_CONFIG) -> ScatteringResult:
    """Integrate and extract: :func:`extract_rt` of the march at omega.

    ``omega`` is a real number or a 1-d real array (an omega column).  A column gives one result
    whose ``omega``, ``R``, ``T`` and ``kprime`` are arrays, each element equal bit for bit to the
    one-omega call: the potential is sampled once for the column, every element is checked (domain
    and threshold before the potential is sampled, the step bound before any march), and then the
    omegas are marched, in column order, in scans of as many omegas as fit in 2^15 steps (at least
    one), and fitted, so at most max(n, 2^15) steps per scan are held whatever the column's length
    (n per omega).  Raises as :func:`integrate_wavefunction` and :func:`extract_rt`.
    """
    if np.ndim(omega) == 0:
        return extract_rt(integrate_wavefunction(spec, omega, cfg))
    v, h, omegas = _prepare(spec, omega, cfg)
    per_scan, fits = max(1, _SCAN_STEPS // ((v.size - 1) // 2)), []
    for start in range(0, len(omegas), per_scan):
        fits += map(extract_rt, _march(spec, cfg, v, h, omegas[start:start + per_scan]))
    R, T = np.array([(fit.R, fit.T) for fit in fits], dtype=complex).reshape(-1, 2).T
    return ScatteringResult(omega=np.array(omegas), m=_coupling(spec), kind=spec.kind, R=R, T=T)
