"""Closed-form evaluation of the superpotential W, its partner potentials
V+ and V-, and the reference smooth step potential, together with their
hyperbolic forms, antiderivatives, and the shape-invariance identity.

All evaluators accept scalars or numpy arrays and are overflow-safe for
|x| up to the largest representable exponents: every exponential ratio is
computed through ``exp(... - logaddexp(0, x))``.  x must be real (not a
bool or complex) and finite (``DomainError`` otherwise); V- is V+ at -m.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, finite_real, real_array

__all__ = [
    "PotentialKind", "PotentialSpec", "superpotential", "v_plus", "v_minus", "v_step", "potential",
    "potential_hyperbolic", "potential_antiderivative", "shape_invariance_check"
]


class PotentialKind(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"
    STEP = "step"


@dataclass(frozen=True)
class PotentialSpec:
    """Which potential to evaluate plus its parameters.

    Partner kinds use the coupling ``m`` (> 0 by convention; the m < 0
    potentials are recovered through ``shape_invariance_check``'s identity
    V+(x, m) = V-(x, -m) rather than a separate code path).  The step kind
    uses the height ``v0`` and width ``alpha``.  A bool or non-finite
    parameter, a partner m^2 that overflows or a foreign kind raises ``DomainError``.
    """

    kind: PotentialKind
    m: float = 1.0
    v0: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        for name in ("m", "v0", "alpha"):
            value = getattr(self, name)
            if not finite_real(value):
                raise DomainError(f"potential parameters must be real and finite, got {name} = {value}")
        if self.kind in (PotentialKind.PLUS, PotentialKind.MINUS):
            if not (self.m > 0 and math.isfinite(float(self.m) * float(self.m))):
                raise DomainError(f"partner potentials require m > 0 with m^2 finite, got m = {self.m}")
        elif self.kind is PotentialKind.STEP:
            if not self.alpha > 0:
                raise DomainError(f"step potential requires alpha > 0, got alpha = {self.alpha}")
        else:
            raise DomainError(f"unknown potential kind {self.kind!r}")

    @classmethod
    def plus(cls, m: float) -> "PotentialSpec":
        return cls(kind=PotentialKind.PLUS, m=m)

    @classmethod
    def minus(cls, m: float) -> "PotentialSpec":
        return cls(kind=PotentialKind.MINUS, m=m)

    @classmethod
    def step(cls, v0: float, alpha: float = 1.0) -> "PotentialSpec":
        return cls(kind=PotentialKind.STEP, v0=v0, alpha=alpha)

    @property
    def right_asymptote(self) -> float:
        """Potential value as x -> +infinity (m^2 for partners, v0 for the step)."""
        if self.kind is PotentialKind.STEP:
            return self.v0
        return self.m * self.m


_SIGN = {PotentialKind.PLUS: 1.0, PotentialKind.MINUS: -1.0}  # m -> -m maps V+ to V-


def _real_x(x):
    """x as a float array (0-d for a number); ``DomainError`` unless it is real and finite."""
    x = real_array(x, "x")
    if not np.isfinite(x).all():
        raise DomainError(f"x = {x[~np.isfinite(x)][0]} is not finite")
    return x


def superpotential(x, m):
    """Superpotential W(x, m) = -m (1 + e^(-x))^(-1/2).

    Strictly negative for m > 0 and strictly positive for m < 0; it never
    crosses the x axis.  W -> -m as x -> +inf and W -> 0 as x -> -inf.
    ``DomainError`` unless m is a real, finite number other than 0.
    """
    if not (finite_real(m) and m != 0):
        raise DomainError(f"superpotential requires a real, finite m != 0, got m = {m!r}")
    x = _real_x(x)
    return -m * np.exp(0.5 * (x - np.logaddexp(0.0, x)))


def v_plus(x, m):
    """V+(x, m) = W^2 + dW/dx = m^2 e^x/(e^x+1) - (m/2) e^(x/2)/(e^x+1)^(3/2), m real and finite."""
    if not finite_real(m):
        raise DomainError(f"partner potentials require a real, finite m, got m = {m!r}")
    x = _real_x(x)
    softplus = np.logaddexp(0.0, x)
    return m * m * np.exp(x - softplus) - 0.5 * m * np.exp(0.5 * x - 1.5 * softplus)


def v_minus(x, m):
    """V-(x, m) = W^2 - dW/dx = m^2 e^x/(e^x+1) + (m/2) e^(x/2)/(e^x+1)^(3/2) = V+(x, -m)."""
    return v_plus(x, -m if finite_real(m) else m)  # -True would pass as -1


def v_step(x, v0, alpha=1.0):
    """Smooth step (V0/2)(1 + tanh(x / 2 alpha)); v0 and alpha pass :class:`PotentialSpec`'s checks."""
    PotentialSpec.step(v0, alpha)
    return 0.5 * v0 * (1.0 + np.tanh(0.5 * _real_x(x) / alpha))


def potential(spec: PotentialSpec, x):
    """Evaluate the potential described by ``spec`` at x (scalar or array)."""
    if spec.kind is PotentialKind.STEP:
        return v_step(x, spec.v0, spec.alpha)
    return v_plus(x, _SIGN[spec.kind] * spec.m)


def potential_hyperbolic(spec: PotentialSpec, x):
    """Partner potentials in tanh form,

        mu^2 (1 + tanh(x/2)) -/+ (mu/4) sqrt(1 - tanh(x/2)) / cosh(x/2)

    with mu = m / sqrt(2) (-m for V-).  Algebraically identical to ``potential`` for
    the partner kinds; kept as an independent evaluation route.
    """
    if spec.kind is PotentialKind.STEP:
        raise DomainError("hyperbolic form applies to the partner potentials only")
    mu = _SIGN[spec.kind] * spec.m / math.sqrt(2.0)
    x = _real_x(x)
    th = np.tanh(0.5 * x)
    return mu * mu * (1.0 + th) - 0.25 * mu * np.sqrt(1.0 - th) / np.cosh(0.5 * x)


def potential_antiderivative(spec: PotentialSpec, x):
    """An antiderivative of V+/-:

        m^2 ln(e^x + 1) -/+ m e^(x/2) / (e^x + 1)^(1/2)

    with the integration constant fixed to 0.  Grows like m^2 x as
    x -> +infinity, so the full-line integral of V+/- diverges.
    """
    if spec.kind is PotentialKind.STEP:
        raise DomainError("antiderivative is provided for the partner potentials only")
    m, x = _SIGN[spec.kind] * spec.m, _real_x(x)  # V- at -m
    softplus = np.logaddexp(0.0, x)
    return m * m * softplus - m * np.exp(0.5 * (x - softplus))


def shape_invariance_check(m: float, x):
    """V+(x, m) - V-(x, -m); identically zero.

    The partner pair is multiplicatively shape invariant with parameter map
    m -> -m and vanishing remainder; V- is evaluated as V+ at -m, so this
    difference is exactly zero.  Accepts any real, finite m != 0.
    """
    if not (finite_real(m) and m != 0):
        raise DomainError(f"shape invariance check requires a real, finite m != 0, got m = {m!r}")
    return v_plus(x, m) - v_minus(x, -m)
