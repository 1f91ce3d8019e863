"""Closed-form evaluation of the superpotential W, its partner potentials
V+ and V-, and the reference smooth step potential, together with their
hyperbolic forms, antiderivatives, and the shape-invariance identity.

All evaluators accept scalars or numpy arrays and are overflow-safe for
|x| up to the largest representable exponents: every exponential ratio is
computed through ``exp(... - logaddexp(0, x))``.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "PotentialKind",
    "PotentialSpec",
    "superpotential",
    "v_plus",
    "v_minus",
    "v_step",
    "potential",
    "potential_hyperbolic",
    "potential_antiderivative",
    "shape_invariance_check",
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
    uses the height ``v0`` and width ``alpha``.
    """

    kind: PotentialKind
    m: float = 1.0
    v0: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        for name in ("m", "v0", "alpha"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise DomainError(f"potential parameters must be real and finite, got {name} = {value}")
        if self.kind in (PotentialKind.PLUS, PotentialKind.MINUS):
            if not self.m > 0:
                raise DomainError(f"partner potentials require m > 0, got m = {self.m}")
        elif self.kind is PotentialKind.STEP:
            if not self.alpha > 0:
                raise DomainError(f"step potential requires alpha > 0, got alpha = {self.alpha}")
        else:  # pragma: no cover - enum exhausts the cases
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


def superpotential(x, m):
    """Superpotential W(x, m) = -m (1 + e^(-x))^(-1/2).

    Strictly negative for m > 0 and strictly positive for m < 0; it never
    crosses the x axis.  W -> -m as x -> +inf and W -> 0 as x -> -inf.
    """
    if m == 0:
        raise DomainError("superpotential requires m != 0")
    return -m * np.exp(0.5 * (x - np.logaddexp(0.0, x)))


def _dw(x, m, softplus):
    """dW/dx = -(m/2) e^(x/2) / (e^x + 1)^(3/2) from softplus = logaddexp(0, x)."""
    return -0.5 * m * np.exp(0.5 * x - 1.5 * softplus)


def v_plus(x, m):
    """V+(x, m) = W^2 + dW/dx = m^2 e^x/(e^x+1) - (m/2) e^(x/2)/(e^x+1)^(3/2)."""
    softplus = np.logaddexp(0.0, x)
    return m * m * np.exp(x - softplus) + _dw(x, m, softplus)


def v_minus(x, m):
    """V-(x, m) = W^2 - dW/dx = m^2 e^x/(e^x+1) + (m/2) e^(x/2)/(e^x+1)^(3/2)."""
    softplus = np.logaddexp(0.0, x)
    return m * m * np.exp(x - softplus) - _dw(x, m, softplus)


def v_step(x, v0, alpha=1.0):
    """Smooth step (V0/2)(1 + tanh(x / 2 alpha))."""
    return 0.5 * v0 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=float) / alpha))


def potential(spec: PotentialSpec, x):
    """Evaluate the potential described by ``spec`` at x (scalar or array)."""
    if spec.kind is PotentialKind.PLUS:
        return v_plus(x, spec.m)
    if spec.kind is PotentialKind.MINUS:
        return v_minus(x, spec.m)
    return v_step(x, spec.v0, spec.alpha)


def potential_hyperbolic(spec: PotentialSpec, x):
    """Partner potentials in tanh form,

        mu^2 (1 + tanh(x/2)) -/+ (mu/4) sqrt(1 - tanh(x/2)) / cosh(x/2)

    with mu = m / sqrt(2).  Algebraically identical to ``potential`` for
    the partner kinds; kept as an independent evaluation route.
    """
    if spec.kind is PotentialKind.STEP:
        raise DomainError("hyperbolic form applies to the partner potentials only")
    mu = spec.m / math.sqrt(2.0)
    x = np.asarray(x, dtype=float)
    th = np.tanh(0.5 * x)
    second = 0.25 * mu * np.sqrt(1.0 - th) / np.cosh(0.5 * x)
    if spec.kind is PotentialKind.PLUS:
        return mu * mu * (1.0 + th) - second
    return mu * mu * (1.0 + th) + second


def potential_antiderivative(spec: PotentialSpec, x):
    """An antiderivative of V+/-:

        m^2 ln(e^x + 1) -/+ m e^(x/2) / (e^x + 1)^(1/2)

    with the integration constant fixed to 0.  Grows like m^2 x as
    x -> +infinity, so the full-line integral of V+/- diverges.
    """
    if spec.kind is PotentialKind.STEP:
        raise DomainError("antiderivative is provided for the partner potentials only")
    m = spec.m
    log_term = m * m * np.logaddexp(0.0, x)
    half = m * np.exp(0.5 * (x - np.logaddexp(0.0, x)))
    if spec.kind is PotentialKind.PLUS:
        return log_term - half
    return log_term + half


def shape_invariance_check(m: float, x):
    """V+(x, m) - V-(x, -m); identically zero.

    The partner pair is multiplicatively shape invariant with parameter map
    m -> -m and vanishing remainder, so this difference is an exact-zero
    contract checked by the tests.  Accepts any m != 0.
    """
    if m == 0:
        raise DomainError("shape invariance check requires m != 0")
    return v_plus(x, m) - v_minus(x, -m)
