"""Self-verification suites behind the ``verify`` CLI subcommand.

Each check evaluates one analytic contract (closed-form equivalence, flux
conservation, SUSY identities, Wronskian constancy, wave-equation
residuals, quasinormal poles, potential identities) and reports its worst
residual against the contracted tolerance; the Wronskian and wave-equation
checks each take all their (omega, m) cases, both branches and both
partners from one 2F1 call per component.
The SUSY check can fail only through its T relation: R- is -R+ by
construction, so R+ + R- reads exactly 0.
``full`` adds the two oracle checks, which read one oracle sweep per run:
one Magnus-4 march per (spec, omega) at ``ORACLE_CONFIG``, timed in the
agreement row.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from . import oracle, scattering, solutions
from .errors import DomainError
from .potentials import (
    PotentialKind,
    PotentialSpec,
    potential,
    potential_antiderivative,
    potential_hyperbolic,
    shape_invariance_check,
)

__all__ = ["CheckResult", "run_checks", "QUICK", "FULL", "ORACLE_CONFIG"]

QUICK = "quick"
FULL = "full"

ORACLE_CONFIG = oracle.IntegrationConfig(x_min=-45.0, x_max=45.0, step=0.02)


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_residual: float
    tolerance: float
    seconds: float

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tolerance


def _omega_grid(m: float, count: int = 50):
    return m * (1.0 + 5.0 * np.arange(1, count + 1) / count)


def _check(name, tolerance, fn):
    start = time.perf_counter()
    residual = float(fn())
    return CheckResult(name=name, max_residual=residual, tolerance=tolerance,
                       seconds=time.perf_counter() - start)


def _closed_form_equivalence():
    worst = 0.0
    for m in (0.5, 1.0, 2.0):
        omega = _omega_grid(m)
        res = scattering.reflection_transmission(PotentialKind.PLUS, omega, m)
        r2, t2 = scattering.coefficients_closed_form(omega, m)
        worst = max(worst, np.max(np.abs(res.R2 - r2) / np.maximum(np.abs(r2), np.abs(res.R2))))
        worst = max(worst, np.max(np.abs(res.T2 - t2) / np.maximum(np.abs(t2), np.abs(res.T2))))
    return worst


def _flux_conservation():
    worst = 0.0
    for m in (0.5, 1.0, 2.0):
        omega = _omega_grid(m)
        for res in (scattering.reflection_transmission(PotentialKind.PLUS, omega, m),
                    scattering.reflection_transmission(PotentialKind.MINUS, omega, m),
                    scattering.step_amplitudes(omega, m)):
            worst = max(worst, np.max(np.abs(res.flux - 1.0)))
    return worst


def _susy_relations():
    worst = 0.0
    for m in (0.5, 1.0, 2.0):
        r_sum, t_diff = scattering.susy_relation_check(_omega_grid(m, count=20), m)
        worst = max(worst, np.max(np.abs(r_sum)), np.max(np.abs(t_diff)))
    return worst


def _wronskian_constancy():
    omega, m, signs = np.array([[2.0], [1.5], [3.0]]), np.array([[1.0], [1.0], [2.0]]), np.array([1, -1])
    values = solutions.wronskian(signs, omega[:, 0], m[:, 0], np.array([0.2, 0.5, 0.8]))  # (case, sign, z)
    expected = signs * 2.0 * omega / m * (1.0 - (2j * omega + 0.5))  # (case, sign)
    return max(np.max(np.abs(values - expected[..., None])), np.max(np.abs(values[..., 0] - values[..., -1])))


def _wave_equation_residual():
    z = np.linspace(0.05, 0.95, 19)
    return np.max(solutions.wave_equation_residual(("I", "II"), np.array([1, -1]), np.array([2.0, 1.5]), 1.0, z))


def _qnm_poles():
    worst = 0.0
    for n in range(6):
        worst = max(worst, scattering.qnm_pole_check(PotentialKind.PLUS, n, 1.0))
        omega = scattering.qnm(PotentialKind.PLUS, n, 1.0)
        off = scattering.inverse_transmission_magnitude(PotentialKind.PLUS, omega + 0.1, 1.0)
        if off <= 1e-3:  # perturbed frequency must NOT look like a pole
            worst = max(worst, 1.0)
    return worst


def _potential_identities():
    rng = np.random.default_rng(20240813)
    xs = rng.uniform(-40.0, 40.0, size=64)
    ms = rng.uniform(0.2, 4.0, size=8)
    worst = 0.0
    for m in ms:
        worst = max(worst, float(np.max(np.abs(shape_invariance_check(m, xs)))))
        for spec in (PotentialSpec.plus(m), PotentialSpec.minus(m)):
            worst = max(worst, float(np.max(np.abs(potential(spec, xs) - potential_hyperbolic(spec, xs)))))
            h = 1e-5
            deriv = (potential_antiderivative(spec, xs + h) - potential_antiderivative(spec, xs - h)) / (2 * h)
            worst = max(worst, float(np.max(np.abs(deriv - potential(spec, xs)))))
    return worst


def _figure_difference_window():
    grid = np.linspace(1.05, 3.0, 391)
    peak = np.max(np.abs(scattering.coefficients_closed_form(grid, 1.0)[0]
                         - scattering.step_reflection_closed_form(grid, 1.0)))
    # contract: visible in a difference plot (> 1e-4) yet invisible at
    # reflection-plot scale (< 0.05)
    if not 1e-4 < peak < 0.05:
        return 1.0
    return 0.0


_ORACLE_SPECS = (PotentialSpec.plus(1.0), PotentialSpec.minus(1.0), PotentialSpec.step(1.0))


def _oracle_agreement(sweep):
    worst = 0.0
    for spec in _ORACLE_SPECS:
        num = sweep(spec)
        if spec.kind is PotentialKind.STEP:
            ana = scattering.step_amplitudes(num.omega, 1.0)
        else:
            ana = scattering.reflection_transmission(spec.kind, num.omega, 1.0)
        worst = max(worst, np.max(np.abs(num.R - ana.R)), np.max(np.abs(num.T - ana.T)))
    return worst


def _oracle_flux(sweep):
    return max(np.max(np.abs(sweep(spec).flux - 1.0)) for spec in _ORACLE_SPECS)


def run_checks(level: str = QUICK, inject_failure: bool = False):
    """Run the verification suite; returns a list of CheckResult."""
    if level not in (QUICK, FULL):
        raise DomainError(f"level must be {QUICK!r} or {FULL!r}, got {level!r}")
    results = [
        _check("closed-form equivalence (Gamma vs sinh)", 1e-10, _closed_form_equivalence),
        _check("flux conservation", 1e-9, _flux_conservation),
        _check("SUSY amplitude relations", 1e-11, _susy_relations),
        _check("Wronskian value and constancy", 1e-9, _wronskian_constancy),
        _check("wave-equation residual in z", 1e-8, _wave_equation_residual),
        _check("quasinormal transmission poles", 1e-6, _qnm_poles),
        _check("potential identities", 1e-8, _potential_identities),
        _check("reflection-difference window", 0.5, _figure_difference_window),
    ]
    if level == FULL:
        sweep = functools.cache(lambda spec: oracle.numerical_rt(spec, np.array([1.2, 1.5, 2.0, 3.0]), ORACLE_CONFIG))
        results.append(_check("oracle amplitude agreement", 1e-8, lambda: _oracle_agreement(sweep)))
        results.append(_check("oracle flux conservation", 1e-9, lambda: _oracle_flux(sweep)))
    if inject_failure:
        # Negative control: report the Wronskian check against a constant
        # perturbed by 1e-3; it must fail and drive a nonzero exit status.
        def perturbed():
            value = solutions.wronskian(1, 2.0, 1.0, 0.3)
            expected = 2.0 * 2.0 / 1.0 * (1.0 - (2j * 2.0 + 0.5)) + 1e-3
            return abs(value - expected)

        results.append(_check("failure injection (perturbed constant)", 1e-9, perturbed))
    return results
