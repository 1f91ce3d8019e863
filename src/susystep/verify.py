"""Self-verification suites behind the ``verify`` CLI subcommand.

Each check evaluates one analytic contract (closed-form equivalence, flux conservation, SUSY
identities, Wronskian constancy, wave-equation residuals, quasinormal poles, potential identities)
and reports its worst residual against the contracted tolerance.  A run makes one (V+, V-) and one
step amplitude call over its 150 (omega, m) cases, timed in the closed-form row, and one SUSY call
over 60; the Wronskian and wave-equation checks each take all their cases, branches and partners
from one 2F1 call per component; one |1/T| call covers the 6 quasinormal poles (no Gamma pass) and
one the 6 perturbed frequencies; a potential and an antiderivative call (at x +- h) cover each
partner.  The SUSY check can fail only through its T relation: R- is -R+ by construction.  ``full``
adds two oracle checks on one sweep per run, timed in the agreement row: a Magnus-4 scan per spec of
its 4 omegas over x in [-55, 30] at step 0.028 (``ORACLE_CONFIG``, 3 036 steps per omega).
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

# Error budget in R and T: right tail e^(-x), 1.4e-13 beyond x = 30; left tail e^(x/2), 2.8e-12 beyond -55 (4.2e-10 beyond -45);
# Magnus-4 step h^4, 4.7e-10 at 0.028.  DEFAULT_CONFIG's 7.5e-7 is its -30 left edge; bench/test_bench.py pins its 60 000 steps.
ORACLE_CONFIG = oracle.IntegrationConfig(x_min=-55.0, x_max=30.0, step=0.028)


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_residual: float
    tolerance: float
    seconds: float

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tolerance


def _cases(count=50):
    """The (omega, m) case columns of the amplitude checks: m (1 + 5 i/count), i = 1 .. count, for m = 0.5, 1, 2."""
    m = np.repeat((0.5, 1.0, 2.0), count)
    return m * (1.0 + 5.0 * np.tile(np.arange(1, count + 1), 3) / count), m


def _check(name, tolerance, fn):
    start = time.perf_counter()
    residual = float(fn())
    return CheckResult(name=name, max_residual=residual, tolerance=tolerance,
                       seconds=time.perf_counter() - start)


def _closed_form_equivalence(amplitudes):
    plus = amplitudes()[0]
    closed = scattering.coefficients_closed_form(plus.omega, plus.m)
    return max(np.max(np.abs(got - c) / np.maximum(np.abs(c), np.abs(got))) for got, c in zip((plus.R2, plus.T2), closed))


def _flux_conservation(amplitudes):
    return max(np.max(np.abs(res.flux - 1.0)) for res in amplitudes())


def _susy_relations():
    return max(np.max(np.abs(v)) for v in scattering.susy_relation_check(*_cases(count=20)))


def _wronskian_constancy():
    omega, m, signs = np.array([[2.0], [1.5], [3.0]]), np.array([[1.0], [1.0], [2.0]]), np.array([1, -1])
    values = solutions.wronskian(signs, omega[:, 0], m[:, 0], np.array([0.2, 0.5, 0.8]))  # (case, sign, z)
    expected = signs * 2.0 * omega / m * (1.0 - (2j * omega + 0.5))  # (case, sign)
    return max(np.max(np.abs(values - expected[..., None])), np.max(np.abs(values[..., 0] - values[..., -1])))


def _wave_equation_residual():
    z = np.linspace(0.05, 0.95, 19)
    return np.max(solutions.wave_equation_residual(("I", "II"), np.array([1, -1]), np.array([2.0, 1.5]), 1.0, z))


def _qnm_poles():
    omegas = np.array([scattering.qnm(PotentialKind.PLUS, n, 1.0) for n in range(6)])
    at_poles = scattering.inverse_transmission_magnitude(PotentialKind.PLUS, omegas, 1.0)
    off = scattering.inverse_transmission_magnitude(PotentialKind.PLUS, omegas + 0.1, 1.0)
    return max(np.max(at_poles), 1.0 if np.any(off <= 1e-3) else 0.0)  # a perturbed frequency must NOT look like a pole


def _potential_identities():
    rng = np.random.default_rng(20240813)
    xs = rng.uniform(-40.0, 40.0, size=64)
    ms = rng.uniform(0.2, 4.0, size=8)
    h, residuals = 1e-5, []
    sides = xs + np.array([[h], [-h]])  # x + h and x - h, one antiderivative call per partner
    for m in ms:
        residuals.append(shape_invariance_check(m, xs))
        for spec in (PotentialSpec.plus(m), PotentialSpec.minus(m)):
            v = potential(spec, xs)
            ahead, behind = potential_antiderivative(spec, sides)
            residuals += [v - potential_hyperbolic(spec, xs), (ahead - behind) / (2 * h) - v]
    return np.max(np.abs(residuals))


def _figure_difference_window():
    # contract: visible in a difference plot (> 1e-4) yet invisible at reflection-plot scale (< 0.05)
    grid = np.linspace(1.05, 3.0, 391)
    peak = np.max(np.abs(scattering.coefficients_closed_form(grid, 1.0)[0]
                         - scattering.step_reflection_closed_form(grid, 1.0)))
    return 0.0 if 1e-4 < peak < 0.05 else 1.0


# V+, V- and the step at m = 1, as the amplitude columns; omega = 1.2, 1.5, 2 and 3 are cases of the m = 1 grid
_ORACLE_SPECS = (PotentialSpec.plus(1.0), PotentialSpec.minus(1.0), PotentialSpec.step(1.0))
_ORACLE_CASES = np.array([51, 54, 59, 69])


def _oracle_agreement(sweep, amplitudes):
    return max(max(np.max(np.abs(num.R - ana.R[_ORACLE_CASES])), np.max(np.abs(num.T - ana.T[_ORACLE_CASES])))
               for num, ana in zip(map(sweep, _ORACLE_SPECS), amplitudes()))


def _oracle_flux(sweep):
    return max(np.max(np.abs(sweep(spec).flux - 1.0)) for spec in _ORACLE_SPECS)


def run_checks(level: str = QUICK, inject_failure: bool = False):
    """Run the verification suite; returns a list of CheckResult."""
    if level not in (QUICK, FULL):
        raise DomainError(f"level must be {QUICK!r} or {FULL!r}, got {level!r}")
    cases, partners = _cases(), (PotentialKind.PLUS, PotentialKind.MINUS)
    amplitudes = functools.cache(lambda: (*scattering.reflection_transmission(partners, *cases), scattering.step_amplitudes(*cases)))
    results = [
        _check("closed-form equivalence (Gamma vs sinh)", 1e-10, lambda: _closed_form_equivalence(amplitudes)),
        _check("flux conservation", 1e-9, lambda: _flux_conservation(amplitudes)),
        _check("SUSY amplitude relations", 1e-11, _susy_relations),
        _check("Wronskian value and constancy", 1e-9, _wronskian_constancy),
        _check("wave-equation residual in z", 1e-8, _wave_equation_residual),
        _check("quasinormal transmission poles", 1e-6, _qnm_poles),
        _check("potential identities", 1e-8, _potential_identities),
        _check("reflection-difference window", 0.5, _figure_difference_window),
    ]
    if level == FULL:
        sweep = functools.cache(lambda spec: oracle.numerical_rt(spec, cases[0][_ORACLE_CASES], ORACLE_CONFIG))
        results.append(_check("oracle amplitude agreement", 1e-8, lambda: _oracle_agreement(sweep, amplitudes)))
        results.append(_check("oracle flux conservation", 1e-9, lambda: _oracle_flux(sweep)))
    if inject_failure:  # negative control: the Wronskian against a constant off by 1e-3 must fail
        expected = 2.0 * 2.0 / 1.0 * (1.0 - (2j * 2.0 + 0.5)) + 1e-3
        results.append(_check("failure injection (perturbed constant)", 1e-9,
                              lambda: abs(solutions.wronskian(1, 2.0, 1.0, 0.3) - expected)))
    return results
