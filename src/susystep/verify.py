"""Self-verification suites behind the ``verify`` CLI subcommand.

Each check evaluates one analytic contract (closed-form equivalence, flux conservation, SUSY identities, Wronskian
constancy, wave-equation residuals, quasinormal poles, potential identities) and reports its worst residual against the
contracted tolerance.  A run makes one amplitude call for (V+, V-, step) over its 150 (omega, m) cases (one Gamma
pass), timed in the closed-form row; the flux and SUSY rows read the same results.  The Wronskian and wave-equation
rows read one ``solution_checks`` call per run, timed in the Wronskian row: both branches and partners of 3 (omega, m)
cases at 21 z, with the shifted parameter sets of their exact derivatives, in one 2F1 call per component (4 Gamma
passes); they are held relative to the Wronskian's constant and to the equation's term sizes.  One |1/T| call covers
the 6 quasinormal poles (no Gamma pass) and the 6 perturbed frequencies, and one call per potential function covers the
8 couplings' 16 partners at 64 x (the antiderivative at x +- h), fixed grids that leave ``numpy.random`` unloaded.  The
SUSY check can fail only through its T relation: R- is -R+ by construction.  ``full`` adds two oracle checks on one
sweep per run, timed in the agreement row: one sixth-order Magnus scan of the 3 specs' 12 (spec, omega) rows over x in
[-30, 15] at step 0.1 (``ORACLE_CONFIG``, 450 steps per row) and one closed-form fit of them all (no LAPACK call).
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

# Error budget in R and T, the edges' tails taken to first order: 1.3e-13 beyond x = 15, 1.6e-12 beyond -30; step h^6, 7.8e-11
ORACLE_CONFIG = oracle.IntegrationConfig(x_min=-30.0, x_max=15.0, step=0.1)


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_residual: float
    tolerance: float
    seconds: float

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tolerance


def _cases():
    """The (omega, m) case columns of the amplitude checks: m (1 + 5 i/50), i = 1 .. 50, for m = 0.5, 1, 2."""
    m = np.repeat((0.5, 1.0, 2.0), 50)
    return m * (1.0 + 5.0 * np.tile(np.arange(1, 51), 3) / 50), m


def _check(name, tolerance, fn):
    start = time.perf_counter()
    residual = float(fn())
    return CheckResult(name=name, max_residual=residual, tolerance=tolerance,
                       seconds=time.perf_counter() - start)


def _closed_form_equivalence(amplitudes):
    plus = amplitudes()[0]
    closed = scattering.coefficients_closed_form(plus.omega, plus.m)
    return max(np.max(np.abs(got - c) / np.maximum(np.abs(c), np.abs(got))) for got, c in zip((plus.R2, plus.T2), closed))


def _flux_conservation(results):
    return max(np.max(np.abs(res.flux - 1.0)) for res in results())


# the Wronskian row reads all 3 cases at z = 0.2, 0.5 (Z_SWITCH), 0.8, the wave-equation row 2 cases at the linspace
_SOLUTION_CASES = np.array([2.0, 1.5, 3.0]), np.array([1.0, 1.0, 2.0])
_SOLUTION_Z = np.array(sorted({*np.linspace(0.05, 0.95, 19).tolist(), 0.2, 0.5, 0.8}))  # np.union1d costs 1.7 MB of RSS
_WRONSKIAN_Z, _WAVE_Z = np.searchsorted(_SOLUTION_Z, [0.2, 0.5, 0.8]), np.searchsorted(_SOLUTION_Z, np.linspace(0.05, 0.95, 19))


def _wronskian_constancy(solved):
    (omega, m), signs = (v[:, None] for v in _SOLUTION_CASES), np.array([1, -1])
    values = solved()[0][..., _WRONSKIAN_Z]  # (case, sign, z)
    expected = (signs * 2.0 * omega / m * (1.0 - (2j * omega + 0.5)))[..., None]  # (case, sign, 1)
    return max(np.max(np.abs(v) / np.abs(expected)) for v in (values - expected, values[..., :1] - values[..., -1:]))


def _wave_equation_residual(solved):
    return np.max(solved()[1][:2, ..., _WAVE_Z])


def _qnm_poles():
    poles = np.array([scattering.qnm(PotentialKind.PLUS, n, 1.0) for n in range(6)])
    at_poles, off = scattering.inverse_transmission_magnitude(PotentialKind.PLUS, np.r_[poles, poles + 0.1], 1.0).reshape(2, -1)
    return max(np.max(at_poles), 1.0 if np.any(off <= 1e-3) else 0.0)  # a perturbed frequency must NOT look like a pole


def _potential_identities():
    xs, ms = np.linspace(-40.0, 40.0, 64), np.linspace(0.2, 4.0, 8)
    h, specs = 1e-5, tuple(spec for m in ms for spec in (PotentialSpec.plus(m), PotentialSpec.minus(m)))
    v = potential(specs, xs)  # one call per function for the 8 couplings' 16 partners
    sides = potential_antiderivative(specs, xs + np.array([[h], [-h]]))  # (spec, x + h or x - h, x)
    residuals = [shape_invariance_check(ms, xs), v - potential_hyperbolic(specs, xs), (sides[:, 0] - sides[:, 1]) / (2 * h) - v]
    return max(np.max(np.abs(r)) for r in residuals)


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
               for num, ana in zip(sweep(), amplitudes()))


def run_checks(level: str = QUICK):
    """Run the verification suite; returns a list of CheckResult."""
    if level not in (QUICK, FULL):
        raise DomainError(f"level must be {QUICK!r} or {FULL!r}, got {level!r}")
    cases, kinds = _cases(), (PotentialKind.PLUS, PotentialKind.MINUS, PotentialKind.STEP)
    amplitudes = functools.cache(lambda: scattering.reflection_transmission(kinds, *cases))
    solved = functools.cache(lambda: solutions.solution_checks(np.array([1, -1]), *_SOLUTION_CASES, _SOLUTION_Z))
    results = [
        _check("closed-form equivalence (Gamma vs sinh)", 1e-10, lambda: _closed_form_equivalence(amplitudes)),
        _check("flux conservation", 1e-9, lambda: _flux_conservation(amplitudes)),
        _check("SUSY amplitude relations", 1e-11, lambda: np.max(np.abs(scattering.susy_relation_check(*amplitudes()[:2])))),
        _check("Wronskian value and constancy", 1e-11, lambda: _wronskian_constancy(solved)),
        _check("wave-equation residual in z", 1e-10, lambda: _wave_equation_residual(solved)),
        _check("quasinormal transmission poles", 1e-6, _qnm_poles),
        _check("potential identities", 1e-8, _potential_identities),
        _check("reflection-difference window", 0.5, _figure_difference_window),
    ]
    if level == FULL:
        sweep = functools.cache(lambda: oracle.numerical_rt(_ORACLE_SPECS, cases[0][_ORACLE_CASES], ORACLE_CONFIG))
        results.append(_check("oracle amplitude agreement", 1e-8, lambda: _oracle_agreement(sweep, amplitudes)))
        results.append(_check("oracle flux conservation", 1e-9, lambda: _flux_conservation(sweep)))
    return results
