"""Acceptance suite.

Every criterion below runs at its contracted tolerance and prints one
PASS/FAIL line (visible with ``pytest -s`` or on failure).  The stated
runtime budgets are asserted too; all are met with wide margins.
"""

import math
import time

import numpy as np
import pytest

from susystep.errors import DegenerateCError
from susystep.oracle import numerical_rt
from susystep.potentials import (
    PotentialKind,
    PotentialSpec,
    potential,
    potential_antiderivative,
    potential_hyperbolic,
    shape_invariance_check,
)
from susystep.scattering import (
    coefficients_closed_form,
    inverse_transmission_magnitude,
    qnm,
    qnm_pole_check,
    reflection_transmission,
    step_amplitudes,
    step_reflection_closed_form,
    susy_relation_check,
)
from susystep.solutions import exact_solution_at_z, solution_checks

PLUS, MINUS, STEP = PotentialKind.PLUS, PotentialKind.MINUS, PotentialKind.STEP


def _report(number, name, passed, detail, elapsed, budget):
    status = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number} {status} {name}: {detail} [{elapsed:.2f}s / budget {budget:.0f}s]")
    assert passed, f"criterion {number} ({name}): {detail}"
    assert elapsed < budget, f"criterion {number} exceeded budget: {elapsed:.2f}s >= {budget}s"


def _omega_grid(m, count=50):
    return [m * (1.0 + 5.0 * i / count) for i in range(1, count + 1)]


def test_criterion_1_closed_form_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for m in (0.5, 1.0, 2.0):
        for omega in _omega_grid(m):
            res = reflection_transmission(PLUS, omega, m)
            r2, t2 = coefficients_closed_form(omega, m)
            worst = max(worst, abs(res.R2 - r2) / max(r2, res.R2))
            worst = max(worst, abs(res.T2 - t2) / max(t2, res.T2))
    _report(1, "Gamma products equal sinh closed forms", worst < 1e-10,
            f"max relative difference {worst:.3e} (tol 1e-10)",
            time.perf_counter() - start, 1.0)


def test_criterion_2_flux_conservation():
    start = time.perf_counter()
    worst = 0.0
    for m in (0.5, 1.0, 2.0):
        for omega in _omega_grid(m):
            for kind in (PLUS, MINUS):
                worst = max(worst, abs(reflection_transmission(kind, omega, m).flux - 1.0))
            worst = max(worst, abs(step_amplitudes(omega, m).flux - 1.0))
    _report(2, "flux conservation |R|^2 + (k'/w)|T|^2 = 1", worst < 1e-9,
            f"max |flux - 1| = {worst:.3e} (tol 1e-9)",
            time.perf_counter() - start, 1.0)


def test_criterion_3_susy_relations():
    start = time.perf_counter()
    worst = 0.0
    for m in (0.5, 1.0, 2.0):
        for omega in _omega_grid(m):
            r_sum, t_diff = susy_relation_check(*reflection_transmission((PLUS, MINUS), omega, m))
            worst = max(worst, abs(r_sum), abs(t_diff))
    _report(3, "SUSY relations R+ = -R- and T+ = (iw/(m+ik')) T-", worst < 1e-11,
            f"max residual {worst:.3e} (tol 1e-11)",
            time.perf_counter() - start, 1.0)


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for omega in (1.2, 1.5, 2.0, 3.0):
        for spec in (PotentialSpec.plus(1.0), PotentialSpec.minus(1.0), PotentialSpec.step(1.0)):
            num = numerical_rt(spec, omega)
            if spec.kind is STEP:
                ana = step_amplitudes(omega, 1.0)
            else:
                ana = reflection_transmission(spec.kind, omega, 1.0)
            worst = max(worst, abs(num.R - ana.R), abs(num.T - ana.T))
    _report(4, "integrated R, T agree with analytic amplitudes", worst < 1e-10,
            f"max |amplitude difference| {worst:.3e} (tol 1e-10, sixth-order Magnus, x in [-30,30], step 1e-3)",
            time.perf_counter() - start, 60.0)


def _zform_residual(branch, sign, omega, m, z):
    h = 0.01 * z * (1.0 - z)
    f = [exact_solution_at_z(branch, sign, omega, m, z + k * h) for k in (-2, -1, 0, 1, 2)]
    d1 = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
    d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
    q = (omega * omega - m * m) / (1 - z) + omega * omega / z + sign * m / (2 * math.sqrt(z))
    res = (1 - 2 * z) * d1 + z * (1 - z) * d2 + q * f[2]
    return abs(res) / (abs(q * f[2]) + abs((1 - 2 * z) * d1) + abs(z * (1 - z) * d2))


def test_criterion_5_wavefunction_validity():
    start = time.perf_counter()
    pairs = [(2.0, 1.0), (1.5, 1.0), (3.0, 2.0)]
    zs = np.linspace(0.05, 0.95, 19)
    worst_ode = 0.0
    for omega, m in pairs:
        for branch in ("I", "II"):
            for sign in (1, -1):
                worst_ode = max(worst_ode, max(_zform_residual(branch, sign, omega, m, float(z)) for z in zs))
    worst_wronskian = 0.0
    for omega, m in pairs:
        c1 = 0.5 + 2j * omega
        for sign in (1, -1):
            expected = sign * 2.0 * omega / m * (1.0 - c1)
            samples = [solution_checks(sign, omega, m, z)[0] for z in (0.2, 0.5, 0.8)]
            worst_wronskian = max(worst_wronskian, max(abs(v - expected) for v in samples) / abs(expected))
            worst_wronskian = max(worst_wronskian, abs(samples[0] - samples[2]) / abs(expected))
    passed = worst_ode < 1e-7 and worst_wronskian < 1e-11
    _report(5, "wave equation residual and Wronskian", passed,
            f"max scaled residual {worst_ode:.3e} (tol 1e-7), "
            f"max relative Wronskian deviation {worst_wronskian:.3e} (tol 1e-11)",
            time.perf_counter() - start, 5.0)


def test_criterion_6_qnm_poles():
    start = time.perf_counter()
    worst_pole = 0.0
    min_perturbed = float("inf")
    for n in range(6):
        worst_pole = max(worst_pole, qnm_pole_check(PLUS, n, 1.0))
        omega = qnm(PLUS, n, 1.0) + 0.1
        min_perturbed = min(min_perturbed, inverse_transmission_magnitude(PLUS, omega, 1.0))
    formula_exact = all(
        qnm(STEP, n, 1.0) == -0.5j * (n + 1.0 - 1.0 / (n + 1.0)) for n in range(6)
    )
    passed = worst_pole < 1e-6 and min_perturbed > 1e-3 and formula_exact
    _report(6, "transmission poles at quasinormal frequencies", passed,
            f"max |1/T| at poles {worst_pole:.3e} (tol 1e-6), "
            f"min perturbed |1/T| {min_perturbed:.3e} (must exceed 1e-3), "
            f"step formula exact: {formula_exact}",
            time.perf_counter() - start, 2.0)


def test_criterion_7_reflection_difference_reproduction():
    start = time.perf_counter()
    grid = np.linspace(1.05, 3.0, 391)
    peak = float(np.max(np.abs(coefficients_closed_form(grid, 1.0)[0] - step_reflection_closed_form(grid, 1.0))))
    golden = 0.00035481223524415351  # frozen double-precision evaluation
    passed = 1e-4 < peak < 0.05 and abs(peak - golden) < 1e-15
    _report(7, "partner-vs-step reflection difference window", passed,
            f"max difference {peak:.6e} in (1e-4, 0.05), golden {golden:.6e}",
            time.perf_counter() - start, 1.0)


def test_criterion_8_potential_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(947)
    xs = rng.uniform(-40.0, 40.0, size=128)
    ms = rng.uniform(0.1, 4.0, size=16)
    worst_shape = 0.0
    worst_forms = 0.0
    worst_deriv = 0.0
    h = 1e-5
    for m in ms:
        worst_shape = max(worst_shape, float(np.max(np.abs(shape_invariance_check(m, xs)))))
        for spec in (PotentialSpec.plus(m), PotentialSpec.minus(m)):
            v = potential(spec, xs)
            worst_forms = max(worst_forms, float(np.max(np.abs(v - potential_hyperbolic(spec, xs)))))
            grad = (potential_antiderivative(spec, xs + h) - potential_antiderivative(spec, xs - h)) / (2 * h)
            worst_deriv = max(worst_deriv, float(np.max(np.abs(grad - v))))
    passed = worst_shape < 1e-14 and worst_forms < 1e-12 and worst_deriv < 1e-8
    _report(8, "potential identities", passed,
            f"shape invariance {worst_shape:.3e} (tol 1e-14), "
            f"hyperbolic-exponential {worst_forms:.3e} (tol 1e-12), "
            f"antiderivative derivative {worst_deriv:.3e} (tol 1e-8)",
            time.perf_counter() - start, 1.0)
