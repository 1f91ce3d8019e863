"""Numerical-integration oracle tests: free-particle exactness, convergence
order, agreement with the analytic solutions and amplitudes, and the error
paths of the configuration and matching machinery."""

import cmath
import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from _oracles import magnus_march_oracle

import susystep.oracle as oracle_mod
import susystep.scattering as scattering_mod
import susystep.verify as verify_mod
from susystep.errors import BlowUpError, ConfigError, DomainError, IllConditionedError
from susystep.oracle import IntegrationConfig, extract_rt, integrate_wavefunction, numerical_rt
from susystep.potentials import PotentialKind, PotentialSpec, potential
from susystep.scattering import (
    coefficients_closed_form,
    reflection_transmission,
    step_amplitudes,
    step_reflection_closed_form,
)
from susystep.solutions import sample_wavefield
from susystep.verify import FULL, ORACLE_CONFIG, run_checks

FREE = PotentialSpec.step(0.0, 1.0)  # V identically 0


def test_free_particle_stays_plane_wave():
    # a constant potential makes every Magnus step the exact propagator, so
    # only rounding is left (about 1.6e-12 over the 60 000 steps)
    field = integrate_wavefunction(FREE, 2.0)
    exact = np.exp(2j * field.grid)
    assert float(np.max(np.abs(field.values - exact))) < 1e-11


def test_free_particle_extraction():
    res = numerical_rt(FREE, 2.0)
    assert abs(res.R) < 1e-11
    assert abs(res.T - 1.0) < 1e-11
    assert abs(res.flux - 1.0) < 1e-11


def test_convergence_order():
    # halving the step must shrink the field's deviation from an h/4 march
    # by at least 2^(order-1) = 8; Magnus-4 gives ~16.  The free particle
    # cannot show this (its steps are exact), so V+ is marched
    spec = PotentialSpec.plus(1.0)
    for omega in (1.2, 2.0):
        ref = integrate_wavefunction(spec, omega, IntegrationConfig(step=0.0025)).values
        errs = []
        for step, stride in ((0.02, 8), (0.01, 4)):
            field = integrate_wavefunction(spec, omega, IntegrationConfig(step=step))
            errs.append(float(np.max(np.abs(field.values - ref[::stride]))))
        assert errs[0] / errs[1] >= 2.0 ** (4 - 1), omega


@pytest.mark.parametrize("s2", [0.00999, -0.00999, -1e-3])
def test_step_series_meet_cmath_at_the_bound(monkeypatch, s2):
    # under a constant potential q = V - omega^2 each step is exactly
    # cosh(s) I + (sinh(s)/s) [[0, -h], [-h q, 0]] with s^2 = h^2 q; the
    # march sums cosh and sinh(s)/s as 5-term series, which must meet
    # cmath's to rounding up to the step bound |s^2| < 0.01
    omega, h = 0.002, 30.0
    q = s2 / (h * h)
    monkeypatch.setattr(oracle_mod, "potential", lambda spec, x: np.full(np.shape(x), q + omega * omega))
    field = integrate_wavefunction(FREE, omega, TWO_STEPS)
    s = cmath.sqrt(s2)
    cosh_s, sinhc_s = cmath.cosh(s), cmath.sinh(s) / s
    zc = cmath.exp(1j * omega * 30.0)
    dz = 1j * omega * zc
    expected = [zc]
    for _ in range(2):
        zc, dz = cosh_s * zc - h * sinhc_s * dz, -h * q * sinhc_s * zc + cosh_s * dz
        expected.append(zc)
    assert np.max(np.abs(field.values - expected[::-1])) <= 1e-15


def test_field_matches_solution_combination():
    # the integrated field is some fixed linear combination of the two
    # exact branches; fit the two constants on interior samples
    field = integrate_wavefunction(PotentialSpec.plus(1.0), 2.0)
    sel = (field.grid >= -10.0) & (field.grid <= 10.0)
    xs = field.grid[sel][::100]
    vals = field.values[sel][::100]
    z_i = sample_wavefield("I", 1, 2.0, 1.0, xs).values
    z_ii = sample_wavefield("II", 1, 2.0, 1.0, xs).values
    design = np.column_stack([z_i, z_ii])
    coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
    residual = np.abs(design @ coef - vals)
    assert float(np.max(residual)) < 1e-6 * float(np.max(np.abs(vals)))


@pytest.mark.parametrize("kind", [PotentialKind.PLUS, PotentialKind.MINUS])
def test_partner_amplitudes_match_closed_forms(kind):
    spec = PotentialSpec.plus(1.0) if kind is PotentialKind.PLUS else PotentialSpec.minus(1.0)
    num = numerical_rt(spec, 2.0)
    ana = reflection_transmission(kind, 2.0, 1.0)
    assert abs(num.R - ana.R) < 1e-5
    assert abs(num.T - ana.T) < 1e-5
    r2, _ = coefficients_closed_form(2.0, 1.0)
    assert abs(num.R2 - r2) < 1e-6
    assert abs(num.flux - 1.0) < 1e-6


def test_step_amplitudes_match_closed_forms():
    num = numerical_rt(PotentialSpec.step(1.0, 1.0), 2.0)
    ana = step_amplitudes(2.0, 1.0)
    assert abs(num.R - ana.R) < 1e-5
    assert abs(num.R2 - step_reflection_closed_form(2.0, 1.0)) < 1e-6
    assert abs(num.flux - 1.0) < 1e-6


def test_result_reports_the_coupling_solved():
    # the step's coupling is sqrt(V0), the convention of step_amplitudes;
    # the field carries it, and extract_rt reads it from there
    assert integrate_wavefunction(PotentialSpec.step(4.0), 3.0).m == 2.0
    assert numerical_rt(PotentialSpec.step(4.0), 3.0).m == 2.0
    # partners report spec.m exactly, not sqrt(m * m), which differs once
    # m * m is subnormal
    m = 1e-170
    assert math.sqrt(m * m) != m
    assert numerical_rt(PotentialSpec.plus(m), 2.0).m == m


# The march lays its n steps out as groups of width x width blocks, width =
# round(n^(1/3)) + 1, padded with identities up to a whole group.
COARSE = IntegrationConfig(step=0.01)  # n = 6000: 17 groups of 19 x 19, padded
UNPADDED = IntegrationConfig(x_min=-25.0, x_max=23.6, step=0.01)  # n = 4860 = 15 groups of 18 x 18
FEW_STEPS = IntegrationConfig(step=5.0)  # n = 12: 2 groups of 3 x 3, padded
TWO_STEPS = IntegrationConfig(step=30.0)  # n = 2: 1 group of 2 x 2, padded; one point to fit


@pytest.mark.parametrize(
    "spec, omega, cfg",
    [(spec, omega, COARSE)
     for spec in (PotentialSpec.plus(1.0), PotentialSpec.minus(1.0), PotentialSpec.step(1.0, 1.0))
     for omega in (1.2, 3.0)]
    + [(PotentialSpec.plus(1.0), 2.0, UNPADDED), (PotentialSpec.minus(1.0), 1.5, oracle_mod.DEFAULT_CONFIG),
       (FREE, 0.01, FEW_STEPS), (FREE, 0.002, TWO_STEPS)],  # omega h under the 0.1 stability bound
)
def test_march_matches_sequential_reference(spec, omega, cfg):
    # the three-level step-matrix march against a point-by-point complex march
    field = integrate_wavefunction(spec, omega, cfg)
    n = field.values.size - 1
    kprime = math.sqrt(omega * omega - spec.right_asymptote)
    ref = np.asarray(magnus_march_oracle(lambda xs: potential(spec, np.asarray(xs)), omega, kprime, cfg.x_min, cfg.x_max, n))
    assert float(np.max(np.abs(field.values - ref))) <= 1e-10 * float(np.max(np.abs(ref)))
    if cfg is TWO_STEPS:
        return  # its 5-unit matching window holds one grid point: no fit
    num = extract_rt(field)
    seq = extract_rt(dataclasses.replace(field, values=ref))
    # R = B/A and T = 1/A share the error of the fitted A, so both are
    # measured against the amplitude scale |R| + |T| (R is ~1e-8 at omega = 3)
    scale = abs(seq.R) + abs(seq.T)
    assert abs(num.R - seq.R) <= 1e-10 * scale
    assert abs(num.T - seq.T) <= 1e-10 * scale


@pytest.mark.parametrize("spec", [PotentialSpec.plus(1.0), PotentialSpec.minus(1.0), PotentialSpec.step(1.0, 1.0)])
def test_column_is_the_one_omega_calls(spec):
    # one march serves both forms, so the column equals the number calls
    # bit for bit, in the column's order
    omega = np.array([3.0, 1.2, 2.0, 1.5])
    col = numerical_rt(spec, omega, COARSE)
    one = [numerical_rt(spec, w, COARSE) for w in omega.tolist()]
    assert col.omega.tolist() == omega.tolist()
    assert col.R.tolist() == [r.R for r in one] and col.T.tolist() == [r.T for r in one]
    assert col.kprime.tolist() == [r.kprime for r in one]
    assert col.R2.tolist() == [r.R2 for r in one] and col.flux.tolist() == [r.flux for r in one]
    assert (col.m, col.kind) == (one[0].m, one[0].kind)
    # a list and an integer array are columns too
    assert numerical_rt(spec, [2, 3], COARSE).R.tolist() == [one[2].R, one[0].R]
    empty = numerical_rt(spec, np.array([]), COARSE)
    assert empty.R.shape == empty.T.shape == empty.kprime.shape == (0,)


def _counting(monkeypatch, name):
    calls = []
    real = getattr(oracle_mod, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(oracle_mod, name, counted)
    return calls


def test_column_samples_the_potential_once(monkeypatch):
    sampled = _counting(monkeypatch, "potential")
    numerical_rt(PotentialSpec.plus(1.0), np.array([1.2, 2.0, 3.0]), COARSE)
    assert len(sampled) == 1 and sampled[0][1].size == 2 * 6000 + 1


@pytest.mark.parametrize("omega", [2.0 + 0.1j, np.complex128(2.0), "2.0", math.nan, math.inf, None, -2.0,
                                   np.array([2.0, 2.0 + 0.1j]), np.array([2.0, math.nan]), np.array([-math.inf]),
                                   np.array([2.0, -2.0]), np.array(["2.0"]), np.array([[2.0, 3.0]])])
def test_bad_omega_is_a_domain_error(monkeypatch, omega):
    # complex, nan, infinite, negative (above threshold in omega^2, but
    # outside extract_rt's omega > m), non-numeric or not 1-d: a typed
    # error before the potential is sampled, from both forms
    sampled = _counting(monkeypatch, "potential")
    with pytest.raises(DomainError):
        numerical_rt(PotentialSpec.plus(1.0), omega)
    if np.ndim(omega) == 0:
        with pytest.raises(DomainError):
            integrate_wavefunction(PotentialSpec.plus(1.0), omega)
    assert sampled == []


def test_integrate_takes_one_omega():
    with pytest.raises(DomainError):
        integrate_wavefunction(PotentialSpec.plus(1.0), np.array([2.0]))


def test_column_checks_every_omega_before_any_work(monkeypatch):
    sampled = _counting(monkeypatch, "potential")
    marched = _counting(monkeypatch, "_march")
    with pytest.raises(ConfigError, match="omega = 0.5"):  # below threshold: before the potential
        numerical_rt(PotentialSpec.plus(1.0), np.array([2.0, 3.0, 0.5]))
    assert sampled == [] and marched == []
    with pytest.raises(ConfigError, match="at omega = 100.0"):  # too stiff: before any march
        numerical_rt(PotentialSpec.plus(1.0), np.array([2.0, 3.0, 100.0]))
    assert len(sampled) == 1 and marched == []


def test_stability_bound_at_its_edge():
    # V = 0, so max|V - omega^2| = omega^2 - min V: omega^2 h^2 = 0.01 (to
    # rounding) is rejected, just below it passes
    cfg = IntegrationConfig(step=0.05)
    with pytest.raises(ConfigError):
        integrate_wavefunction(FREE, 2.0, cfg)
    integrate_wavefunction(FREE, 1.99, cfg)


def test_column_blowup_names_omega_and_x(monkeypatch):
    monkeypatch.setattr(oracle_mod, "_BLOWUP_LIMIT", 0.5)
    with pytest.raises(BlowUpError, match=r"at x = 29\.999; omega = 3\.0 "):
        numerical_rt(FREE, np.array([3.0, 2.0]))


def test_column_holds_one_omega_at_a_time():
    # each omega is marched and fitted in turn, so a 4-omega column peaks
    # at about the memory of one omega
    def peak(omega):
        tracemalloc.start()
        try:
            numerical_rt(PotentialSpec.plus(1.0), omega)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(np.array([1.2, 1.5, 2.0, 3.0])) <= 1.25 * peak(2.0)


def test_oracle_sweep_flux():
    for omega in (1.2, 1.5, 2.0, 3.0):
        res = numerical_rt(PotentialSpec.plus(1.0), omega)
        assert abs(res.flux - 1.0) < 1e-6


def test_full_verify_marches_each_spec_and_omega_once(monkeypatch):
    # one oracle sweep per run serves both oracle checks, and no run reuses
    # another's: one scan per spec holding its 4 omegas, the potential
    # sampled once per spec
    specs = (PotentialSpec.plus(1.0), PotentialSpec.minus(1.0), PotentialSpec.step(1.0))
    omega = [1.2, 1.5, 2.0, 3.0]
    flux = max(float(np.max(np.abs(numerical_rt(spec, np.array(omega), ORACLE_CONFIG).flux - 1.0))) for spec in specs)
    sampled = _counting(monkeypatch, "potential")
    marched = _counting(monkeypatch, "_march")
    for run in (1, 2):
        results = run_checks(FULL)
        assert len(results) == 10 and all(r.passed for r in results)
        assert len(marched) == 3 * run and len(sampled) == 3 * run
        assert [(args[0], args[4]) for args in marched[-3:]] == [(spec, omega) for spec in specs]
        assert results[-1].name == "oracle flux conservation" and results[-1].max_residual == flux


def test_full_verify_sweep_stays_coarse(monkeypatch):
    # verify's oracle sweep marches at most 3 036 steps per omega (a
    # potential column of at most 6 073 samples), one scan per spec holding
    # its 4 omegas, and its two oracle checks hold R and T to 1e-8 and flux
    # to 1e-9
    marched = _counting(monkeypatch, "_march")
    results = run_checks(FULL)
    assert len(marched) == 3 and all(args[2].size <= 6073 and len(args[4]) == 4 for args in marched)
    assert [(r.name, r.tolerance) for r in results[-2:]] == [("oracle amplitude agreement", 1e-8),
                                                            ("oracle flux conservation", 1e-9)]
    assert all(r.passed for r in results[-2:])


def _oracle_rows(results):
    return [r.max_residual for r in results if r.name.startswith("oracle ")]


def test_oracle_config_is_within_its_error_budget(monkeypatch):
    # ORACLE_CONFIG's window and step beat the old [-45, 45] at step 0.02 on
    # both oracle residuals, and its right edge at x = 30 leaves R and T of the
    # 12 (spec, omega) within 1e-12 of an edge at 45
    agreement, flux = _oracle_rows(run_checks(FULL))
    monkeypatch.setattr(verify_mod, "ORACLE_CONFIG", IntegrationConfig(-45.0, 45.0, 0.02))
    old_agreement, old_flux = _oracle_rows(run_checks(FULL))
    assert agreement < old_agreement and flux < old_flux
    wide = dataclasses.replace(ORACLE_CONFIG, x_max=45.0)
    for spec in (PotentialSpec.plus(1.0), PotentialSpec.minus(1.0), PotentialSpec.step(1.0)):
        near, far = (numerical_rt(spec, np.array([1.2, 1.5, 2.0, 3.0]), cfg) for cfg in (ORACLE_CONFIG, wide))
        assert np.max(np.abs(near.R - far.R)) <= 1e-12 and np.max(np.abs(near.T - far.T)) <= 1e-12


def _rephased(real):
    return lambda *args: tuple(dataclasses.replace(res, R=res.R * cmath.exp(1e-3j)) for res in real(*args))


def _minus_reflects_as_plus(real):
    def amplitudes(*args):
        plus, minus = real(*args)
        return plus, dataclasses.replace(minus, R=plus.R)
    return amplitudes


def _stiffer_plus(real):
    return lambda spec, x: real(spec, x) * (1.0 + 1e-6 * (spec.kind is PotentialKind.PLUS))


@pytest.mark.parametrize("module, name, fault", [
    (scattering_mod, "reflection_transmission", _rephased),  # R phase x e^(1e-3 i): agreement 1.55e-5
    (scattering_mod, "reflection_transmission", _minus_reflects_as_plus),  # R- = +R+: 3.10e-2
    (oracle_mod, "potential", _stiffer_plus),  # V+ x (1 + 1e-6): 2.90e-5
], ids=["R-phase", "R-minus-as-plus", "V-plus-scaled"])
def test_oracle_agreement_sees_its_faults(monkeypatch, module, name, fault):
    # three faults that reach the oracle's amplitudes still fail its agreement
    # check at ORACLE_CONFIG, each by more than 1000 times its tolerance (no
    # other check sees the R phase)
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    row = next(r for r in run_checks(FULL) if r.name == "oracle amplitude agreement")
    assert row.max_residual > 1e3 * row.tolerance


@pytest.mark.parametrize("budget, scans", [(1, [[3.0], [1.2], [2.0], [1.5], [2.5]]),
                                           (2 * 6000, [[3.0, 1.2], [2.0, 1.5], [2.5]]),
                                           (2 ** 15, [[3.0, 1.2, 2.0, 1.5, 2.5]])])
@pytest.mark.parametrize("spec", [PotentialSpec.plus(1.0), PotentialSpec.step(1.0, 1.0)])
def test_column_scans_are_the_one_omega_calls(monkeypatch, spec, budget, scans):
    # a column's omegas share scans of at most _SCAN_STEPS steps (n = 6000
    # per omega here), in column order; however the column is split, every
    # element equals its one-omega call bit for bit
    one = [numerical_rt(spec, w, COARSE) for w in (3.0, 1.2, 2.0, 1.5, 2.5)]
    monkeypatch.setattr(oracle_mod, "_SCAN_STEPS", budget)
    marched = _counting(monkeypatch, "_march")
    col = numerical_rt(spec, np.array([3.0, 1.2, 2.0, 1.5, 2.5]), COARSE)
    assert [args[4] for args in marched] == scans
    assert col.R.tobytes() == np.array([r.R for r in one]).tobytes()
    assert col.T.tobytes() == np.array([r.T for r in one]).tobytes()
    empty = numerical_rt(spec, np.array([]), COARSE)
    assert empty.R.shape == empty.T.shape == (0,) and len(marched) == len(scans)


@pytest.mark.parametrize("omega, first, x", [
    ([50.0, 2.0, 90.0], 50.0, "29.650"),  # 2.0 blows up first in march order, at x = 29.701
    ([95.0, 90.0, 2.0], 90.0, "29.096"),  # 95.0 oscillates: omega^2 > V
])
def test_shared_scan_blowup_names_the_first_omega_in_column_order(monkeypatch, omega, first, x):
    # V = 9004 everywhere grows each mode at its own rate sqrt(V - omega^2); in
    # one scan the error names the first blown-up omega in column order and
    # that omega's own first x past the limit, as its one-omega march does
    monkeypatch.setattr(oracle_mod, "potential", lambda spec, x: np.full(np.shape(x), 4.0 + 9000.0))
    monkeypatch.setattr(oracle_mod, "_SCAN_STEPS", 10 ** 6)
    marched = _counting(monkeypatch, "_march")
    message = re.escape(f"at x = {x}; omega = {first} ")
    with pytest.raises(BlowUpError, match=message):
        numerical_rt(PotentialSpec.plus(1.0), np.array(omega))
    assert len(marched) == 1
    with pytest.raises(BlowUpError, match=message):
        integrate_wavefunction(PotentialSpec.plus(1.0), first)


# --------------------------------------------------------------- error paths

def test_config_validation():
    with pytest.raises(ConfigError):
        IntegrationConfig(x_min=-3.0)
    with pytest.raises(ConfigError):
        IntegrationConfig(x_max=4.0)
    with pytest.raises(ConfigError):
        IntegrationConfig(step=0.0)
    with pytest.raises(ConfigError):
        IntegrationConfig(step=-1e-3)


@pytest.mark.parametrize("field, value", [("x_min", -math.inf), ("x_max", math.inf), ("step", math.inf)])
def test_config_rejects_non_finite_fields(field, value):
    with pytest.raises(ConfigError, match="finite"):
        IntegrationConfig(**{field: value})


def test_below_threshold_rejected():
    with pytest.raises(ConfigError):
        integrate_wavefunction(PotentialSpec.plus(1.0), 0.5)
    with pytest.raises(ConfigError):
        integrate_wavefunction(PotentialSpec.plus(1.0), 1.0)


def test_too_coarse_step_rejected():
    with pytest.raises(ConfigError):
        integrate_wavefunction(PotentialSpec.plus(1.0), 2.0, IntegrationConfig(step=0.2))


def test_blowup_guard(monkeypatch):
    # the guard is unreachable through valid configurations (the threshold
    # and stability preconditions catch the triggering scenarios first),
    # so exercise it by tightening the limit
    monkeypatch.setattr(oracle_mod, "_BLOWUP_LIMIT", 0.5)
    with pytest.raises(BlowUpError, match=r"at x = 29\.999;"):
        integrate_wavefunction(FREE, 2.0)


def test_blowup_of_an_overflowing_march(monkeypatch):
    # a growing mode at the stability bound overflows float64 long before
    # x_min; the guard names the first x past the limit and no overflow
    # warning escapes
    monkeypatch.setattr(oracle_mod, "potential", lambda spec, x: np.full(np.shape(x), 4.0 + 9000.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError, match=r"at x = 29\.701;"):
            integrate_wavefunction(PotentialSpec.plus(1.0), 2.0)


def test_non_finite_potential_rejected(monkeypatch):
    def one_nan(spec, x):
        v = np.array(potential(spec, x), dtype=float)
        v[7] = np.nan
        return v

    monkeypatch.setattr(oracle_mod, "potential", one_nan)
    with pytest.raises(ConfigError):
        integrate_wavefunction(PotentialSpec.plus(1.0), 2.0)


def test_ill_conditioned_window():
    # the 5-unit matching window holds one point of a 30-unit step
    field = integrate_wavefunction(FREE, 0.002, TWO_STEPS)
    with pytest.raises(IllConditionedError):
        extract_rt(field)


@pytest.mark.parametrize("spec, omega, cfg, points", [
    (FREE, 0.15, IntegrationConfig(-30.0, 30.0, 0.5), 11),  # x = -25.0 is a grid point, the window's edge
    (PotentialSpec.plus(1.0), 2.0, ORACLE_CONFIG, None),
    (PotentialSpec.step(1.0), 1.5, IntegrationConfig(-31.3, 30.0, 0.05), None),
])
def test_fit_window_is_the_grid_points_within_five_units(spec, omega, cfg, points):
    # the window, a leading slice of the grid, is every point x <= x_min + 5 (the
    # edge included): the same fit, bit for bit, as a mask over the whole grid
    field = integrate_wavefunction(spec, omega, cfg)
    sel = field.grid <= field.grid[0] + 5.0
    assert points is None or sel.sum() == points
    incoming = np.exp(1j * omega * field.grid[sel])
    (a_in, b_refl), *_ = np.linalg.lstsq(np.column_stack([incoming, incoming.conj()]), field.values[sel], rcond=None)
    res = extract_rt(field)
    assert (res.R, res.T) == (complex(b_refl / a_in), complex(1.0 / a_in))


def test_a_step_that_goes_down_is_a_domain_error(monkeypatch):
    # sqrt(V0), the coupling the oracle reports, is not real for V0 < 0:
    # a typed error before the potential is sampled, not math's ValueError
    sampled = _counting(monkeypatch, "potential")
    for call in (integrate_wavefunction, numerical_rt):
        with pytest.raises(DomainError, match="V0 >= 0"):
            call(PotentialSpec.step(-1.0), 2.0)
    with pytest.raises(DomainError, match="V0 >= 0"):
        numerical_rt(PotentialSpec.step(-1.0), np.array([2.0, 3.0]))
    assert sampled == []


def test_one_omega_results_have_python_fields():
    # as the analytic amplitudes do; a column's fields stay arrays
    res = numerical_rt(PotentialSpec.plus(1.0), 2.0, COARSE)
    assert type(res.R) is complex and type(res.T) is complex
    assert all(type(value) is float for value in (res.omega, res.kprime, res.R2, res.T2, res.flux))
    col = numerical_rt(PotentialSpec.plus(1.0), np.array([2.0]), COARSE)
    assert col.R.tolist() == [res.R] and col.flux.tolist() == [res.flux]


def test_extract_rt_domain_checks():
    # omega and the coupling come from the field; a field at or below its
    # threshold, with a negative coupling, or at complex omega is rejected
    field = integrate_wavefunction(FREE, 2.0)
    for omega, m in ((2.0, 2.0), (2.0, 5.0), (-3.0, 1.0), (2.0, -1.0), (2.0 + 0.5j, 0.0), (2.0, float("nan"))):
        with pytest.raises(DomainError):
            extract_rt(dataclasses.replace(field, omega=omega, m=m))


def test_extract_rt_needs_an_integrated_field():
    # T = 1/A holds only for the unit transmitted wave the march starts from
    with pytest.raises(DomainError):
        extract_rt(sample_wavefield("I", 1, 2.0, 1.0, np.linspace(-30, 30, 6001)))
    field = integrate_wavefunction(FREE, 2.0)
    with pytest.raises(DomainError):
        extract_rt(dataclasses.replace(field, meta={}))
