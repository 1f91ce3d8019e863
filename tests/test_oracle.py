"""Numerical-integration oracle tests: free-particle exactness, convergence
order, agreement with the analytic solutions and amplitudes, and the error
paths of the configuration and matching machinery."""

import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from _oracles import magnus_march_oracle

import susystep.oracle as oracle_mod
import susystep.scattering as scattering_mod
from susystep.errors import ConfigError, DomainError, IllConditionedError
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
    # by at least 2^(order-1) = 32; the sixth-order step gives ~64 (errors
    # 7.8e-9 -> 1.2e-10 at omega = 1.2 and 3.7e-8 -> 5.7e-10 at 2, against
    # about 1e-13 for the reference; at steps 0.02 and 0.01 both errors sit
    # at rounding).  The free particle cannot show this (its steps are
    # exact), so V+ is marched
    spec = PotentialSpec.plus(1.0)
    for omega in (1.2, 2.0):
        ref = integrate_wavefunction(spec, omega, IntegrationConfig(step=0.025)).values
        errs = []
        for step, stride in ((0.2, 8), (0.1, 4)):
            field = integrate_wavefunction(spec, omega, IntegrationConfig(step=step))
            errs.append(float(np.max(np.abs(field.values - ref[::stride]))))
        assert errs[0] / errs[1] >= 2.0 ** (6 - 1), omega


def test_end_steps_keep_the_order(monkeypatch):
    # the first and last steps take one-sided stencils; V = 1 + sin(x)/2 has
    # structure at both window edges, where V+'s tails hide the end steps, and
    # the order stays 6 there (ratio 63.8 measured; a quadratic end stencil reads 19.9)
    monkeypatch.setattr(oracle_mod, "potential", lambda spec, x: 1.0 + 0.5 * np.sin(x))
    ref = integrate_wavefunction(FREE, 2.0, IntegrationConfig(-6.0, 6.0, 0.0125)).values
    errs = [float(np.max(np.abs(integrate_wavefunction(FREE, 2.0, IntegrationConfig(-6.0, 6.0, step)).values - ref[::stride])))
            for step, stride in ((0.2, 16), (0.1, 8))]
    assert errs[0] / errs[1] >= 2.0 ** (6 - 1)


def test_step_is_the_commutator_formula_for_a_quadratic_potential(monkeypatch):
    # the stencils' moments and their Gauss-node values are exact for a
    # quadratic V, so at any step the closed-form Omega must meet the
    # reference's 2x2 commutators to rounding, every term of it: at step 0.5
    # (|s^2| up to 0.59) they agree to 2.5e-16 of max|Z| = 24.9, where dropping
    # the h^7 term h^2 c^2/324 of oe alone moves the field by 1.1e-6
    def quadratic(x):
        x = np.asarray(x, dtype=float)
        return 0.05 * x * x - 0.3 * x + 1.0

    monkeypatch.setattr(oracle_mod, "potential", lambda spec, x: quadratic(x))
    omega, cfg = 1.5, IntegrationConfig(-6.0, 6.0, 0.5)
    field = integrate_wavefunction(FREE, omega, cfg)
    wave = cmath.exp(1j * omega * cfg.x_max)
    ref = np.asarray(magnus_march_oracle(quadratic, omega, (wave, 1j * omega * wave), cfg.x_min, cfg.x_max, 24))
    assert float(np.max(np.abs(field.values - ref))) <= 1e-14 * float(np.max(np.abs(ref)))


@pytest.mark.parametrize("s2", [1.99999, -1.99999, -1e-3])
def test_step_series_meet_cmath_at_the_bound(monkeypatch, s2):
    # under a constant potential q = V - omega^2 each step is exactly
    # cosh(s) I + (sinh(s)/s) [[0, -h], [-h q, 0]] with s^2 = h^2 q; the
    # march sums cosh and sinh(s)/s as 11-term series, which must meet
    # cmath's to rounding up to the step bound |s^2| < 2
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
    # relative to max|Z|, which grows to 8.5 at s^2 = 2 (2.1e-16 and 3.3e-16 measured at the edges)
    assert np.max(np.abs(field.values - expected[::-1])) <= 1e-15 * np.max(np.abs(expected))


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
       (FREE, 0.01, FEW_STEPS), (FREE, 0.002, TWO_STEPS)],  # omega h under the step bound sqrt(2)
)
def test_march_matches_sequential_reference(spec, omega, cfg):
    # the three-level step-matrix march against a point-by-point complex march
    # from the same start, the transmitted wave with its right-tail term, that
    # samples V at the Gauss nodes themselves and forms each Omega from 2x2
    # commutators: they agree to rounding, so the stencil's moments and the
    # closed-form Omega add no error above it (3.8e-14 of max|Z| and 2.9e-14 of
    # |R| + |T| measured, both at DEFAULT_CONFIG's 60 000 steps)
    field = integrate_wavefunction(spec, omega, cfg)
    n = field.values.size - 1
    kprime = math.sqrt(omega * omega - spec.right_asymptote)
    _, (k, c) = spec.tails
    wave, tail = cmath.exp(1j * kprime * cfg.x_max), c * math.exp(-k * cfg.x_max) / (k * k - 2j * kprime * k)
    start = wave * (1 + tail), wave * (1j * kprime * (1 + tail) - k * tail)
    ref = np.asarray(magnus_march_oracle(lambda xs: potential(spec, np.asarray(xs)), omega, start, cfg.x_min, cfg.x_max, n))
    assert float(np.max(np.abs(field.values - ref))) <= 1e-13 * float(np.max(np.abs(ref)))
    if cfg is TWO_STEPS:
        return  # its 5-unit matching window holds one grid point: no fit
    num = extract_rt(field)
    seq = extract_rt(dataclasses.replace(field, values=ref))
    # R = B/A and T = 1/A share the error of the fitted A, so both are
    # measured against the amplitude scale |R| + |T| (R is ~1e-8 at omega = 3)
    scale = abs(seq.R) + abs(seq.T)
    assert abs(num.R - seq.R) <= 1e-13 * scale
    assert abs(num.T - seq.T) <= 1e-13 * scale


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
    with pytest.raises(DomainError, match="omega = 0.5"):  # below threshold: before the potential
        numerical_rt(PotentialSpec.plus(1.0), np.array([2.0, 3.0, 0.5]))
    assert sampled == [] and marched == []
    with pytest.raises(ConfigError, match="at omega = 1500.0"):  # step bound: before any march
        numerical_rt(PotentialSpec.plus(1.0), np.array([2.0, 3.0, 1500.0]))
    assert len(sampled) == 1 and marched == []


def test_stability_bound_at_its_edge():
    # V = 0, so max|V - omega^2| = omega^2 - min V: omega^2 h^2 = 2 (exactly,
    # in floats) is rejected, just below it passes
    cfg = IntegrationConfig(step=0.05)
    assert (28.2842712474619 * 28.2842712474619 - 0.0) * 0.05 * 0.05 == 2.0  # as _prepare rounds it
    with pytest.raises(ConfigError, match=r"h\^2 = 2 >= 2\.0$"):
        integrate_wavefunction(FREE, 28.2842712474619, cfg)
    integrate_wavefunction(FREE, 28.28427, cfg)


@pytest.mark.parametrize("cfg", [ORACLE_CONFIG, IntegrationConfig(step=0.01)], ids=["verify", "step 0.01"])
def test_no_valid_input_grows_the_field(cfg):
    # the march keeps no guard on |Z|: at the edges of the accepted domain
    # (couplings from 1e-8 to 2, V-'s bump for m < 1/2 included, omega from
    # just above the coupling to 5 times it) the field of a unit transmitted
    # wave stays within 1 + |R| <= 2, as |T|^2 >= 1 implies; the largest is
    # 1.334, V- at m = 0.1 and omega = m (1 + 1e-12).  A spec's 6 omegas
    # share one scan, whose rows are their one-omega marches
    largest = 0.0
    for m in (1e-8, 1e-4, 1e-2, 0.1, 0.25, 0.49, 0.5, 1.0, 2.0):
        for spec in (PotentialSpec.plus(m), PotentialSpec.minus(m), PotentialSpec.step(m * m)):
            v, n, omegas = oracle_mod._prepare((spec,), m * np.array([1 + 1e-12, 1 + 1e-6, 1.001, 1.2, 2.0, 5.0]), cfg)
            largest = max(largest, float(np.abs(oracle_mod._march((spec,), cfg, v, n, [(0, w) for w in omegas])[1]).max()))
    assert largest < 2.0


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


def test_one_march_frees_its_step_coefficients_before_the_step_rows():
    # the quartic's coefficients (p, c, g and their products) go once the Omega
    # entries exist, the ghost-extended samples with the stencil product, and
    # the samples are the potential's own array, not a stacked copy: one
    # 60 000-step march peaks at about 5.79 MB of numpy allocations, against
    # 6.24 MB with the samples copied into a stack, 7.20 MB with the extended
    # samples held to the Omega entries and 9.6 MB with the coefficients held
    # to the step rows
    spec = PotentialSpec.plus(1.0)
    integrate_wavefunction(spec, 2.0)
    tracemalloc.start()
    try:
        integrate_wavefunction(spec, 2.0)
        assert tracemalloc.get_traced_memory()[1] < 6.0e6
    finally:
        tracemalloc.stop()


def test_oracle_sweep_flux():
    for omega in (1.2, 1.5, 2.0, 3.0):
        res = numerical_rt(PotentialSpec.plus(1.0), omega)
        assert abs(res.flux - 1.0) < 1e-6


def test_full_verify_marches_each_spec_and_omega_once(monkeypatch):
    # one oracle sweep per run serves both oracle checks, and no run reuses
    # another's: one scan of the 12 (spec, omega) rows, spec-major, the
    # potential sampled once per spec
    specs = (PotentialSpec.plus(1.0), PotentialSpec.minus(1.0), PotentialSpec.step(1.0))
    omega = [1.2, 1.5, 2.0, 3.0]
    flux = max(float(np.max(np.abs(numerical_rt(spec, np.array(omega), ORACLE_CONFIG).flux - 1.0))) for spec in specs)
    sampled = _counting(monkeypatch, "potential")
    marched = _counting(monkeypatch, "_march")
    for run in (1, 2):
        results = run_checks(FULL)
        assert len(results) == 10 and all(r.passed for r in results)
        assert len(marched) == run and len(sampled) == 3 * run
        assert [args[0] for args in sampled[-3:]] == list(specs)
        assert marched[-1][0] == specs and marched[-1][4] == [(i, w) for i in range(3) for w in omega]
        assert results[-1].name == "oracle flux conservation" and results[-1].max_residual == flux


def test_full_verify_sweep_stays_coarse(monkeypatch):
    # verify's oracle sweep marches at most 450 steps per omega (a
    # potential column of at most 901 samples per spec), one scan of the
    # 3 specs' 12 (spec, omega) rows, and its two oracle checks hold R and T
    # to 1e-8 and flux to 1e-9
    marched = _counting(monkeypatch, "_march")
    results = run_checks(FULL)
    assert len(marched) == 1 and len(marched[0][2]) == 3 and max(v.size for v in marched[0][2]) <= 901 and len(marched[0][4]) == 12
    assert [(r.name, r.tolerance) for r in results[-2:]] == [("oracle amplitude agreement", 1e-8),
                                                            ("oracle flux conservation", 1e-9)]
    assert all(r.passed for r in results[-2:])


def _oracle_rows(results):
    return [r.max_residual for r in results if r.name.startswith("oracle ")]


def test_oracle_config_is_within_its_error_budget():
    # ORACLE_CONFIG's window and sixth-order step keep agreement below 1e-10
    # (7.7e-11 measured; the step's h^6 term, 7.8e-11 against a march at step
    # 0.025) and flux below the uncorrected [-55, 30] march's 8.2e-13 (5.3e-13),
    # and its edges leave R and T of the 12 (spec, omega) within 1e-12 of an
    # edge at x = 45 (1.3e-13 measured) and 2e-12 of one at -55 (1.6e-12)
    agreement, flux = _oracle_rows(run_checks(FULL))
    assert agreement < 1e-10 and flux < 8.2e-13
    wider = [dataclasses.replace(ORACLE_CONFIG, x_max=45.0), dataclasses.replace(ORACLE_CONFIG, x_min=-55.0)]
    for spec in (PotentialSpec.plus(1.0), PotentialSpec.minus(1.0), PotentialSpec.step(1.0)):
        near, right, left = (numerical_rt(spec, np.array([1.2, 1.5, 2.0, 3.0]), cfg) for cfg in (ORACLE_CONFIG, *wider))
        for far, bound in ((right, 1e-12), (left, 2e-12)):
            assert np.max(np.abs(near.R - far.R)) <= bound and np.max(np.abs(near.T - far.T)) <= bound


def _rephased(real):
    def amplitudes(*args):
        plus, minus, *rest = real(*args)
        return *(dataclasses.replace(res, R=res.R * cmath.exp(1e-3j)) for res in (plus, minus)), *rest
    return amplitudes


def _minus_reflects_as_plus(real):
    def amplitudes(*args):
        plus, minus, *rest = real(*args)
        return plus, dataclasses.replace(minus, R=plus.R), *rest
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


@pytest.mark.parametrize("side", [0, 1], ids=["left", "right"])
def test_oracle_agreement_sees_a_flipped_tail(monkeypatch, side):
    # either edge's tail term taken with the wrong sign fails the agreement
    # check at ORACLE_CONFIG by more than 10 times its tolerance (1.5e-6 at
    # the left edge and 9.2e-7 at the right measured)
    real = PotentialSpec.tails.fget

    def flipped(spec):
        tails = list(real(spec))
        k, c = tails[side]
        tails[side] = k, -c
        return tuple(tails)

    monkeypatch.setattr(PotentialSpec, "tails", property(flipped))
    row = next(r for r in run_checks(FULL) if r.name == "oracle amplitude agreement")
    assert row.max_residual > 10 * row.tolerance


@pytest.mark.parametrize("kind", [PotentialKind.PLUS, PotentialKind.MINUS])
def test_marches_omega_up_to_60_at_step_0_02(kind):
    # the step bound admits omega = 60 at step 0.02 (omega^2 h^2 = 1.44 < 2),
    # and the march keeps its accuracy there: against the closed forms,
    # |dR| <= 9.1e-15 and |dT| <= 1.7e-13 measured (R itself is below 1e-27)
    spec = PotentialSpec.plus(1.0) if kind is PotentialKind.PLUS else PotentialSpec.minus(1.0)
    omega = np.array([10.0, 30.0, 60.0])
    num = numerical_rt(spec, omega, IntegrationConfig(x_min=-30.0, x_max=15.0, step=0.02))
    ana = reflection_transmission(kind, omega, 1.0)
    assert np.max(np.abs(num.R - ana.R)) <= 3e-14 and np.max(np.abs(num.T - ana.T)) <= 6e-13


def test_default_config_keeps_its_steps_and_one_potential_call(monkeypatch):
    # the tail terms come from closed forms, not samples: DEFAULT_CONFIG still
    # marches 60 000 steps over one 120 001-point potential call
    sampled, marched = _counting(monkeypatch, "potential"), _counting(monkeypatch, "_march")
    numerical_rt(PotentialSpec.plus(1.0), 2.0)
    assert len(sampled) == 1 and sampled[0][1].size == 120_001
    assert len(marched) == 1 and [v.size for v in marched[0][2]] == [2 * 60_000 + 1]


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
    assert [[w for _, w in args[4]] for args in marched] == scans
    assert col.R.tobytes() == np.array([r.R for r in one]).tobytes()
    assert col.T.tobytes() == np.array([r.T for r in one]).tobytes()
    empty = numerical_rt(spec, np.array([]), COARSE)
    assert empty.R.shape == empty.T.shape == (0,) and len(marched) == len(scans)


SPECS = (PotentialSpec.plus(1.0), PotentialSpec.minus(1.0), PotentialSpec.step(1.0, 1.0))


def test_spec_tuple_is_the_one_spec_and_one_omega_calls():
    # a tuple of specs gives a tuple of results in its order, each equal bit
    # for bit to its one-spec column call and to its one-omega calls; a number
    # omega gives each spec's one-omega result, an empty column empty columns
    omega = np.array([3.0, 1.2, 2.0, 1.5])
    results = numerical_rt(SPECS, omega, COARSE)
    assert type(results) is tuple and [res.kind for res in results] == [spec.kind for spec in SPECS]
    for spec, res in zip(SPECS, results):
        col = numerical_rt(spec, omega, COARSE)
        one = [numerical_rt(spec, w, COARSE) for w in omega.tolist()]
        assert res.m == col.m == one[0].m and res.omega.tolist() == omega.tolist()
        for name in ("R", "T", "kprime", "flux"):
            assert getattr(res, name).tobytes() == getattr(col, name).tobytes() == np.array([getattr(r, name) for r in one]).tobytes()
    assert numerical_rt(SPECS, 2.0, COARSE) == tuple(numerical_rt(spec, 2.0, COARSE) for spec in SPECS)
    assert numerical_rt(SPECS[1:2], omega, COARSE)[0].R.tobytes() == results[1].R.tobytes()
    empty = numerical_rt(SPECS, np.array([]), COARSE)
    assert [(res.kind, res.R.shape, res.T.shape, res.kprime.shape) for res in empty] == [(spec.kind, (0,), (0,), (0,)) for spec in SPECS]


@pytest.mark.parametrize("budget, sizes", [(1, [1] * 6), (2 * 6000, [2, 2, 2]), (4 * 6000, [4, 2]), (2 ** 15, [5, 1])])
def test_spec_tuple_scans_split_inside_and_across_specs(monkeypatch, budget, sizes):
    # a tuple's (spec, omega) rows, spec-major, share scans of at most
    # _SCAN_STEPS steps (n = 6000 per row here), split inside a spec or across
    # specs; each spec's potential is sampled once for all its scans, and every
    # element still equals its one-omega call bit for bit
    specs, omega = SPECS[::2], [3.0, 1.2, 2.5]
    one = [[numerical_rt(spec, w, COARSE) for w in omega] for spec in specs]
    monkeypatch.setattr(oracle_mod, "_SCAN_STEPS", budget)
    sampled, marched = _counting(monkeypatch, "potential"), _counting(monkeypatch, "_march")
    results = numerical_rt(specs, np.array(omega), COARSE)
    rows, ends = [(i, w) for i in range(2) for w in omega], np.cumsum([0] + sizes).tolist()
    assert [args[4] for args in marched] == [rows[start:end] for start, end in zip(ends, ends[1:])]
    assert [args[0] for args in sampled] == list(specs)
    for res, ref in zip(results, one):
        assert res.R.tobytes() == np.array([r.R for r in ref]).tobytes()
        assert res.T.tobytes() == np.array([r.T for r in ref]).tobytes()


@pytest.mark.parametrize("specs, first", [(SPECS[:2], 0), (SPECS[1::-1], 1)])
def test_shared_scan_ill_conditioned_fit_names_the_first_spec_and_omega_in_row_order(monkeypatch, specs, first):
    # at omega = 2 the plus spec's fit has condition number 1.05761848, above
    # the minus spec's 1.05761836 (their left tails differ), and at omega = 3
    # both are below 1.0427: with the limit between the two at omega = 2, in
    # one scan of the rows (spec, omega), spec-major, the error names the one
    # ill-conditioned row, as its own one-spec, one-omega fit does
    monkeypatch.setattr(oracle_mod, "_COND_LIMIT", 1.0576184)
    marched = _counting(monkeypatch, "_march")
    with pytest.raises(IllConditionedError) as shared:
        numerical_rt(specs, np.array([3.0, 2.0]), COARSE)
    assert len(marched) == 1 and len(marched[0][4]) == 4
    with pytest.raises(IllConditionedError) as alone:
        numerical_rt(specs[first], 2.0, COARSE)
    assert str(shared.value) == str(alone.value) == f"matching fit at omega = 2.0 for {specs[first]!r} has condition number above 1.05762"
    numerical_rt(specs[1 - first], np.array([3.0, 2.0]), COARSE)


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
    with pytest.raises(ConfigError, match="fewer than 2 integration steps"):  # one step spans the window
        numerical_rt(PotentialSpec.plus(1.0), 2.0, IntegrationConfig(step=100.0))


@pytest.mark.parametrize("field, value", [("x_min", -math.inf), ("x_max", math.inf), ("step", math.inf),
                                          ("step", 1j), ("step", "a"), ("step", None), ("x_min", None), ("x_max", "a")])
def test_config_rejects_non_finite_fields(field, value):
    # a field that is not a finite real number (a complex, a string or None
    # too, which a comparison would refuse with a bare TypeError)
    with pytest.raises(ConfigError, match=f"{field} must be a finite real number"):
        IntegrationConfig(**{field: value})


def test_below_threshold_rejected():
    with pytest.raises(DomainError):
        integrate_wavefunction(PotentialSpec.plus(1.0), 0.5)
    with pytest.raises(DomainError):
        integrate_wavefunction(PotentialSpec.plus(1.0), 1.0)
    # omega = sqrt(2) rounded squares above V0 = 2 but is not above the
    # coupling sqrt(V0) that extract_rt holds it to: refused before any work
    assert math.sqrt(2.0) ** 2 > 2.0
    for call in (integrate_wavefunction, numerical_rt):
        with pytest.raises(DomainError, match="propagating transmitted wave"):
            call(PotentialSpec.step(2.0), math.sqrt(2.0))
    with pytest.raises(DomainError, match="propagating transmitted wave"):
        numerical_rt(PotentialSpec.step(2.0), np.array([2.0, math.sqrt(2.0)]))


@pytest.mark.parametrize("call", [
    lambda w: reflection_transmission(PotentialKind.PLUS, w, 2.0),
    lambda w: coefficients_closed_form(w, 2.0),
    lambda w: integrate_wavefunction(PotentialSpec.plus(2.0), w),
    lambda w: numerical_rt(PotentialSpec.plus(2.0), w),
    lambda w: numerical_rt(PotentialSpec.plus(2.0), np.array([3.0, w])),
    lambda w: numerical_rt((PotentialSpec.step(1.0), PotentialSpec.plus(2.0)), w),
    lambda w: numerical_rt((PotentialSpec.step(1.0), PotentialSpec.plus(2.0)), np.array([3.0, w])),
], ids=["amplitudes", "closed form", "integrate", "numerical_rt number", "numerical_rt column",
        "numerical_rt tuple", "numerical_rt tuple column"])
@pytest.mark.parametrize("omega", [1.5, 2.0])
def test_below_threshold_is_one_domain_error(monkeypatch, call, omega):
    # the oracle checks omega by the scattering layer's rule: an omega at or
    # below the coupling is the amplitudes' DomainError, before any sampling
    sampled = _counting(monkeypatch, "potential")
    with pytest.raises(DomainError, match=f"omega = {omega}, m = 2.0"):
        call(omega)
    assert sampled == []


def test_spec_tuple_at_a_number_is_one_checked_scan(monkeypatch):
    # the second spec's coupling 2 is above omega = 1.5: nothing is marched;
    # a tuple that passes is the one-element column, marched in one scan
    marched = _counting(monkeypatch, "_march")
    with pytest.raises(DomainError, match="omega = 1.5, m = 2.0"):
        numerical_rt((PotentialSpec.plus(1.0), PotentialSpec.step(4.0)), 1.5)
    assert marched == []
    numerical_rt(SPECS, 2.0, COARSE)
    assert [args[4] for args in marched] == [[(0, 2.0), (1, 2.0), (2, 2.0)]]
    with pytest.raises(DomainError):
        numerical_rt((), "a")
    assert numerical_rt((), 2.0) == ()


def test_too_coarse_step_rejected():
    # max|V+ - omega^2| = 4.056 (V+ dips to -0.056): 2.28 at step 0.75, 1.99 at 0.7
    with pytest.raises(ConfigError, match="too coarse at omega = 2.0"):
        integrate_wavefunction(PotentialSpec.plus(1.0), 2.0, IntegrationConfig(step=0.75))
    integrate_wavefunction(PotentialSpec.plus(1.0), 2.0, IntegrationConfig(step=0.7))


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
    # edge included): bit for bit, the closed-form fit of the incoming wave with its
    # left-tail term and its conjugate over a mask of the whole grid; and that
    # fit is numpy's least-squares fit, to rounding (the two differ by 6.7e-16
    # of |R| + |T| at most here and on verify's 12 rows)
    field = integrate_wavefunction(spec, omega, cfg)
    sel = field.grid <= field.grid[0] + 5.0
    assert points is None or sel.sum() == points
    res = extract_rt(field)
    (k, c), _ = spec.tails
    x = field.grid[sel]
    incoming = np.exp(1j * omega * x) * (1.0 + np.exp(k * x) * (c / (k * k + 2j * omega * k)))
    assert (res.R, res.T) == _closed_form_fit(incoming, field.values[sel])
    plain = np.exp(1j * omega * x)
    for wave in [incoming] + [plain] * (spec is FREE):  # no tail: the plain plane-wave fit
        (a_in, b_refl), *_ = np.linalg.lstsq(np.column_stack([wave, wave.conj()]), field.values[sel], rcond=None)
        scale = abs(res.R) + abs(res.T)
        assert abs(res.R - b_refl / a_in) <= 4e-15 * scale and abs(res.T - 1.0 / a_in) <= 4e-15 * scale


def _closed_form_fit(u, values):
    """(R, T) of the least-squares fit values ~ A u + B conj(u) = alpha Re u + beta Im u, written out: modified
    Gram-Schmidt on Re u and Im u with the values as a third column, R = B/A and T = 1/A as Python numbers."""
    p, q, z = u.real[None], u.imag[None], values[None]
    dot = lambda a, b: np.sum(a * b, axis=-1, keepdims=True)  # row by row, kept as a column
    p = p / (r11 := np.sqrt(dot(p, p)))
    q = q - (r12 := dot(p, q)) * p
    beta = dot(q, z - (c1 := dot(p, z)) * p) / dot(q, q)
    alpha = (c1 - r12 * beta) / r11
    return complex(((alpha + 1j * beta) / (alpha - 1j * beta))[0, 0]), complex((2.0 / (alpha - 1j * beta))[0, 0])


def _svd_fit(u, values):
    """(R, T) of the same fit through the SVD of the (window x 2) design matrix [u, conj(u)], with its condition
    number: the batched solve that the fit replaced."""
    left, s, vh = np.linalg.svd(np.stack([u, u.conj()], axis=-1)[None], full_matrices=False)
    a_in, b_refl = (vh.conj().transpose(0, 2, 1) @ (left.conj().transpose(0, 2, 1) @ values[None, :, None] / s[..., None]))[0, :, 0]
    return complex(b_refl / a_in), complex(1.0 / a_in), s[0, 0] / s[0, -1]


def _window(spec, omega, cfg):
    """The field of spec at omega and, on the fit's window, its incoming wave and values."""
    field = integrate_wavefunction(spec, omega, cfg)
    sel = field.grid <= field.grid[0] + 5.0
    (k, c), _ = spec.tails
    x = field.grid[sel]
    return field, np.exp(1j * omega * x) * (1.0 + np.exp(k * x) * (c / (k * k + 2j * omega * k))), field.values[sel]


def _lstsq_fit(u, values):
    (a_in, b_refl), *_ = np.linalg.lstsq(np.column_stack([u, u.conj()]), values, rcond=None)
    return b_refl / a_in, 1.0 / a_in


@pytest.mark.parametrize("spec", [PotentialSpec.plus(1.0), PotentialSpec.minus(1.0), PotentialSpec.step(1.0)], ids=str)
def test_the_fit_on_verifys_rows_is_lstsq_to_rounding(spec):
    # verify's 12 (spec, omega) rows: each fit meets numpy's lstsq to 4e-15 of
    # |R| + |T| (6.7e-16 at most), and the shared sweep's rows are the one-row
    # fits bit for bit
    omegas = np.array([1.2, 1.5, 2.0, 3.0])
    swept = numerical_rt(spec, omegas, ORACLE_CONFIG)
    for j, omega in enumerate(omegas.tolist()):
        field, u, values = _window(spec, omega, ORACLE_CONFIG)
        res = extract_rt(field)
        assert (swept.R[j], swept.T[j]) == (res.R, res.T)
        R, T = _lstsq_fit(u, values)
        scale = abs(res.R) + abs(res.T)
        assert abs(res.R - R) <= 4e-15 * scale and abs(res.T - T) <= 4e-15 * scale


@pytest.mark.parametrize("m, omega, kappa", [(0.01, 0.0102, 67.9), (0.001, 0.00101, 685.8)])
@pytest.mark.parametrize("kind", [PotentialKind.PLUS, PotentialKind.MINUS])
def test_an_ill_conditioned_fit_is_no_further_from_lstsq_or_the_amplitudes(kind, m, omega, kappa):
    # just above threshold the incoming wave barely turns over the 5-unit
    # window, so [u, conj(u)] has condition number 68 and 686 at the default
    # config.  Against lstsq the closed-form fit reads 4.2e-16 / 3.9e-16 (m =
    # 0.01) and 3.5e-15 / 1.0e-15 (m = 0.001) of |R| + |T| for V+ / V-, where
    # the SVD solve read 2.8e-15 / 2.8e-14 and 1.1e-13 / 1.3e-13.  Against the
    # Gamma amplitudes both carry the march's error, 5e-13 to 1.7e-12; the
    # closed form is closer for three of the four and 2.1e-15 further for V+ at
    # m = 0.01 (8.791e-13 against 8.770e-13), within the SVD's own distance
    # from lstsq (2.8e-15 of |R| + |T|), which is the slack allowed
    spec = PotentialSpec(kind, m)
    field, u, values = _window(spec, omega, oracle_mod.DEFAULT_CONFIG)
    res = extract_rt(field)
    R_svd, T_svd, cond = _svd_fit(u, values)
    assert cond == pytest.approx(kappa, rel=1e-3)
    R_ls, T_ls = _lstsq_fit(u, values)
    scale = abs(R_ls) + abs(T_ls)
    closed_ls, svd_ls = (max(abs(R - R_ls), abs(T - T_ls)) / scale for R, T in ((res.R, res.T), (R_svd, T_svd)))
    assert closed_ls <= svd_ls and closed_ls <= 4e-15
    exact = reflection_transmission(kind, omega, m)
    closed_ana, svd_ana = (max(abs(R - exact.R), abs(T - exact.T)) for R, T in ((res.R, res.T), (R_svd, T_svd)))
    assert closed_ana <= svd_ana + svd_ls * scale


def test_the_fit_calls_no_linalg(monkeypatch):
    # the fit and every verify check run with numpy's SVD and lstsq refusing
    def refuse(*args, **kwargs):
        raise AssertionError("a numpy.linalg solve ran")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    assert numerical_rt(PotentialSpec.plus(1.0), 2.0, ORACLE_CONFIG).T != 0
    assert all(r.passed for r in run_checks(FULL))


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
    for meta in ({}, {"config": field.meta["config"]}):  # the fit reads the spec's left tail
        with pytest.raises(DomainError):
            extract_rt(dataclasses.replace(field, meta=meta))


@pytest.mark.parametrize("field", [None, "field", (np.linspace(-30, 30, 61), np.ones(61, dtype=complex))],
                         ids=["None", "str", "tuple"])
def test_extract_rt_refuses_what_is_not_a_wavefield(field):
    # anything but a WaveField raised AttributeError on its first field read
    with pytest.raises(DomainError, match="integrated by integrate_wavefunction"):
        extract_rt(field)
