"""Amplitude tests: Gamma products vs hyperbolic closed forms, flux
conservation, SUSY identities, step comparison, and quasinormal poles."""

import cmath
import math

import numpy as np
import pytest

from susystep.errors import DegenerateCError, DomainError, GammaPoleError
from susystep.potentials import PotentialKind
from susystep.scattering import (
    asymptotic_coefficients,
    coefficients_closed_form,
    compare_reflection,
    inverse_transmission_magnitude,
    qnm,
    qnm_pole_check,
    reflection_transmission,
    step_amplitudes,
    step_reflection_closed_form,
    susy_relation_check,
)
from susystep.solutions import exact_solution, make_exponents

PLUS, MINUS, STEP = PotentialKind.PLUS, PotentialKind.MINUS, PotentialKind.STEP


def omega_grid(m, count=50):
    return [m * (1.0 + 5.0 * i / count) for i in range(1, count + 1)]


# -------------------------------------------------- asymptotic coefficients

def test_left_coefficients_are_exact():
    coeffs = asymptotic_coefficients(2.0, 1.0)
    assert coeffs.aI_minus == 1.0
    assert coeffs.bI_minus == 0.0
    assert coeffs.aII_minus == 0.0
    c1 = 0.5 + 4j
    assert abs(coeffs.bII_minus - (c1 - 1.0) / 1.0) < 1e-15
    # (c1 - 1)/m = (2 i omega - 1/2)/m
    assert abs(coeffs.bII_minus - (2j * 2.0 - 0.5)) < 1e-15


def _fit(xs, values, exponents):
    design = np.column_stack([np.exp(e * xs) for e in exponents])
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    return coef


def test_coefficients_reproduce_numerical_asymptotics():
    # sample the exact solutions at |x| = 25 and fit plane-wave amplitudes;
    # the subdominant e^(x/2) pieces are included in the left-side basis,
    # otherwise they would floor the fit near 1e-6
    omega, m = 2.0, 1.0
    kp = math.sqrt(omega * omega - m * m)
    pref = cmath.exp(-0.25j * cmath.pi)
    coeffs = asymptotic_coefficients(omega, m)
    xs_r = np.linspace(24.0, 26.0, 81)
    xs_l = np.linspace(-26.0, -24.0, 81)
    for branch, a_plus, b_plus, a_minus, b_minus in (
        ("I", coeffs.aI_plus, coeffs.bI_plus, coeffs.aI_minus, coeffs.bI_minus),
        ("II", coeffs.aII_plus, coeffs.bII_plus, coeffs.aII_minus, coeffs.bII_minus),
    ):
        z_r = np.array([exact_solution(branch, 1, omega, m, float(x)) for x in xs_r]) / pref
        got = _fit(xs_r, z_r, [1j * kp, -1j * kp])
        assert abs(got[0] - a_plus) < 1e-8
        assert abs(got[1] - b_plus) < 1e-8
        z_l = np.array([exact_solution(branch, 1, omega, m, float(x)) for x in xs_l]) / pref
        got = _fit(xs_l, z_l, [1j * omega, -1j * omega, 0.5 + 1j * omega, 0.5 - 1j * omega])
        assert abs(got[0] - a_minus) < 1e-8
        assert abs(got[1] - b_minus) < 1e-8


def test_asymptotic_coefficients_at_small_coupling():
    # c1 - a1 = i m^2/(omega + k') ~ 6e-10 i is within POLE_TOL of Gamma's
    # pole at 0; frozen from mpmath at 50 digits (the Gamma products in a1, b1, c1)
    coeffs = asymptotic_coefficients(8.0, 1e-4)
    for got, expected in (
        (coeffs.aI_plus, 1.0000000000195312519 + 6.249999695041150189e-6j),
        (coeffs.bI_plus, -9.1958293536276395367e-27 - 9.3405556413446953593e-27j),
        (coeffs.aII_plus, -1.4485097558470130598e-21 - 1.5180354747871458027e-21j),
        (coeffs.bII_plus, -4999.0000001464496755 + 160000.03125312347551j),
    ):
        assert abs(got - expected) <= 1e-12 * abs(expected)


def test_asymptotic_coefficients_require_scattering_regime():
    with pytest.raises(DomainError):
        asymptotic_coefficients(0.5, 1.0)
    with pytest.raises(DomainError):
        asymptotic_coefficients(1.0, 1.0)


# ------------------------------------------------- reflection/transmission

def test_reflection_golden_value():
    # |R+|^2 at omega=2, m=1 equals sinh(2 pi (2 - sqrt(3)))/sinh(2 pi (2 + sqrt(3)))
    res = reflection_transmission(PLUS, 2.0, 1.0)
    kp = math.sqrt(3.0)
    direct = math.sinh(2 * math.pi * (2 - kp)) / math.sinh(2 * math.pi * (2 + kp))
    assert abs(res.R2 - direct) <= 1e-10 * direct
    assert abs(res.R2 - 3.4047175680357383e-10) <= 1e-10 * res.R2  # frozen


def test_flux_conservation_grid():
    for m in (0.5, 1.0, 2.0):
        for omega in omega_grid(m):
            for kind in (PLUS, MINUS):
                assert abs(reflection_transmission(kind, omega, m).flux - 1.0) < 1e-9


def test_closed_forms_match_gamma_products():
    for m in (0.5, 1.0, 2.0):
        for omega in omega_grid(m):
            res = reflection_transmission(PLUS, omega, m)
            r2, t2 = coefficients_closed_form(omega, m)
            assert abs(res.R2 - r2) <= 1e-10 * max(r2, res.R2)
            assert abs(res.T2 - t2) <= 1e-10 * max(t2, res.T2)


def test_unit_reflection_at_threshold():
    r2, _ = coefficients_closed_form(1.0 + 1e-14, 1.0)
    assert abs(r2 - 1.0) < 1e-5


def test_reflection_monotone_decrease():
    values = [coefficients_closed_form(w, 1.0)[0] for w in np.linspace(1.001, 5.0, 400)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_closed_form_overflow_safety():
    r2, t2 = coefficients_closed_form(200.0, 1.0)
    assert math.isfinite(r2) and math.isfinite(t2)
    kp = math.sqrt(200.0**2 - 1.0)
    assert abs(r2 + kp / 200.0 * t2 - 1.0) < 1e-12


@pytest.mark.parametrize("omega", [1e200, 1e300, np.array([2.0, 1e200, 1e300])])
def test_closed_forms_at_huge_omega(omega):
    # omega * omega overflows here; k' = sqrt(omega - m) sqrt(omega + m) does not
    r2, t2 = coefficients_closed_form(omega, 1.0)
    r2_step = step_reflection_closed_form(omega, 1.0)
    huge = np.asarray(omega) > 1e100
    assert np.all(np.asarray(r2)[huge] == 0.0) and np.all(np.asarray(r2_step)[huge] == 0.0)
    assert np.all(np.abs(np.asarray(t2)[huge] - 1.0) <= 1e-15)


@pytest.mark.parametrize("omega", [1e308, np.array([2.0, 1e308])])
def test_closed_forms_reject_an_overflowing_exponent(omega):
    # 2 pi (omega + k') overflows a double
    with pytest.raises(DomainError):
        coefficients_closed_form(omega, 1.0)
    with pytest.raises(DomainError):
        step_reflection_closed_form(omega, 1.0)


@pytest.mark.parametrize("m, omega, r2, r2_step", [
    # frozen from mpmath at 50 digits: sinh ratios with k' = sqrt(omega^2 - m^2)
    (1e-4, 2.0, 3.820665783852388275e-19, 3.0007438915415905661e-27),
    (1e-4, 3.0, 8.8826463617042373985e-25, 4.650942760352952265e-33),
    (1e-3, 2.0, 3.820671961735948013e-17, 3.0007489293107300641e-23),
    (1e-3, 3.0, 8.8826558148505969076e-23, 4.6509478379094569592e-29),
])
def test_closed_forms_small_coupling(m, omega, r2, r2_step):
    # omega - k' ~ m^2/(2 omega) would cancel to ~1e-8 relative error here
    assert abs(coefficients_closed_form(omega, m)[0] - r2) <= 1e-13 * r2
    assert abs(step_reflection_closed_form(omega, m) - r2_step) <= 1e-13 * r2_step


def test_closed_form_domain():
    with pytest.raises(DomainError):
        coefficients_closed_form(1.0, 1.0)
    with pytest.raises(DomainError):
        coefficients_closed_form(0.5, 1.0)


def test_amplitude_relations_between_partners():
    res_p = reflection_transmission(PLUS, 2.0, 1.0)
    res_m = reflection_transmission(MINUS, 2.0, 1.0)
    assert abs(res_p.R + res_m.R) < 1e-15
    assert abs(res_p.T2 - res_m.T2) <= 1e-11 * res_p.T2
    assert res_p.omega == 2.0
    assert abs(res_p.kprime - math.sqrt(3.0)) < 1e-15


def test_rejects_step_kind():
    with pytest.raises(DomainError):
        reflection_transmission(STEP, 2.0, 1.0)


def test_rejects_threshold_and_below():
    for omega in (1.0, 0.3):
        with pytest.raises(DomainError):
            reflection_transmission(PLUS, omega, 1.0)


@pytest.mark.parametrize("omega, m", [
    (np.int64(2), np.int64(1)), (np.float32(2.0), np.float32(1.0)), (np.float32(1.7), 1.1),
])
def test_numpy_scalars_match_python_floats(omega, m):
    ref = float(omega), float(m)
    for kind in (PLUS, MINUS):
        assert reflection_transmission(kind, omega, m) == reflection_transmission(kind, *ref)
    assert step_amplitudes(omega, m) == step_amplitudes(*ref)
    assert susy_relation_check(omega, m) == susy_relation_check(*ref)
    assert coefficients_closed_form(omega, m) == coefficients_closed_form(*ref)
    assert step_reflection_closed_form(omega, m) == step_reflection_closed_form(*ref)


def test_complex_arguments_rejected():
    for fn in (lambda w, m: reflection_transmission(PLUS, w, m), step_amplitudes,
               coefficients_closed_form, step_reflection_closed_form):
        for omega, m in ((2.0 + 0j, 1.0), (2.0, 1.0 + 0j)):
            with pytest.raises(DomainError):
                fn(omega, m)


# ------------------------------------------------------------ omega columns

def _relative_gap(got, expected):
    return float(np.max(np.abs(got - expected) / np.maximum(np.abs(expected), 1e-300)))


@pytest.mark.parametrize("m", [0.01, 0.5, 1.0, 2.0])
def test_array_amplitudes_match_scalar_calls(m):
    omega = m * np.concatenate([1.0 + np.geomspace(1e-5, 1.0, 25), np.linspace(2.0, 44.0, 60)])
    for fn in (lambda w: reflection_transmission(PLUS, w, m), lambda w: reflection_transmission(MINUS, w, m),
               lambda w: step_amplitudes(w, m)):
        got = fn(omega)
        expected = [fn(w) for w in omega.tolist()]
        assert got.omega.tolist() == omega.tolist() and got.m == m and got.kind is expected[0].kind
        assert got.kprime.tolist() == [e.kprime for e in expected]
        for field in ("R", "T", "R2", "T2", "flux"):
            assert getattr(got, field).tobytes() == np.array([getattr(e, field) for e in expected]).tobytes()
    r2, t2 = coefficients_closed_form(omega, m)
    expected = np.array([coefficients_closed_form(w, m) for w in omega.tolist()])
    assert _relative_gap(r2, expected[:, 0]) <= 2e-14 and _relative_gap(t2, expected[:, 1]) <= 2e-14
    expected = np.array([step_reflection_closed_form(w, m) for w in omega.tolist()])
    assert _relative_gap(step_reflection_closed_form(omega, m), expected) <= 2e-14
    r_sum, t_diff = susy_relation_check(omega, m)
    expected = np.array([susy_relation_check(w, m) for w in omega.tolist()])
    scale = np.abs(reflection_transmission(PLUS, omega, m).T)
    assert np.all(np.abs(r_sum - expected[:, 0]) <= 2e-14 * scale)
    assert np.all(np.abs(t_diff - expected[:, 1]) <= 2e-14 * scale)


def test_array_amplitudes_evaluate_where_d_is_tiny():
    # at m = 1e-4, d = i omega - i k' = i m^2/(omega + k') is within POLE_TOL
    # of 0 from omega ~ 5 on; 1/Gamma(d) = d/Gamma(1 + d) keeps every Gamma
    # argument off the pole
    omega = np.array([1.0, 2.0, 8.0, 3.0])
    r2, _ = coefficients_closed_form(omega, 1e-4)
    for fn, closed in ((lambda w: reflection_transmission(PLUS, w, 1e-4), r2),
                       (lambda w: reflection_transmission(MINUS, w, 1e-4), r2),
                       (lambda w: step_amplitudes(w, 1e-4), step_reflection_closed_form(omega, 1e-4))):
        got = fn(omega)
        expected = [fn(w) for w in omega.tolist()]
        assert got.R.tolist() == [e.R for e in expected] and got.T.tolist() == [e.T for e in expected]
        assert np.all(np.abs(got.R2 - closed) <= 1e-12 * closed)
        assert np.all(np.abs(got.flux - 1.0) <= 1e-12)


@pytest.mark.parametrize("m, omega, r2, t2, r2_step, t2_step", [
    # frozen from mpmath at 50 digits: |R+|^2, |T+|^2, |R^S|^2, |T^S|^2 of the
    # Gamma products in a1, b1, c1, equal to the sinh closed forms
    (1e-4, 2.0, 3.8206657838523879088e-19, 1.000000001250000002, 3.0007438915415899909e-27, 1.0000000012500000023),
    (1e-4, 10.0, 1.6715744181481228833e-63, 1.00000000005, 2.6257029560570305744e-72, 1.00000000005),
    (1e-4, 40.0, 7.8687049798230535126e-228, 1.000000000003125, 3.0900332197395190702e-237, 1.000000000003125),
    (1e-3, 2.0, 3.8206719617359478539e-17, 1.0000001250000233993, 3.0007489293107298142e-23, 1.0000001250000234375),
    (1e-3, 10.0, 1.6715749421745658157e-61, 1.0000000050000000375, 2.6257037856944375893e-68, 1.0000000050000000375),
    (1e-3, 40.0, 7.8687055928668533882e-226, 1.0000000003125000001, 3.0900334609592442857e-233, 1.0000000003125000001),
    (1e-2, 2.0, 3.8212898200324876912e-15, 1.0000125002343760616, 3.0012527583117525862e-19, 1.0000125002343798826),
    (1e-2, 10.0, 1.6716273459338203404e-59, 1.0000005000003750003, 2.625786750993636458e-64, 1.0000005000003750003),
    (1e-2, 40.0, 7.868766897569077416e-224, 1.0000000312500014648, 3.0900575830429616338e-229, 1.0000000312500014648),
])
def test_gamma_products_at_small_coupling(m, omega, r2, t2, r2_step, t2_step):
    # d formed as c1 - a1 cancels to ~1e-8 relative error here
    for w in (omega, np.array([omega])):
        plus, step = reflection_transmission(PLUS, w, m), step_amplitudes(w, m)
        for got, expected in ((plus.R2, r2), (plus.T2, t2), (step.R2, r2_step), (step.T2, t2_step)):
            assert np.all(np.abs(got - expected) <= 1e-12 * expected)


@pytest.mark.parametrize("m", [1e-4, 1.0, 50.0])
@pytest.mark.parametrize("omega", [1e4, np.array([60.0, 5e3, 1e4])])
def test_gamma_products_hold_up_to_omega_1e4(m, omega):
    plus, step = reflection_transmission(PLUS, omega, m), step_amplitudes(omega, m)
    r2, t2 = coefficients_closed_form(omega, m)
    for got, expected in ((plus.R2, r2), (plus.T2, t2), (step.R2, step_reflection_closed_form(omega, m)),
                          (step.flux, 1.0)):
        assert np.all(np.abs(got - expected) <= 1e-10 * expected)
    susy_relation_check(omega, m)
    asymptotic_coefficients(1e4, m)


@pytest.mark.parametrize("omega", [math.nextafter(1e4, math.inf), 1e200, np.array([60.0, 1.0001e4, 2.0])])
def test_gamma_products_raise_above_omega_1e4(monkeypatch, omega):
    import susystep.scattering as scattering_mod

    evaluated = []
    monkeypatch.setattr(scattering_mod, "gamma_ratio", lambda *args: evaluated.append(args))
    monkeypatch.setattr(scattering_mod, "make_exponents", lambda *args: evaluated.append(args))
    for fn in (lambda w, m: reflection_transmission(PLUS, w, m), step_amplitudes, susy_relation_check,
               asymptotic_coefficients):
        with pytest.raises(DomainError, match="omega <= 1e4"):
            fn(omega, 1.0)
    assert evaluated == []
    coefficients_closed_form(omega, 1.0)  # the closed forms hold at any omega
    step_reflection_closed_form(omega, 1.0)


@pytest.mark.parametrize("omega", [
    [1.5, float("nan"), 2.0], [1.5, 1.0, 2.0], [1.5, 0.3], np.array([1.5, 2.0 + 0j]), [[1.5, 2.0]], ["1.5"],
])
def test_array_regime_checked_before_any_gamma(monkeypatch, omega):
    import susystep.scattering as scattering_mod

    evaluated = []
    monkeypatch.setattr(scattering_mod, "gamma_ratio", lambda *args: evaluated.append(args))
    for fn in (lambda w, m: reflection_transmission(PLUS, w, m), step_amplitudes, susy_relation_check,
               coefficients_closed_form, step_reflection_closed_form, compare_reflection):
        with pytest.raises(DomainError):
            fn(np.asarray(omega), 1.0)
    assert evaluated == []


def test_compare_reflection_is_the_closed_form_columns():
    grid = np.linspace(1.05, 3.0, 40)
    r2_plus, _ = coefficients_closed_form(grid, 1.0)
    r2_step = step_reflection_closed_form(grid, 1.0)
    assert compare_reflection(grid, 1.0) == list(zip(r2_plus.tolist(), r2_step.tolist(), (r2_plus - r2_step).tolist()))
    assert compare_reflection([], 1.0) == []


# -------------------------------------------------------------- SUSY checks

def test_susy_relations_at_reference():
    r_sum, t_diff = susy_relation_check(2.0, 1.0)
    assert abs(r_sum) < 1e-11
    assert abs(t_diff) < 1e-11


def test_susy_relations_near_threshold():
    r_sum, t_diff = susy_relation_check(1.01, 1.0)
    assert abs(r_sum) < 1e-8
    assert abs(t_diff) < 1e-8


def test_susy_relations_grid():
    for m in (0.5, 1.0, 2.0):
        for omega in omega_grid(m, count=25):
            r_sum, t_diff = susy_relation_check(omega, m)
            assert abs(r_sum) < 1e-11
            assert abs(t_diff) < 1e-11


# ------------------------------------------------------------ step potential

def test_step_golden_value():
    res = step_amplitudes(2.0, 1.0)
    kp = math.sqrt(3.0)
    direct = (math.sinh(math.pi * (2 - kp)) / math.sinh(math.pi * (2 + kp))) ** 2
    assert abs(res.R2 - direct) <= 1e-10 * direct
    assert abs(res.R2 - 2.3382052100989138e-10) <= 1e-10 * res.R2  # frozen


def test_step_closed_form_agreement():
    for omega in omega_grid(1.0, count=25):
        res = step_amplitudes(omega, 1.0)
        assert abs(res.R2 - step_reflection_closed_form(omega, 1.0)) <= 1e-10 * max(res.R2, 1e-300)


def test_step_flux_conservation():
    for m in (0.5, 1.0, 2.0):
        for omega in omega_grid(m):
            assert abs(step_amplitudes(omega, m).flux - 1.0) < 1e-9


def test_step_amplitudes_past_the_sine_overflow():
    # the argument 2i omega passes |Im z| ~ 226 at omega ~ 113, where
    # sin(pi z) in lngamma's reflection step overflows a double
    for omega in (120.0, 200.0, np.array([50.0, 120.0, 200.0])):
        res = step_amplitudes(omega, 1.0)
        closed = step_reflection_closed_form(omega, 1.0)
        assert np.all(np.abs(res.R2 - closed) <= 1e-10 * closed)
        assert np.all(np.abs(res.flux - 1.0) <= 1e-9)


@pytest.mark.parametrize("omega, m, r2", [
    # frozen from mpmath at 50 digits: sinh^2(pi(omega - k'))/sinh^2(pi(omega + k'))
    (6e-10, 5e-10, 0.0829555783665743521),
    (1e-12, 9e-13, 0.15434248266215422822),
])
def test_step_amplitudes_at_tiny_omega(omega, m, r2):
    # +-2i omega and -s = -i(omega + k') lie within POLE_TOL of Gamma's pole
    # at 0; the products are written in 1 +- 2i omega and 1 - s instead
    for w in (omega, np.array([omega, 2.0 * omega])):
        res = step_amplitudes(w, m)
        assert np.all(np.abs(res.flux - 1.0) <= 1e-14)
        assert abs(np.ravel(res.R2)[0] - r2) <= 1e-14 * r2
    assert abs(step_reflection_closed_form(omega, m) - r2) <= 1e-14 * r2


def test_step_unit_reflection_at_threshold():
    assert abs(step_reflection_closed_form(1.0 + 1e-14, 1.0) - 1.0) < 1e-5


# ------------------------------------------------------- reflection compare

def test_reflection_difference_window():
    grid = np.linspace(1.05, 3.0, 391)
    triples = compare_reflection(grid, 1.0)
    diffs = [abs(d) for _, _, d in triples]
    peak = max(diffs)
    assert peak > 1e-4
    assert peak < 0.05
    # frozen from the double-precision evaluation, cross-checked against a
    # 40-digit scan (0.000354812235244...)
    assert abs(peak - 0.00035481223524415351) < 1e-15


def test_reflection_difference_vanishes_at_threshold():
    r2_plus, r2_step, diff = compare_reflection([1.0 + 1e-9], 1.0)[0]
    assert abs(r2_plus - 1.0) < 1e-3
    assert abs(r2_step - 1.0) < 1e-3
    assert abs(diff) < 1e-4


# -------------------------------------------------------------------- QNMs

def test_qnm_step_values():
    assert qnm(STEP, 0, 1.0) == 0.0
    # -(i/2)(n + 1 - m^2/(n+1))
    freq = qnm(STEP, 3, 1.0)
    assert abs(freq - (-0.5j * (4.0 - 0.25))) < 1e-15


def test_qnm_partner_values():
    assert qnm(PLUS, 0, 1.0) == 0.75j
    freq = qnm(PLUS, 2, 1.0)
    assert abs(freq - (-0.25j * (3.0 - 4.0 / 3.0))) < 1e-16


def test_qnm_large_overtone_asymptotics():
    n = 10**6
    assert abs(qnm(PLUS, n, 1.0) / n + 0.25j) < 1e-5
    assert abs(qnm(STEP, n, 1.0) / n + 0.5j) < 1e-5


def test_qnm_validation():
    with pytest.raises(DomainError):
        qnm(PLUS, -1, 1.0)
    with pytest.raises(DomainError):
        qnm(PLUS, 0, 0.0)
    with pytest.raises(DomainError):
        qnm(PLUS, 1.5, 1.0)  # overtones are integers
    assert qnm(PLUS, np.int64(2), 1.0) == qnm(PLUS, 2, 1.0)


def test_qnm_pole_check_all_low_overtones():
    for n in range(6):
        assert qnm_pole_check(PLUS, n, 1.0) < 1e-6
        assert qnm_pole_check(MINUS, n, 1.0) < 1e-6


def test_qnm_pole_check_other_coupling():
    for n in range(4):
        assert qnm_pole_check(PLUS, n, 0.7) < 1e-6


def test_perturbed_frequency_is_not_a_pole():
    for n in range(6):
        omega = qnm(PLUS, n, 1.0) + 0.1
        assert inverse_transmission_magnitude(PLUS, omega, 1.0) > 1e-3


def test_inverse_transmission_consistent_with_gamma_product():
    # for real omega > m the duplication rewrite must equal 1/|T+|
    for omega in (1.5, 2.0, 3.0):
        res = reflection_transmission(PLUS, omega, 1.0)
        inv = inverse_transmission_magnitude(PLUS, omega, 1.0)
        assert abs(inv - 1.0 / abs(res.T)) <= 1e-10 * inv


def test_inverse_transmission_denominator_pole():
    # omega = -0.75i with m = 2 puts Gamma(1/2 - 2 i omega) on a pole while
    # the numerator argument stays regular
    with pytest.raises(GammaPoleError):
        inverse_transmission_magnitude(PLUS, -0.75j, 2.0)


def test_qnm_degenerate_c_values_still_resolve():
    # at n = 0 and n = 3 (m = 1) the hypergeometric c1 is an integer and the
    # series solutions degenerate, yet the duplication form of T stays
    # evaluable and the pole check passes
    for n in (0, 3):
        omega = qnm(PLUS, n, 1.0)
        with pytest.raises(DegenerateCError):
            make_exponents(omega, 1.0)
        assert qnm_pole_check(PLUS, n, 1.0) < 1e-6


@pytest.mark.parametrize("call, args", [
    (qnm, (PotentialKind.PLUS, 1, 1 + 0j)),
    (inverse_transmission_magnitude, (PotentialKind.PLUS, 2.0, 1 + 0j)),
    (inverse_transmission_magnitude, (PotentialKind.PLUS, np.array([2.0, 3.0]), 1.0)),
    (reflection_transmission, (PotentialKind.PLUS, 2.0, 1 + 0j)),
    (coefficients_closed_form, (np.array([2.0, 3.0]), np.float64(1.0) + 0j)),
], ids=["qnm m complex", "inverse_transmission m complex", "inverse_transmission omega column",
        "reflection_transmission m complex", "closed form m complex"])
def test_a_complex_coupling_or_an_omega_column_is_a_domain_error(call, args):
    # one coupling check serves the amplitudes, the closed forms, qnm and
    # inverse_transmission_magnitude; |1/T| takes one omega
    with pytest.raises(DomainError):
        call(*args)


@pytest.mark.parametrize("call, args", [
    (reflection_transmission, (PotentialKind.PLUS, math.inf, 1.0)),
    (step_amplitudes, (math.inf, 1.0)),
    (coefficients_closed_form, (math.inf, 1.0)),
    (coefficients_closed_form, (np.array([2.0, math.inf]), 1.0)),
    (step_reflection_closed_form, (math.inf, 1.0)),
    (inverse_transmission_magnitude, (PotentialKind.PLUS, math.nan, 1.0)),
    (inverse_transmission_magnitude, (PotentialKind.PLUS, 1j, math.inf)),
    (qnm, (PotentialKind.PLUS, 1, math.inf)),
    (qnm, (PotentialKind.STEP, 1, math.inf)),
], ids=lambda v: v.__name__ if callable(v) else repr(v))
def test_non_finite_numbers_are_domain_errors(call, args):
    with pytest.raises(DomainError):
        call(*args)
