"""Amplitude tests: Gamma products vs hyperbolic closed forms, flux
conservation, SUSY identities, step comparison, and quasinormal poles."""

import cmath
import dataclasses
import math
import re

import numpy as np
import pytest

from susystep.errors import DegenerateCError, DomainError, GammaPoleError, PoleError
from susystep.potentials import PotentialKind
from susystep.scattering import (
    asymptotic_coefficients,
    closed_form_columns,
    coefficients_closed_form,
    inverse_transmission_magnitude,
    qnm,
    qnm_pole_check,
    reflection_transmission,
    step_amplitudes,
    step_reflection_closed_form,
    susy_relation_check,
    transmitted_wavenumber,
)
from susystep.solutions import exact_solution, make_exponents

from _oracles import step_coefficients_oracle

PLUS, MINUS, STEP = PotentialKind.PLUS, PotentialKind.MINUS, PotentialKind.STEP


def omega_grid(m, count=50):
    return [m * (1.0 + 5.0 * i / count) for i in range(1, count + 1)]


def _susy(omega, m):
    """The SUSY check of one (V+, V-) amplitude call at (omega, m)."""
    return susy_relation_check(*reflection_transmission((PLUS, MINUS), omega, m))


def _step_closed_form(omega, m):
    """(|R^S|^2, |T^S|^2): the step's pair of ``closed_form_columns``."""
    return closed_form_columns(STEP, omega, m)[:2]


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
    r2_step, t2_step = _step_closed_form(omega, 1.0)
    assert np.all(np.asarray(step_reflection_closed_form(omega, 1.0)) == np.asarray(r2_step))
    huge = np.asarray(omega) > 1e100
    assert np.all(np.asarray(r2)[huge] == 0.0) and np.all(np.asarray(r2_step)[huge] == 0.0)
    assert np.all(np.abs(np.asarray(t2)[huge] - 1.0) <= 1e-15)
    assert np.all(np.abs(np.asarray(t2_step)[huge] - 1.0) <= 1e-15)


@pytest.mark.parametrize("omega", [1e308, np.array([2.0, 1e308])])
def test_closed_forms_reject_an_overflowing_exponent(omega):
    # 2 pi (omega + k') overflows a double
    with pytest.raises(DomainError):
        coefficients_closed_form(omega, 1.0)
    with pytest.raises(DomainError):
        step_reflection_closed_form(omega, 1.0)
    with pytest.raises(DomainError):
        _step_closed_form(omega, 1.0)


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
    # the step has amplitudes and closed forms, but |1/T| uses the partners' Legendre-duplication rewrite
    for call in (lambda: inverse_transmission_magnitude(STEP, 2.0, 1.0), lambda: qnm_pole_check(STEP, 0, 1.0)):
        with pytest.raises(DomainError, match="partner kinds"):
            call()


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
    assert _susy(omega, m) == _susy(*ref)
    assert coefficients_closed_form(omega, m) == coefficients_closed_form(*ref)
    assert _step_closed_form(omega, m) == _step_closed_form(*ref)
    assert step_reflection_closed_form(omega, m) == step_reflection_closed_form(*ref)


def test_complex_arguments_rejected():
    for fn in (lambda w, m: reflection_transmission(PLUS, w, m), step_amplitudes,
               coefficients_closed_form, _step_closed_form, step_reflection_closed_form):
        for omega, m in ((2.0 + 0j, 1.0), (2.0, 1.0 + 0j)):
            with pytest.raises(DomainError):
                fn(omega, m)


# ------------------------------------------------------------ omega columns

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
    for fn in (coefficients_closed_form, _step_closed_form, _susy):
        got = np.array(fn(omega, m)).T
        assert got.tobytes() == np.array([fn(w, m) for w in omega.tolist()]).tobytes(), fn.__name__
    assert step_reflection_closed_form(omega, m).tobytes() == _step_closed_form(omega, m)[0].tobytes()


def _number_calls(fn, omega):
    return np.array([fn(w) for w in omega.tolist()])


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
def test_a_long_omega_column_equals_the_number_calls(m):
    # 1000 omega from 1e-8 m above threshold to 5 m: a number is the column's
    # one-element case, so every element keeps the number call's bits.  At
    # m = 0.5 the amplitudes stack 8000 log-Gamma arguments with |w| < 10
    omega = m * (1.0 + np.geomspace(1e-8, 4.0, 1000))
    for fn in (lambda w: coefficients_closed_form(w, m), lambda w: _step_closed_form(w, m),
               lambda w: _susy(w, m)):
        assert np.array(fn(omega)).T.tobytes() == _number_calls(fn, omega).tobytes()
    for fn in (lambda w: step_reflection_closed_form(w, m), lambda w: transmitted_wavenumber(w, m)):
        assert fn(omega).tobytes() == _number_calls(fn, omega).tobytes()
    for fn in (lambda w: reflection_transmission(PLUS, w, m), lambda w: reflection_transmission(MINUS, w, m),
               lambda w: step_amplitudes(w, m)):
        got, expected = fn(omega), [fn(w) for w in omega.tolist()]
        for field in ("omega", "R", "T", "kprime", "R2", "T2", "flux"):
            assert getattr(got, field).tobytes() == np.array([getattr(e, field) for e in expected]).tobytes(), field


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
    r2_step, t2_step = _step_closed_form(omega, m)
    for got, expected in ((plus.R2, r2), (plus.T2, t2), (step.R2, r2_step), (step.T2, t2_step), (step.flux, 1.0)):
        assert np.all(np.abs(got - expected) <= 1e-10 * expected)
    _susy(omega, m)
    asymptotic_coefficients(1e4, m)


@pytest.mark.parametrize("omega", [math.nextafter(1e4, math.inf), 1e200, np.array([60.0, 1.0001e4, 2.0])])
def test_gamma_products_raise_above_omega_1e4(monkeypatch, omega):
    import susystep.scattering as scattering_mod

    evaluated = []
    monkeypatch.setattr(scattering_mod, "gamma_ratio", lambda *args: evaluated.append(args))
    monkeypatch.setattr(scattering_mod, "make_exponents", lambda *args: evaluated.append(args))
    for fn in (lambda w, m: reflection_transmission(PLUS, w, m), step_amplitudes, asymptotic_coefficients):
        with pytest.raises(DomainError, match="omega <= 1e4"):
            fn(omega, 1.0)
    assert evaluated == []
    coefficients_closed_form(omega, 1.0)  # the closed forms hold at any omega
    _step_closed_form(omega, 1.0)
    step_reflection_closed_form(omega, 1.0)


@pytest.mark.parametrize("omega", [
    [1.5, float("nan"), 2.0], [1.5, 1.0, 2.0], [1.5, 0.3], np.array([1.5, 2.0 + 0j]), [[1.5, 2.0]], ["1.5"],
])
def test_array_regime_checked_before_any_gamma(monkeypatch, omega):
    import susystep.scattering as scattering_mod

    evaluated = []
    monkeypatch.setattr(scattering_mod, "gamma_ratio", lambda *args: evaluated.append(args))
    for fn in (lambda w, m: reflection_transmission(PLUS, w, m), step_amplitudes, coefficients_closed_form,
               _step_closed_form, step_reflection_closed_form):
        with pytest.raises(DomainError):
            fn(np.asarray(omega), 1.0)
    assert evaluated == []


_ONE_OMEGA_CALLS = (lambda w: reflection_transmission(PLUS, w, 0.5), lambda w: reflection_transmission(MINUS, w, 0.5),
                    lambda w: step_amplitudes(w, 0.5), lambda w: _susy(w, 0.5),
                    lambda w: asymptotic_coefficients(w, 0.5), lambda w: coefficients_closed_form(w, 0.5),
                    lambda w: _step_closed_form(w, 0.5), lambda w: step_reflection_closed_form(w, 0.5))


def test_a_zero_d_array_omega_is_the_number_call():
    # one numpy check serves numbers and columns; a 0-d array is a number
    for fn in _ONE_OMEGA_CALLS:
        assert fn(np.array(2.0)) == fn(2.0)
    for res in (reflection_transmission(PLUS, np.array(2.0), 0.5), step_amplitudes(np.array(2.0), 0.5)):
        assert type(res.omega) is float and type(res.R) is complex and type(res.flux) is float


@pytest.mark.parametrize("omega", [2.0, np.float32(2.0), np.array(2.0)], ids=["float", "float32", "0-d array"])
def test_a_number_omega_gives_python_numbers(omega):
    for value in (*coefficients_closed_form(omega, 0.5), *_step_closed_form(omega, 0.5),
                  step_reflection_closed_form(omega, 0.5), transmitted_wavenumber(omega, 0.5)):
        assert type(value) is float
    assert all(type(value) is complex for value in _susy(omega, 0.5))
    assert type(reflection_transmission(PLUS, omega, 0.5).kprime) is float


@pytest.mark.parametrize("omega", [2.0, np.array([1.2, 2.0, 7.5])], ids=["number", "column"])
def test_kprime_is_read_without_a_second_regime_check(monkeypatch, omega):
    # the builders check (omega, m) once; reading k' (and flux) forms it alone
    import susystep.scattering as scattering_mod

    res = step_amplitudes(omega, 0.5)
    expected, flux = transmitted_wavenumber(omega, 0.5), res.flux
    monkeypatch.setattr(scattering_mod, "real_array", lambda *args: pytest.fail("k' re-checked omega"))
    assert np.array(res.kprime).tobytes() == np.array(expected).tobytes()
    assert np.array(res.flux).tobytes() == np.array(flux).tobytes()


@pytest.mark.parametrize("omega", [2.0, np.array([1.2, 2.0, 7.5])], ids=["number", "column"])
@pytest.mark.parametrize("call", [lambda w: reflection_transmission(PLUS, w, 0.5),
                                  lambda w: reflection_transmission(MINUS, w, 0.5),
                                  lambda w: step_amplitudes(w, 0.5), lambda w: asymptotic_coefficients(w, 0.5)],
                         ids=["R/T plus", "R/T minus", "step", "asymptotic coefficients"])
def test_each_amplitude_call_takes_one_gamma_ratio_call(monkeypatch, call, omega):
    # every Gamma product of a call, R as T's core times a second ratio,
    # stacked along one column: one log-Gamma pass per call
    import susystep.scattering as scattering_mod

    calls = []
    ratio = scattering_mod.gamma_ratio
    monkeypatch.setattr(scattering_mod, "gamma_ratio", lambda *args: calls.append(args) or ratio(*args))
    call(omega)
    assert len(calls) == 1


@pytest.mark.parametrize("omega", [True, np.True_, np.array(True), np.array([True, True])])
def test_a_bool_omega_is_a_domain_error(omega):
    # True would pass as 1.0 > m = 0.5; a bool is not a frequency
    for fn in _ONE_OMEGA_CALLS + (lambda w: inverse_transmission_magnitude(PLUS, w, 1.0),):
        with pytest.raises(DomainError):
            fn(omega)


@pytest.mark.parametrize("call, args", [
    (qnm, (PLUS, True, 1.0)), (qnm_pole_check, (PLUS, True, 1.0)), (qnm, (STEP, 1, True)),
    (inverse_transmission_magnitude, (PLUS, 1.5, True)), (reflection_transmission, (PLUS, 2.0, True)),
    (step_amplitudes, (2.0, True)), (make_exponents, (2.0, True)),
], ids=["qnm n", "qnm_pole_check n", "qnm m", "inverse_transmission m", "reflection_transmission m",
        "step_amplitudes m", "make_exponents m"])
def test_a_bool_n_or_m_is_a_domain_error(call, args):
    # True would pass as n = 1 or m = 1; a bool is not an overtone or a coupling
    with pytest.raises(DomainError):
        call(*args)


# ----------------------------------------------- kind tuples and case columns

_FIELDS = ("omega", "m", "R", "T", "R2", "T2", "kprime", "flux")


def _same(got, expected):
    """Field by field, the same bits and the same types (Python numbers for a number pair)."""
    for field in _FIELDS:
        a, b = getattr(got, field), getattr(expected, field)
        assert type(a) is type(b) and np.array(a).tobytes() == np.array(b).tobytes(), field


@pytest.mark.parametrize("omega, m", [
    (2.0, 0.5), (np.array([1.2, 2.0, 7.5]), 0.5), (np.array([1.2, 2.5, 0.9, 40.0, 3.0]), np.array([1.0, 0.5, 0.3, 2.0, 2.9])),
    (3.0, np.array([0.5, 1.0, 2.9])),
], ids=["numbers", "omega column", "case columns", "number omega, m column"])
def test_a_kind_tuple_is_the_one_kind_calls(monkeypatch, omega, m):
    # one Gamma pass serves every kind of the tuple, in the tuple's order
    import susystep.scattering as scattering_mod

    calls = []
    ratio = scattering_mod.gamma_ratio
    monkeypatch.setattr(scattering_mod, "gamma_ratio", lambda *args: calls.append(args) or ratio(*args))
    for kinds in ((MINUS, PLUS, MINUS), (PLUS, MINUS, STEP), (STEP, PLUS)):
        calls.clear()
        results = reflection_transmission(kinds, omega, m)
        assert len(calls) == 1 and isinstance(results, tuple) and tuple(r.kind for r in results) == kinds
        for got in results:
            _same(got, reflection_transmission(got.kind, omega, m))
            if got.kind is STEP:
                _same(got, step_amplitudes(omega, m))
    (plus,) = reflection_transmission((PLUS,), omega, m)
    _same(plus, reflection_transmission(PLUS, omega, m))


@pytest.mark.parametrize("kind", [(), [PLUS, MINUS], (PLUS, "minus"), (STEP, np.array([1]))],
                         ids=["empty", "list", "str in tuple", "array in tuple"])
def test_a_kind_tuple_holds_potential_kinds_only(monkeypatch, kind):
    import susystep.scattering as scattering_mod

    evaluated = []
    monkeypatch.setattr(scattering_mod, "gamma_ratio", lambda *args: evaluated.append(args))
    with pytest.raises(DomainError):
        reflection_transmission(kind, 2.0, 1.0)
    assert evaluated == []


def test_case_columns_equal_the_number_calls():
    # each (omega, m) case of a column keeps its number call's bits: 300
    # seeded cases from 1e-8 above threshold to 20 m, m in [0.01, 5]
    rng = np.random.default_rng(29)
    m = rng.uniform(0.01, 5.0, 300)
    omega = m * (1.0 + rng.permutation(np.geomspace(1e-8, 20.0, 300)))
    pairs = list(zip(omega.tolist(), m.tolist()))
    for fn in (coefficients_closed_form, _step_closed_form, _susy):
        assert np.array(fn(omega, m)).T.tobytes() == np.array([fn(w, x) for w, x in pairs]).tobytes(), fn.__name__
    assert step_reflection_closed_form(omega, m).tobytes() == np.array([step_reflection_closed_form(*p) for p in pairs]).tobytes()
    for fn in (lambda w, x: reflection_transmission(PLUS, w, x), lambda w, x: reflection_transmission(MINUS, w, x),
               step_amplitudes):
        got, expected = fn(omega, m), [fn(w, x) for w, x in pairs]
        assert got.m.tolist() == m.tolist()
        for field in ("omega", "R", "T", "R2", "T2", "kprime", "flux"):
            assert getattr(got, field).tobytes() == np.array([getattr(e, field) for e in expected]).tobytes(), field


def test_a_number_omega_stands_for_every_case_of_an_m_column():
    m = np.array([0.5, 1.0, 2.0, 2.9])
    for fn in (coefficients_closed_form, _step_closed_form, _susy):
        assert np.array(fn(3.0, m)).T.tobytes() == np.array([fn(3.0, x) for x in m.tolist()]).tobytes(), fn.__name__
    for fn in (lambda w, x: reflection_transmission(PLUS, w, x), step_amplitudes):
        got, expected = fn(3.0, m), [fn(3.0, x) for x in m.tolist()]
        assert got.omega.tolist() == [3.0] * 4
        for field in ("R", "T", "kprime", "flux"):
            assert getattr(got, field).tobytes() == np.array([getattr(e, field) for e in expected]).tobytes(), field


@pytest.mark.parametrize("omega, m", [
    (np.array([2.0, 3.0]), np.array([1.0, math.nan])), (np.array([2.0, 3.0]), np.array([1.0, 0.0])),
    (np.array([2.0, 3.0]), np.array([1.0, -0.5])), (np.array([2.0, 3.0]), np.array([True, True])),
    (np.array([2.0, 3.0]), np.array([1.0, 1.0 + 0j])), (np.array([2.0, 3.0]), np.array([[1.0, 1.0]])),
    (np.array([2.0, 3.0]), np.array([1.0, 1.0, 1.0])), (np.array([2.0]), np.array([1.0, 1.0])),
    (np.array([2.0, 3.0]), [1.0, math.inf]), (np.array([2.0, 3.0]), np.array([1.0, 3.5])), (2.0, np.array([1.0, 2.0])),
    (2.0, np.array(["1.0"])),
], ids=["nan", "zero", "negative", "bool", "complex", "2-d", "longer", "shorter", "inf list", "above its omega",
        "above the number omega", "strings"])
def test_a_bad_m_column_is_a_domain_error_before_any_gamma(monkeypatch, omega, m):
    import susystep.scattering as scattering_mod

    evaluated = []
    monkeypatch.setattr(scattering_mod, "gamma_ratio", lambda *args: evaluated.append(args))
    monkeypatch.setattr(scattering_mod, "make_exponents", lambda *args: evaluated.append(args))
    for fn in (lambda w, x: reflection_transmission((PLUS, MINUS), w, x), lambda w, x: reflection_transmission(PLUS, w, x),
               step_amplitudes, asymptotic_coefficients, coefficients_closed_form, _step_closed_form,
               step_reflection_closed_form):
        with pytest.raises(DomainError):
            fn(omega, m)
    assert evaluated == []


@pytest.mark.parametrize("m", [np.array([1.0, 2.0]), np.array([1.0]), [1.0, 2.0]], ids=["column", "one element", "list"])
def test_qnm_and_inverse_transmission_refuse_an_m_column(m):
    for call in (lambda: qnm(PLUS, 1, m), lambda: qnm(STEP, 1, m), lambda: qnm_pole_check(PLUS, 1, m),
                 lambda: inverse_transmission_magnitude(PLUS, 2.0, m)):
        with pytest.raises(DomainError):
            call()


@pytest.mark.parametrize("omega, m", [(0.5, 1.0), (1.0, 1.0), (np.array([2.0, 0.5, 3.0]), 1.0), (True, 0.0),
                                      (np.array([True, True]), 0.5), (math.nan, 1.0), (math.inf, 1.0), (2.0, -1.0),
                                      (2.0, math.nan), (2.0, True), (1.5 + 0j, 1.0), (np.ones((2, 2)) * 2.0, 1.0)],
                         ids=["number below m", "number at m", "column element below m", "bool", "bool column",
                              "nan", "inf", "negative m", "nan m", "bool m", "complex", "2-d"])
def test_transmitted_wavenumber_outside_its_domain_is_a_domain_error(omega, m):
    # no bare math-domain ValueError, no NaN with a RuntimeWarning, no bool taken as 1
    with pytest.raises(DomainError):
        transmitted_wavenumber(omega, m)


def test_transmitted_wavenumber_values():
    # m = 0 is the free particle, whose k' the oracle reads
    assert transmitted_wavenumber(2.0, 0.0) == math.sqrt(2.0) * math.sqrt(2.0)
    assert transmitted_wavenumber(np.float64(5.0), 3) == math.sqrt(2.0) * math.sqrt(8.0)
    assert transmitted_wavenumber(np.array([5, 10]), 3.0).tolist() == [math.sqrt(2.0) * math.sqrt(8.0),
                                                                       math.sqrt(7.0) * math.sqrt(13.0)]


# -------------------------------------------------------------- SUSY checks

def test_susy_relations_at_reference():
    r_sum, t_diff = _susy(2.0, 1.0)
    assert abs(r_sum) < 1e-11
    assert abs(t_diff) < 1e-11


def test_susy_relations_near_threshold():
    r_sum, t_diff = _susy(1.01, 1.0)
    assert abs(r_sum) < 1e-8
    assert abs(t_diff) < 1e-8


def test_susy_relations_grid():
    for m in (0.5, 1.0, 2.0):
        for omega in omega_grid(m, count=25):
            r_sum, t_diff = _susy(omega, m)
            assert abs(r_sum) < 1e-11
            assert abs(t_diff) < 1e-11


@pytest.mark.parametrize("pair", [
    lambda p, n: (n, p), lambda p, n: (p, p), lambda p, n: (p, step_amplitudes(2.0, 1.0)),
    lambda p, n: (p, reflection_transmission(MINUS, 2.5, 1.0)), lambda p, n: (p, reflection_transmission(MINUS, 2.0, 0.5)),
    lambda p, n: (p, dataclasses.replace(n, omega=np.array([2.0]))), lambda p, n: (2.0, 1.0), lambda p, n: (p, None),
], ids=["swapped", "two plus", "step", "other omega", "other m", "case and column", "numbers", "not a result"])
def test_a_mismatched_susy_pair_is_a_domain_error(pair):
    plus, minus = reflection_transmission((PLUS, MINUS), 2.0, 1.0)
    with pytest.raises(DomainError, match=r"a V\+ and a V- result"):
        susy_relation_check(*pair(plus, minus))


def test_susy_columns_at_another_m_are_a_domain_error():
    plus, minus = reflection_transmission((PLUS, MINUS), np.array([2.0, 3.0]), np.array([1.0, 1.5]))
    with pytest.raises(DomainError):
        susy_relation_check(plus, dataclasses.replace(minus, m=np.array([1.0, 1.25])))
    assert susy_relation_check(plus, minus)[1].shape == (2,)


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


@pytest.mark.parametrize("m", [0.01, 0.5, 2.0])
@pytest.mark.parametrize("ratio", [1.0 + 1e-10, 1.002, 2.0, 40.0, 1e4, 2e4])
def test_step_closed_forms_match_mpmath(m, ratio):
    omega = m * ratio
    r2_ref, t2_ref, kprime = step_coefficients_oracle(omega, m)
    for w in (omega, np.array([omega])):
        r2, t2 = (float(np.ravel(v)[0]) for v in _step_closed_form(w, m))
        # expm1 factors only: no cancellation at threshold, no overflow at 2e4
        assert abs(t2 - t2_ref) <= 1e-13 * t2_ref
        # |R^S|^2 ~ e^(-4 pi k') inherits k''s rounding, amplified by 4 pi k'
        assert abs(r2 - r2_ref) <= 8 * np.finfo(float).eps * (1.0 + 4.0 * math.pi * kprime) * r2_ref
        assert abs(r2 + math.sqrt(omega - m) * math.sqrt(omega + m) / omega * t2 - 1.0) <= 1e-15


@pytest.mark.parametrize("omega", [1.0000000000001e200, np.array([1.0000000000001e200, 3e200])])
def test_closed_forms_where_m_squared_overflows(omega):
    # m^2 is past a double (a = inf): k' >= 1e192 here, so |R|^2 = 0 and |T|^2 = omega/k'
    m = 1e200
    kprime = np.sqrt(omega - m) * np.sqrt(omega + m)
    for r2, t2 in (coefficients_closed_form(omega, m), _step_closed_form(omega, m)):
        assert np.all(np.asarray(r2) == 0.0)
        assert np.all(np.abs(t2 - omega / kprime) <= 1e-15 * omega / kprime)


# ------------------------------------------------------- reflection compare

def test_reflection_difference_window():
    grid = np.linspace(1.05, 3.0, 391)
    peak = float(np.max(np.abs(coefficients_closed_form(grid, 1.0)[0] - step_reflection_closed_form(grid, 1.0))))
    assert peak > 1e-4
    assert peak < 0.05
    # frozen from the double-precision evaluation, cross-checked against a
    # 40-digit scan (0.000354812235244...)
    assert abs(peak - 0.00035481223524415351) < 1e-15


def test_reflection_difference_vanishes_at_threshold():
    r2_plus, _ = coefficients_closed_form(1.0 + 1e-9, 1.0)
    r2_step = step_reflection_closed_form(1.0 + 1e-9, 1.0)
    assert abs(r2_plus - 1.0) < 1e-3
    assert abs(r2_step - 1.0) < 1e-3
    assert abs(r2_plus - r2_step) < 1e-4


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


@pytest.mark.parametrize("kind", [PLUS, MINUS, STEP])
def test_closed_form_columns_are_the_closed_form_calls(kind):
    # the scatter table's columns from one check: the kind's pair, the flux that
    # transmitted_wavenumber gives and the partners' |R|^2 less the step's, bit
    # for bit, a number being the one-element column
    omega, m = np.linspace(0.71, 3e4, 41), 0.7
    r2, t2, flux, excess = closed_form_columns(kind, omega, m)
    pair = _step_closed_form(omega, m) if kind is STEP else coefficients_closed_form(omega, m)
    assert [v.tobytes() for v in (r2, t2)] == [v.tobytes() for v in pair]
    assert flux.tobytes() == (r2 + transmitted_wavenumber(omega, m) / omega * t2).tobytes()
    assert excess is None if kind is STEP else excess.tobytes() == (r2 - step_reflection_closed_form(omega, m)).tobytes()
    for i in (0, 17, 40):
        one = closed_form_columns(kind, omega[i], m)
        assert one == tuple(v if v is None else v[i] for v in (r2, t2, flux, excess))
        assert [type(v) for v in one] == [float] * 3 + [type(None) if kind is STEP else float]
    for bad in (0.7, np.array([1.0, 0.5]), 1e308):  # at or below m; 2 pi (omega + k') overflows
        with pytest.raises(DomainError):
            closed_form_columns(kind, bad, m)
    with pytest.raises(DomainError, match="unknown potential kind 'plus'"):
        closed_form_columns("plus", omega, m)


def test_inverse_transmission_below_a_large_m_meets_mpmath_up_to_the_overflow():
    # at omega = 2 < m, |1/T| falls like 2^(-2 sqrt(m^2 - 4)): 3.5e-295 at m = 500
    # (mpmath, 40 digits), which the duplication form still meets
    assert inverse_transmission_magnitude(PLUS, 2.0, 500.0) == pytest.approx(3.5068520874433621442e-295, rel=1e-11)


@pytest.mark.parametrize("m", [520.0, 1e4])
def test_an_overflowing_power_of_two_is_a_domain_error(monkeypatch, m):
    # 2^(2iw + 2ik') overflows from m ~ 512 up at omega = 2, where nan came back
    # with numpy RuntimeWarnings (these are errors here); the first such omega
    # is named, before any Gamma pass
    import susystep.scattering as scattering_mod

    monkeypatch.setattr(scattering_mod, "gamma_ratio", lambda *args: pytest.fail("a Gamma pass ran"))
    with pytest.raises(DomainError, match=re.escape("at omega = (2+0j) ") + ".*overflows"):
        inverse_transmission_magnitude(PLUS, 2.0, m)
    with pytest.raises(DomainError, match=re.escape("at omega = (2+0j) ")):
        inverse_transmission_magnitude(MINUS, np.array([2.0 * m, 2.0, 3.0]), m)


def test_a_lost_precision_argument_is_a_domain_error_not_a_pole():
    # at m = 1e154 every Gamma argument 1 - 2ik' ~ -2e154 is a whole double, so
    # omega = 2 was reported as a denominator pole (GammaPoleError) and -0.5i as
    # a numerator pole (0.0); |omega| + |B| >= 1e6 is now a DomainError
    for omega in (2.0, -0.5j):
        with pytest.raises(DomainError, match=re.escape(f"at omega = {complex(omega)} ") + ".*pole tolerance"):
            inverse_transmission_magnitude(PLUS, omega, 1e154)
    with pytest.raises(DomainError, match="pole tolerance"):
        inverse_transmission_magnitude(PLUS, 2.0, 1e6)
    assert 0.0 < inverse_transmission_magnitude(PLUS, 2.0 + 1e-3j, 3.0)


def test_high_overtone_poles_stay_exact_zeros():
    # the range check applies only where the Gamma pass runs: a pole's |1/T| is
    # 0.0 whatever 2^(2iw + 2ik') is (about 2^2000 at n = 2000, 2^1e5 at n = 1e5)
    for kind in (PLUS, MINUS):
        poles = np.array([qnm(kind, n, 1.0) for n in (2000, 100_000)])
        assert inverse_transmission_magnitude(kind, poles, 1.0).tolist() == [0.0, 0.0]


def test_inverse_transmission_denominator_pole():
    # omega = -0.75i with m = 2 puts Gamma(1/2 - 2 i omega) on a pole while
    # the numerator argument stays regular
    with pytest.raises(GammaPoleError):
        inverse_transmission_magnitude(PLUS, -0.75j, 2.0)


def test_a_foreign_kind_is_a_domain_error():
    with pytest.raises(DomainError, match="unknown potential kind 'plus'"):
        qnm("plus", 0, 1.0)
    with pytest.raises(DomainError, match="partner kinds"):
        inverse_transmission_magnitude(STEP, 2.0, 1.0)


@pytest.mark.parametrize("call", [lambda kind: closed_form_columns(kind, 2.0, 1.0),
                                  lambda kind: reflection_transmission(kind, 2.0, 1.0),
                                  lambda kind: qnm(kind, 0, 1.0),
                                  lambda kind: inverse_transmission_magnitude(kind, 2.0, 1.0)],
                         ids=["closed_form_columns", "reflection_transmission", "qnm",
                              "inverse_transmission_magnitude"])
@pytest.mark.parametrize("kind", [np.array([PLUS, MINUS]), np.array(["plus"]), np.array(PLUS)],
                         ids=["array of kinds", "array of names", "0-d array of a kind"])
def test_an_array_kind_is_a_domain_error(call, kind):
    # each compared the array with the kinds and raised numpy's ValueError (an ambiguous truth value)
    with pytest.raises(DomainError, match="unknown potential kind"):
        call(kind)


def test_asymptotic_coefficients_name_a_gamma_pole():
    # 1e-15 above threshold at m = 1e-4, k' = 4.7e-12 puts G(2i k') within the pole tolerance of 0;
    # the only route into the pole handler of the amplitudes' Gamma products
    with pytest.raises(GammaPoleError, match=r"Gamma product hit a pole at argument .* \(numerator\)") as err:
        asymptotic_coefficients(1e-4 * (1 + 1e-15), 1e-4)
    assert isinstance(err.value.__cause__, PoleError)


def _itm_column(kind, m):
    """Eight quasinormal poles, 16 complex omegas beside them, 4 real omegas above m and omega = 0."""
    poles = [qnm(kind, n, m) for n in range(8)]
    return np.array(poles + [w + 0.1 for w in poles] + [w + 0.3 - 0.2j for w in poles]
                    + [1.01 * m, 2.0 * m, 7.5 * m, 40.0, 0.0])


@pytest.mark.parametrize("m", [0.7, 1.0, 2.0])
@pytest.mark.parametrize("kind", [PLUS, MINUS])
def test_an_omega_column_is_the_number_calls(monkeypatch, kind, m):
    # poles (0.0, no Gamma pass), off-pole real and complex omega, and omega = 0,
    # where the V+ prefactor vanishes (inf) unless 1 - 2m is a pole (0.0)
    import susystep.scattering as scattering_mod

    omega = _itm_column(kind, m)
    expected = [inverse_transmission_magnitude(kind, w, m) for w in omega.tolist()]
    assert all(type(v) is float for v in expected)
    calls = []
    ratio = scattering_mod.gamma_ratio
    monkeypatch.setattr(scattering_mod, "gamma_ratio", lambda *args: calls.append(args[1][0].size) or ratio(*args))
    got = inverse_transmission_magnitude(kind, omega, m)
    assert got.dtype == float and got.tobytes() == np.array(expected).tobytes()
    assert (got[:8] == 0.0).all() and (got[8:-1] > 1e-3).all()
    # at omega = 0, 1 - 2ik' = 1 - 2m is a pole for m = 1 and 2; for m = 0.7 the V+ prefactor is 0
    if m != 0.7:
        assert got[-1] == 0.0
    else:
        assert (got[-1] == math.inf) if kind is PLUS else (0.0 < got[-1] < math.inf)
    assert calls == [20 + (kind is MINUS and m == 0.7)]  # the elements left, in one Gamma pass
    real = omega[-5:-1].real
    assert inverse_transmission_magnitude(kind, real, m).tobytes() == got[-5:-1].tobytes()
    calls.clear()
    assert inverse_transmission_magnitude(kind, omega[:8], m).tolist() == [0.0] * 8 and calls == []
    assert inverse_transmission_magnitude(kind, np.array([], dtype=complex), m).shape == (0,) and calls == []


@pytest.mark.parametrize("omega", [
    np.array([[2.0, 3.0]]), np.array([True, True]), True, np.True_, np.array([2.0, math.nan]),
    np.array([2.0, complex(math.inf, 0.0)]), math.inf, complex(1.0, math.nan), "2.0", np.array(["2.0"]),
    [2.0, None], 10 ** 400,
], ids=["2-d", "bool column", "bool", "numpy bool", "nan", "complex inf", "inf", "complex nan", "string",
        "string column", "object column", "int past a double"])
def test_a_bad_omega_is_a_domain_error_before_any_gamma(monkeypatch, omega):
    import susystep.scattering as scattering_mod

    monkeypatch.setattr(scattering_mod, "gamma_ratio", lambda *args: pytest.fail("a Gamma pass ran"))
    with pytest.raises(DomainError):
        inverse_transmission_magnitude(PLUS, omega, 1.0)


def test_a_denominator_pole_names_the_first_omega_of_the_column(monkeypatch):
    # omega = sqrt(3), m = 2 puts G(1 - 2ik') on a pole, omega = -0.75i puts
    # G(1/2 - 2iw) on one; the first in column order is named, whichever
    # Gamma it is in, before any Gamma pass
    import susystep.scattering as scattering_mod

    for w in (math.sqrt(3.0), -0.75j):
        with pytest.raises(GammaPoleError):
            inverse_transmission_magnitude(PLUS, w, 2.0)
    monkeypatch.setattr(scattering_mod, "gamma_ratio", lambda *args: pytest.fail("a Gamma pass ran"))
    for column, first in (([3.0, math.sqrt(3.0), 2.5, -0.75j], "1.732"), ([3.0, -0.75j, math.sqrt(3.0)], "-0.75j")):
        with pytest.raises(GammaPoleError, match=re.escape(first)):
            inverse_transmission_magnitude(PLUS, np.array(column), 2.0)


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
    (inverse_transmission_magnitude, (PotentialKind.PLUS, np.array([[2.0, 3.0]]), 1.0)),
    (reflection_transmission, (PotentialKind.PLUS, 2.0, 1 + 0j)),
    (coefficients_closed_form, (np.array([2.0, 3.0]), np.float64(1.0) + 0j)),
], ids=["qnm m complex", "inverse_transmission m complex", "inverse_transmission 2-d omega",
        "reflection_transmission m complex", "closed form m complex"])
def test_a_complex_coupling_or_an_omega_column_is_a_domain_error(call, args):
    # one coupling check serves the amplitudes and the closed forms, PotentialSpec's
    # serves qnm and inverse_transmission_magnitude; |1/T| takes a number or a 1-d omega column
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
