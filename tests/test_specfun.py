"""Tests for the complex special functions: frozen oracle values, pole
handling, and the classical functional identities as property tests."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from susystep.errors import DegenerateParamsError, DomainError, NonConvergenceError, PoleError
import susystep.specfun as specfun_mod
from susystep.solutions import exact_solution, make_exponents
from susystep.specfun import (
    Z_SWITCH,
    connect_near_one,
    gamma_ratio,
    hyp2f1,
    lngamma,
)

from _oracles import gamma_oracle, hyp2f1_oracle, lngamma_oracle

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)


# ---------------------------------------------------------------- lngamma

def test_lngamma_at_one_is_zero():
    assert abs(lngamma(1.0)) < 1e-14


def test_lngamma_at_half_is_log_sqrt_pi():
    assert abs(lngamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-14


def test_lngamma_at_four_is_log_six():
    assert abs(lngamma(4.0) - math.log(6.0)) < 5e-15


def test_lngamma_complex_frozen_value():
    # frozen from tests/_oracles.lngamma_oracle (64-term shifted product),
    # itself cross-validated against extended precision below
    expected = complex(-0.65092319930181475, -0.30164032046753064)
    assert abs(lngamma(1 + 1j) - expected) < 1e-12


def test_oracle_agrees_with_extended_precision():
    # the frozen-value oracle must itself be trustworthy
    for z in (1 + 1j, 0.5, 4.0, -3.3 + 0.9j, 12.7 - 4.2j, 0.25 - 2.0j):
        ref = complex(mp.loggamma(mp.mpc(z)))
        assert abs(cmath.exp(lngamma_oracle(z)) - cmath.exp(ref)) < 1e-12 * abs(cmath.exp(ref))


def test_lngamma_accuracy_contract_across_disk():
    # relative accuracy of exp(lngamma) <= 1e-13 for |z| <= 100, off poles;
    # referee is extended precision, not the double-precision oracle
    rng = np.random.default_rng(421)
    pts = [complex(x, y) for x, y in rng.uniform(-100, 100, size=(120, 2))]
    pts += [0.5 + 13.7j, 99.2 + 0.9j, 2.5 - 80.1j, -50.2 + 77.3j, -99.3 - 1.2j]
    with mp.workdps(40):
        for z in pts:
            if abs(z) > 100 or (round(z.real) <= 0 and abs(z - round(z.real)) < 1e-3):
                continue
            ref = complex(mp.gamma(mp.mpc(z.real, z.imag)))
            got = cmath.exp(lngamma(z))
            assert abs(got - ref) <= 1e-13 * abs(ref), f"z = {z}"


def test_lngamma_pole_rejection():
    for z in (0.0, -1.0, -7.0, -3.0 + 1e-11j, 5e-10):
        with pytest.raises(PoleError):
            lngamma(z)


def test_lngamma_just_off_pole_is_fine():
    assert cmath.isfinite(lngamma(-3.0 + 1e-6j))


# ------------------------------------------------------------ gamma_ratio

def test_gamma_ratio_trivial_one():
    assert abs(gamma_ratio([2.0], [1.0]) - 1.0) < 1e-14


def test_gamma_ratio_recurrence():
    z = 3.7
    assert abs(gamma_ratio([z + 1.0], [z]) - z) < 1e-13


def test_gamma_ratio_half_squared_is_pi():
    assert abs(gamma_ratio([0.5, 0.5], [1.0]) - math.pi) < 1e-13


def test_gamma_ratio_pole_locations():
    with pytest.raises(PoleError) as err:
        gamma_ratio([-2.0], [1.0])
    assert err.value.location == "numerator"
    with pytest.raises(PoleError) as err:
        gamma_ratio([1.0], [-2.0])
    assert err.value.location == "denominator"
    # numerator reported first when both sides sit on poles
    with pytest.raises(PoleError) as err:
        gamma_ratio([-1.0], [-2.0])
    assert err.value.location == "numerator"


def _ring(radius, count, seed):
    rng = np.random.default_rng(seed)
    z = radius * np.exp(1j * rng.uniform(-math.pi, math.pi, count))
    return z[np.abs(z - np.minimum(np.round(z.real), 0.0)) > 1e-3]  # off the poles


def _amplitude_arguments():
    """The Gamma arguments of the partner (either sign) and step amplitudes
    over omega from just above m to 40 m, as (numerators, denominators)
    column lists."""
    cases = []
    for m in (0.01, 0.5, 1.0, 2.5):
        omega = m * np.concatenate([1.0 + np.geomspace(1e-4, 1.0, 20), np.linspace(2.0, 40.0, 40)])
        p = make_exponents(omega, m)
        a1, b1, c1 = p.a1, p.b1, p.c1
        cases.append(([1.0 - a1, 1.0 - b1, c1], [1.0 - c1, c1 - a1, c1 - b1]))
        cases.append(([1.0 - a1, 1.0 - b1], [1.0 - c1, 1.0 + c1 - a1 - b1]))
        iw, ikp = 1j * omega, 1j * np.sqrt(omega * omega - m * m)
        cases.append(([2.0 * iw, -iw - ikp, 1.0 - iw - ikp], [-2.0 * iw, iw - ikp, 1.0 + iw - ikp]))
        cases.append(([1.0 - iw - ikp, -iw - ikp], [-2.0 * iw, 1.0 - 2.0 * ikp]))
    return cases


def test_gamma_ratio_array_matches_scalar_loop():
    # Lanczos (|z| < 10), Stirling (|z| >= 10) and reflected (Re z < 1/2)
    # arguments, out to |z| = 160, and the amplitude arguments
    rings = [_ring(r, 60, seed) for seed, r in enumerate((0.3, 2.0, 6.0, 9.9, 10.0, 40.0, 100.0, 160.0))]
    cases = [([z], []) for z in rings]
    n = min(map(len, rings))
    cases.append(([rings[1][:n], rings[3][:n], rings[4][:n]], [rings[0][:n], rings[2][:n]]))
    cases += _amplitude_arguments()
    for numerators, denominators in cases:
        got = gamma_ratio(numerators, denominators)
        nums, dens = [c.tolist() for c in numerators], [c.tolist() for c in denominators]
        expected = np.array([gamma_ratio([c[i] for c in nums], [c[i] for c in dens]) for i in range(len(got))])
        assert got.dtype == complex and got.shape == expected.shape
        finite = np.abs(expected) > 1e-300
        assert np.all(np.abs(got - expected)[finite] <= 2e-14 * np.abs(expected)[finite])


def test_gamma_ratio_array_matches_oracle():
    for seed, radius in enumerate((0.5, 3.0, 9.0, 11.0, 40.0, 100.0, 160.0)):
        z = _ring(radius, 40, seed)
        reference = np.array([lngamma_oracle(v) for v in z.tolist()])
        keep = np.abs(reference.real) < 700.0  # Gamma(z) representable
        expected = np.exp(reference[keep])
        got = gamma_ratio([z[keep]], [])
        assert np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected))
    # numbers broadcast against the array arguments
    z = np.array([1.5, 2.5 + 1j, 12.0 - 30j])
    assert np.all(np.abs(gamma_ratio([z + 1.0], [z, 1.0]) - z) <= 1e-13 * np.abs(z))


def test_gamma_ratio_array_poles():
    z = np.array([1.5, 2.0 + 1j, -3.0, 4.0])
    with pytest.raises(PoleError) as err:
        gamma_ratio([z], [1.0])
    assert (err.value.location, err.value.argument) == ("numerator", -3.0)
    with pytest.raises(PoleError) as err:
        gamma_ratio([1.0], [z + 1.0])
    assert (err.value.location, err.value.argument) == ("denominator", -2.0)
    # numerator poles first, whichever element or argument comes first
    with pytest.raises(PoleError) as err:
        gamma_ratio([np.array([1.0, 1.0, 1.0, -1e-12j])], [z])
    assert (err.value.location, err.value.argument) == ("numerator", -1e-12j)
    with pytest.raises(DomainError):
        gamma_ratio([np.array([1.0, math.nan])], [])
    with pytest.raises(DomainError):
        gamma_ratio([np.ones((2, 2))], [])
    with pytest.raises(OverflowError):  # as the scalar path: cmath.sin overflows
        gamma_ratio([np.array([1.0, 300j])], [])
    with pytest.raises(OverflowError):
        gamma_ratio([300j], [])


@given(
    re=st.floats(-20.0, 20.0),
    im=st.floats(-20.0, 20.0),
)
@SETTINGS
def test_reflection_formula(re, im):
    z = complex(re, im)
    assume(abs(z - round(z.real)) > 0.05)
    lhs = cmath.exp(lngamma(z) + lngamma(1.0 - z))
    rhs = cmath.pi / cmath.sin(cmath.pi * z)
    assert abs(lhs - rhs) <= 1e-11 * abs(rhs)


# ----------------------------------------------------------------- hyp2f1

def test_params_validation():
    with pytest.raises(PoleError):
        hyp2f1(1.0, 1.0, 0.0, 0.3)
    with pytest.raises(PoleError):
        hyp2f1(1.0, 1.0, -3.0 + 1e-10j, 0.3)
    with pytest.raises(DomainError):
        hyp2f1(1.0, 1.0, 2.0, 1.0)
    with pytest.raises(DomainError):
        hyp2f1(1.0, 1.0, 2.0, -0.1)
    for z in (1.0, -0.1):
        with pytest.raises(DomainError):
            connect_near_one(1.0, 1.0, 2.0, z)
    with pytest.raises(PoleError):
        connect_near_one(1.0, 1.0, -2.0, 0.7)


def test_saturated_z_uses_the_exact_complement():
    # past x ~ 37, z = e^x/(e^x+1) rounds to 1.0 while u = 1/(e^x+1) stays
    # exact; given u, hyp2f1 returns the connection value at 1 - u
    kp = math.sqrt(3.0)
    a, b, c = 0.5 + (2 + kp) * 1j, (2 + kp) * 1j, 0.5 + 4j  # omega = 2, m = 1
    for u in (1e-17, 1e-200):
        assert 1.0 - u == 1.0
        with mp.workdps(40):
            expected = complex(mp.hyp2f1(mp.mpc(a), mp.mpc(b), mp.mpc(c), 1 - mp.mpf(u)))
        got = hyp2f1(a, b, c, 1.0, u=u, log_u=math.log(u))
        assert abs(got - expected) <= 1e-11 * abs(expected)
        assert hyp2f1(a, b, c, 1.0, u=u) == got
    with pytest.raises(DomainError):
        hyp2f1(a, b, c, 1.0)  # the default complement 1 - z is 0
    with pytest.raises(DomainError):
        hyp2f1(a, b, c, 0.3, u=-0.1)
    for x in (-600.0, 600.0):
        assert cmath.isfinite(exact_solution("I", 1, 2.0, 1.0, x))


def test_complement_must_match_z():
    with pytest.raises(DomainError):
        hyp2f1(1.0, 2.0, 3.0, 0.3, u=0.5)
    with pytest.raises(DomainError):
        hyp2f1(0.5 + 1j, 2.0, 3.3, 0.7, u=0.3, log_u=-5.0)  # u fits z, log_u does not
    with pytest.raises(DomainError):
        hyp2f1(0.5 + 1j, 2.0, 3.3, 0.7, u=0.3, log_u=float("nan"))
    with pytest.raises(DomainError):
        hyp2f1(0.5 + 1j, 2.0, 3.3, 1.0, u=0.0, log_u=-700.0)  # exp(-700) does not underflow
    # within a few ulps: 1 - 0.7 is 0.30000000000000004
    near = hyp2f1(0.5 + 1j, 2.0, 3.3, 0.7, u=0.3, log_u=math.log(0.3))
    assert abs(near - hyp2f1(0.5 + 1j, 2.0, 3.3, 0.7)) <= 1e-14 * abs(near)
    # a subnormal complement has few significant bits; its log is exact from x
    for x in (709.0, 720.0, 745.0, 800.0):
        assert cmath.isfinite(exact_solution("I", 1, 2.0, 1.0, x))


def test_array_form_matches_scalar_calls():
    kp = math.sqrt(3.0)
    a, b, c = 0.5 + (2 + kp) * 1j, (2 + kp) * 1j, 0.5 + 4j  # omega = 2, m = 1
    # across Z_SWITCH, z = 1/2 exactly, and saturated z = 1.0 with its exact complement
    z = np.concatenate([np.linspace(0.0, 0.97, 25), [Z_SWITCH, 1.0, 1.0, 1.0]])
    u = 1.0 - z
    u[-3:] = (1e-17, 1e-200, 0.0)
    log_u = np.array([math.log(v) if v > 0.0 else -800.0 for v in u])
    got = hyp2f1(a, b, c, z, u, log_u)
    expected = [hyp2f1(a, b, c, *args) for args in zip(z.tolist(), u.tolist(), log_u.tolist())]
    assert all(type(v) is complex for v in expected)
    assert got.dtype == complex and got.tobytes() == np.array(expected).tobytes()
    plain = z[:-3]
    assert hyp2f1(a, b, c, plain).tobytes() == np.array([hyp2f1(a, b, c, v) for v in plain]).tobytes()
    assert hyp2f1(a, b, c, np.array([])).shape == (0,)


def test_array_form_checks_every_element_first(monkeypatch):
    evaluated = []
    monkeypatch.setattr(specfun_mod, "_gauss_series", lambda *args: evaluated.append(args) or 1.0)
    for z in ([0.1, 0.2, -0.1], [0.1, float("nan")], [0.1, 1.0], [[0.1, 0.2]]):
        with pytest.raises(DomainError):
            hyp2f1(1.0, 1.0, 2.0, np.array(z))
    with pytest.raises(DomainError):
        hyp2f1(1.0, 1.0, 2.0, np.array([0.1, 0.3]), u=np.array([0.9, 0.5]))
    with pytest.raises(DomainError):
        hyp2f1(1.0, 1.0, 2.0, np.array([0.1, 0.3]), u=0.9)
    with pytest.raises(PoleError):
        hyp2f1(1.0, 1.0, -2.0, np.array([0.1, 0.7]))
    assert evaluated == []
    monkeypatch.undo()
    # c - a - b = 1: only an element on the connection route makes it an error
    assert hyp2f1(1.0, 1.0, 3.0, np.array([0.1, 0.4])).shape == (2,)
    with pytest.raises(DegenerateParamsError):
        hyp2f1(1.0, 1.0, 3.0, np.array([0.1, 0.4, 0.999]))


def test_complex_arguments_are_domain_errors():
    for kwargs in ({"z": 0.3 + 0j}, {"z": np.array([0.3 + 0j])}, {"z": 0.6, "u": 0.4 + 0j},
                   {"z": np.array([0.6]), "u": np.array([0.4]), "log_u": np.array([math.log(0.4) + 0j])}):
        with pytest.raises(DomainError, match="must be real"):
            hyp2f1(1.0, 1.0, 2.0, **kwargs)
    with pytest.raises(DomainError, match="must be real"):
        connect_near_one(1.0, 1.0, 2.5, 0.6 + 0j)


def test_value_one_at_origin():
    assert hyp2f1(0.3 + 2j, -1.7, 2.2 - 1j, 0.0) == 1.0 + 0.0j


def test_classical_log_form():
    # 2F1(1,1;2;z) = -ln(1-z)/z
    z = 0.3
    assert abs(hyp2f1(1.0, 1.0, 2.0, z) - (-math.log1p(-z) / z)) < 1e-14


def test_binomial_reduction_when_c_equals_b():
    a, b, z = 2 + 1j, 0.7, 0.4
    expected = (1.0 - z) ** (-a)
    assert abs(hyp2f1(a, b, b, z) - expected) < 1e-13 * abs(expected)


def test_complex_parameter_frozen_value():
    # frozen from tests/_oracles.hyp2f1_oracle at 40 digits
    expected = complex(1.1516750418510497858, 1.2936868404728547567)
    got = hyp2f1(0.5 + 2j, 1.5 + 2j, 1.5 + 4j, 0.6)
    assert abs(got - expected) <= 1e-11 * abs(expected)
    # and the oracle reproduces itself at double precision
    assert abs(hyp2f1_oracle(0.5 + 2j, 1.5 + 2j, 1.5 + 4j, 0.6) - expected) < 1e-15 * abs(expected)


def test_nonconvergence_with_tiny_budget(monkeypatch):
    monkeypatch.setattr(specfun_mod, "MAX_SERIES_TERMS", 5)
    with pytest.raises(NonConvergenceError):
        hyp2f1(1.0, 1.0, 2.0, 0.5)


# ------------------------------------------------------- connection formula

def test_series_connection_consistency_at_nominal_switch():
    a, b, c = 0.5 + 2j, 1.5 + 2j, 1.5 + 4j
    series = hyp2f1(a, b, c, 0.55)  # dispatches to connection
    direct = hyp2f1_oracle(a, b, c, 0.55)
    assert abs(series - direct) <= 1e-10 * abs(direct)
    assert abs(connect_near_one(a, b, c, 0.55) - direct) <= 1e-10 * abs(direct)


def test_series_connection_overlap_window():
    a, b, c = 0.5 + 2j, 1.5 + 2j, 1.5 + 4j
    for z in np.linspace(0.45, 0.65, 9):
        via_connection = connect_near_one(a, b, c, float(z))
        via_series = hyp2f1_oracle(a, b, c, float(z), dps=25)
        assert abs(via_connection - via_series) <= 1e-10 * abs(via_series)


def test_solution_parameters_at_reference_frequency():
    # a1, b1, c1 for omega = 2, m = 1; frozen from the brute-force oracle
    kp = math.sqrt(3.0)
    a1, b1, c1 = 0.5 + (2 + kp) * 1j, (2 + kp) * 1j, 0.5 + 4j
    expected = complex(-0.7578331315092058748, 0.67868640550922853464)
    got = connect_near_one(a1, b1, c1, 0.5)
    assert abs(got - expected) <= 1e-10 * abs(expected)
    assert abs(hyp2f1(a1, b1, c1, 0.5) - expected) <= 1e-10 * abs(expected)


def test_degenerate_connection_raises():
    # c - a - b = 1 exactly: the connection formula must refuse
    with pytest.raises(DegenerateParamsError):
        connect_near_one(1.0, 1.0, 3.0, 0.999)
    with pytest.raises(DegenerateParamsError):
        hyp2f1(1.0, 1.0, 3.0, 0.999)
    # the value itself is finite and approaches 2 as z -> 1; the oracle
    # confirms the classical closed form 2((1-z)ln(1-z)+z)/z^2
    z = 0.999
    closed = 2.0 * ((1 - z) * math.log(1 - z) + z) / z**2
    assert abs(hyp2f1_oracle(1.0, 1.0, 3.0, z) - 1.9881588189210589227) < 1e-12
    assert abs(closed - 1.9881588189210589227) < 1e-12


def test_degenerate_only_when_connection_required():
    # same degenerate parameters converge through the series for z <= switch
    assert abs(hyp2f1(1.0, 1.0, 3.0, 0.4) - hyp2f1_oracle(1.0, 1.0, 3.0, 0.4)) < 1e-13


# ----------------------------------------------------- functional identities

@st.composite
def _hyp_params(draw):
    a = complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(0.1, 1.5)))
    b = complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-1.5, -0.1)))
    c = complex(draw(st.floats(0.5, 3.0)), draw(st.floats(0.2, 2.0)))
    z = draw(st.floats(0.0, 0.9))
    return a, b, c, z


@given(_hyp_params())
@SETTINGS
def test_gauss_contiguous_relation(params):
    # c F(a,b;c;z) - c F(a+1,b;c;z) + b z F(a+1,b+1;c+1;z) = 0
    a, b, c, z = params
    s = c - a - b
    assume(abs(s - round(s.real)) > 0.05 and abs(s - 1 - round(s.real)) > 0.05)
    lhs = c * hyp2f1(a, b, c, z) - c * hyp2f1(a + 1, b, c, z) + b * z * hyp2f1(a + 1, b + 1, c + 1, z)
    scale = max(abs(c * hyp2f1(a, b, c, z)), 1.0)
    assert abs(lhs) <= 1e-9 * scale


def test_hypergeometric_ode_residual():
    # z(1-z) f'' + (c - (a+b+1) z) f' - a b f = 0, derivatives numerical
    cases = [
        (0.5 + 2j, 1.5 + 2j, 1.5 + 4j),
        (0.5 + (2 + math.sqrt(3)) * 1j, (2 + math.sqrt(3)) * 1j, 0.5 + 4j),
        (1.2, -0.7 + 0.3j, 2.5 + 1j),
    ]
    for a, b, c in cases:
        for z in np.linspace(0.08, 0.92, 15):
            h = 0.01 * z * (1 - z)
            f = [hyp2f1(a, b, c, z + k * h) for k in (-2, -1, 0, 1, 2)]
            d1 = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
            d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
            res = z * (1 - z) * d2 + (c - (a + b + 1) * z) * d1 - a * b * f[2]
            scale = abs(z * (1 - z) * d2) + abs((c - (a + b + 1) * z) * d1) + abs(a * b * f[2])
            assert abs(res) <= 1e-7 * scale, f"params {a},{b},{c} at z={z}"


def test_switch_point_constant():
    assert Z_SWITCH == 0.5
