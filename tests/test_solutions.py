"""Exact-wavefunction tests: exponent algebra, wave-equation residuals,
asymptotics, the coupled-system recurrence, and Wronskian constancy."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susystep.errors import DegenerateCError, DomainError, ZeroFrequencyError
import susystep.solutions as solutions_mod
import susystep.specfun as specfun_mod
from susystep.solutions import (
    WaveField,
    b_exponent,
    coupled_residual,
    exact_solution,
    exact_solution_at_z,
    make_exponents,
    rotated_component,
    sample_wavefield,
    wave_equation_residual,
    wronskian,
    x_to_z,
)

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)

OMEGA_M_PAIRS = [(2.0, 1.0), (1.5, 1.0), (3.0, 2.0)]


# ---------------------------------------------------------- coordinate map

def z_to_x(z):
    """The inverse map x = ln(z / (1 - z)) for z in (0, 1)."""
    return math.log(z) - math.log1p(-z)


def test_map_at_origin():
    assert x_to_z(0.0) == 0.5
    assert z_to_x(0.5) == 0.0


def test_map_trivial_point():
    assert math.isclose(z_to_x(1.0 / (1.0 + math.e)), -1.0, rel_tol=1e-14)


def test_map_limits():
    assert x_to_z(800.0) == 1.0  # saturates in floating point
    assert 1.0 - x_to_z(30.0) < 1e-13
    assert 0.0 < x_to_z(-30.0) < 1e-13


def test_map_of_an_x_array_is_the_float_calls():
    x = np.concatenate([np.linspace(-40.0, 40.0, 161), [-800.0, -0.0, 1e-300, 800.0]])
    z = x_to_z(x)
    expected = [x_to_z(v) for v in x.tolist()]
    assert all(type(v) is float for v in expected)
    assert z.tobytes() == np.array(expected).tobytes()
    assert x_to_z(x.reshape(5, 33)).tobytes() == z.tobytes()


@given(x=st.floats(-30.0, 9.0))
@SETTINGS
def test_map_inverse_pair(x):
    assert abs(z_to_x(x_to_z(x)) - x) <= 1e-12 * max(1.0, abs(x))


@given(x=st.floats(-30.0, 30.0))
@SETTINGS
def test_map_inverse_pair_full_range(x):
    # past x ~ 10 the roundtrip is limited by the quantization of 1 - z in
    # a single double (spacing 2^-53 near 1), not by the formulas; the
    # bound below is that floor with a 4x margin
    tol = 1e-12 * max(1.0, abs(x)) + 2.3e-16 * math.exp(max(x, 0.0))
    assert abs(z_to_x(x_to_z(x)) - x) <= tol


# ------------------------------------------------------------ exponent sets

def test_exponents_reference_values():
    p = make_exponents(2.0, 1.0)
    kp = math.sqrt(3.0)
    assert abs(p.B1 - 1j * kp) < 1e-15
    assert p.C1 == 2j
    assert p.C2 == 0.5 + 2j
    assert abs(p.c1 - (0.5 + 4j)) < 1e-15
    assert abs(p.a1 - (0.5 + (2 + kp) * 1j)) < 1e-15
    assert p.a2 == p.b1 + 1.0
    assert p.b2 == p.a1
    assert p.c2 == p.c1 + 1.0


def indicial_residual(p):
    """Largest residual of the equations B^2 + omega^2 - m^2 = 0 and
    C^2 - C/2 + i omega eps/2 + omega^2 = 0 (eps = +1 for C1, -1 for C2)
    over every element of a record of numbers or of columns."""
    residuals = [abs(p.B1 * p.B1 + p.omega**2 - p.m**2)]
    for C, eps in ((p.C1, 1), (p.C2, -1)):
        residuals.append(abs(C * C - 0.5 * C + 0.5j * p.omega * eps + p.omega**2))
    return float(np.max(residuals))


def test_exponents_satisfy_indicial_equations():
    for omega in (2.0, 0.6, 0.5 + 0.5j, 3.0 - 0.25j):
        p = make_exponents(omega, 1.3)
        assert indicial_residual(p) < 1e-14


def test_exponent_at_threshold_vanishes():
    p = make_exponents(1.0, 1.0)
    assert p.B1 == 0.0


def test_zero_frequency_rejected():
    with pytest.raises(ZeroFrequencyError):
        make_exponents(0.0, 1.0)


def test_degenerate_c_rejected():
    # c1 = 2 i omega + 1/2 hits 1 at omega = -i/4
    with pytest.raises(DegenerateCError):
        make_exponents(-0.25j, 1.0)


def test_branch_of_b_exponent():
    assert abs(b_exponent(2.0, 1.0) - 1j * math.sqrt(3.0)) < 1e-15
    assert b_exponent(0.5, 1.0) == math.sqrt(0.75)
    assert b_exponent(0.75j, 1.0) == 1.25  # real root, positive by convention
    up = b_exponent(2.0 + 0.1j, 1.0)
    assert up.imag > 0  # continuous continuation off the real axis


def test_coefficient_constraints():
    # unit normalization G1 = H1 = 1
    p = make_exponents(2.0, 1.0)
    g2 = 1j * (p.a1 - p.c1) * p.b1 / (1.0 * p.c1)
    h2 = 1j * (1.0 - p.c1) / 1.0
    assert abs(p.G2 - g2) < 1e-14
    assert abs(p.H2 - h2) < 1e-14


def test_numpy_scalars_match_python_floats():
    # a float32 coupling must not drag the record down to complex64
    ref = exact_solution("I", 1, 1.7, float(np.float32(1.1)), 0.3)
    for omega, m in ((np.float64(1.7), np.float32(1.1)), (1.7, np.float32(1.1))):
        got = exact_solution("I", 1, omega, m, 0.3)
        assert type(got) is complex and got == ref
    assert make_exponents(np.int64(2), np.int64(1)) == make_exponents(2.0, 1.0)


def test_record_of_an_omega_column():
    omega = np.array([2.0, 1.5 + 0.2j, 0.5, 30.0])
    column = make_exponents(omega, 1.0)
    assert column.m == 1.0
    for i, w in enumerate(omega.tolist()):
        one = make_exponents(w, 1.0)
        for name in ("omega", "B1", "C1", "C2", "a1", "b1", "c1", "a2", "b2", "c2", "G2", "H2"):
            assert type(getattr(one, name)) is complex, name
            assert np.array(getattr(column, name)[i]).tobytes() == np.array(getattr(one, name)).tobytes(), name
    assert indicial_residual(column) == max(indicial_residual(make_exponents(w, 1.0)) for w in omega.tolist())
    with pytest.raises(ZeroFrequencyError):
        make_exponents(np.array([2.0, 0.0]), 1.0)
    with pytest.raises(DegenerateCError):
        make_exponents(np.array([2.0, -0.25j]), 1.0)
    with pytest.raises(DomainError):
        make_exponents(np.ones((2, 2)), 1.0)
    for mixed in ([-0.25j, 0.0], [0.0, -0.25j]):  # the zero check runs over the column first
        with pytest.raises(ZeroFrequencyError):
            make_exponents(np.array(mixed), 1.0)
    with pytest.raises(DomainError, match="real"):
        make_exponents(2.0, 1 + 0j)


def test_one_parameter_record_per_evaluated_point(monkeypatch):
    calls = []

    def counting(omega, m):
        calls.append((omega, m))
        return make_exponents(omega, m)

    monkeypatch.setattr(solutions_mod, "make_exponents", counting)
    exact_solution("I", 1, 2.0, 1.0, 0.3)
    assert calls == [(2.0, 1.0)]


# ------------------------------------------------------ wave-equation residual

def zform_residual(branch, sign, omega, m, z):
    """Scaled residual of d/dz[z(1-z)Z'] + q(z) Z = 0 with numerical derivatives."""
    h = 0.01 * z * (1.0 - z)
    f = [exact_solution_at_z(branch, sign, omega, m, z + k * h) for k in (-2, -1, 0, 1, 2)]
    d1 = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
    d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
    q = (omega * omega - m * m) / (1 - z) + omega * omega / z + sign * m / (2 * math.sqrt(z))
    res = (1 - 2 * z) * d1 + z * (1 - z) * d2 + q * f[2]
    scale = abs(q * f[2]) + abs((1 - 2 * z) * d1) + abs(z * (1 - z) * d2)
    return abs(res) / scale


def test_wave_equation_residual_on_grid():
    zs = np.linspace(0.05, 0.95, 16)
    for omega, m in OMEGA_M_PAIRS:
        for branch in ("I", "II"):
            for sign in (1, -1):
                worst = max(zform_residual(branch, sign, omega, m, float(z)) for z in zs)
                assert worst < 1e-7, (branch, sign, omega, m, worst)


def test_wave_equation_residual_complex_frequency():
    zs = np.linspace(0.1, 0.9, 9)
    worst = max(zform_residual("I", 1, 0.5 + 0.5j, 1.0, float(z)) for z in zs)
    assert worst < 1e-7


def test_wave_equation_residual_below_threshold():
    # omega < m: the transmitted channel is evanescent but the closed forms
    # still solve the equation (B is then the positive real root)
    zs = np.linspace(0.1, 0.9, 9)
    for sign in (1, -1):
        worst = max(zform_residual("I", sign, 0.6, 1.0, float(z)) for z in zs)
        assert worst < 1e-7


def test_library_wave_equation_residual():
    zs = np.linspace(0.05, 0.95, 7)
    for branch in ("I", "II"):
        for sign in (1, -1):
            worst = max(wave_equation_residual(branch, sign, 1.5, 1.0, z) for z in zs)
            assert worst < 1e-7
            assert worst == pytest.approx(max(zform_residual(branch, sign, 1.5, 1.0, float(z)) for z in zs), rel=1e-3)
    for z in (0.0, 1.0, 1.3, -0.2):
        with pytest.raises(DomainError):
            wave_equation_residual("I", 1, 2.0, 1.0, z)


def test_second_derivative_identity():
    # d/dz[z(1-z) R'] = (B^2/(1-z) + (C^2 - C/2)/z) R + (1/2)(1-z) R'
    omega, m = 2.0, 1.0
    p = make_exponents(omega, m)
    consts = {1: (p.B1, p.C1), 2: (p.B1, p.C2)}
    for j in (1, 2):
        B, C = consts[j]
        for z in np.linspace(0.1, 0.9, 9):
            h = 0.01 * z * (1.0 - z)
            f = [rotated_component(j, "I", omega, m, z + k * h) for k in (-2, -1, 0, 1, 2)]
            d1 = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
            d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
            lhs = (1 - 2 * z) * d1 + z * (1 - z) * d2
            rhs = (B * B / (1 - z) + (C * C - 0.5 * C) / z) * f[2] + 0.5 * (1 - z) * d1
            scale = abs(lhs) + abs(rhs) + abs(f[2])
            assert abs(lhs - rhs) / scale < 1e-7


# ------------------------------------------------------------- asymptotics

def test_left_asymptotic_forms():
    # Z+^I ~ G1 e^(-i pi/4) e^(i omega x) and
    # Z+^II ~ H1 e^(-i pi/4) ((c1-1)/m) e^(-i omega x) as x -> -infinity
    omega, m = 2.0, 1.0
    p = make_exponents(omega, m)
    pref = cmath.exp(-0.25j * cmath.pi)
    x = -25.0
    zi = exact_solution("I", 1, omega, m, x)
    assert abs(zi / pref - cmath.exp(1j * omega * x)) < 1e-5
    zii = exact_solution("II", 1, omega, m, x)
    target = pref * (p.c1 - 1.0) / m * cmath.exp(-1j * omega * x)
    assert abs(zii - target) < 1e-5


def test_recurrence_consistency():
    # the coupled system rebuilds the second rotated component from the
    # first: R2 = (z(1-z) R1' - i omega R1) / (-i m sqrt(z))
    omega, m = 2.0, 1.0
    for z in (0.2, 0.45, 0.7):
        h = 1e-3 * min(z, 1 - z)
        f = [rotated_component(1, "I", omega, m, z + k * h) for k in (-2, -1, 1, 2)]
        d1 = (f[0] - 8 * f[1] + 8 * f[2] - f[3]) / (12 * h)
        r1 = rotated_component(1, "I", omega, m, z)
        rebuilt = (z * (1 - z) * d1 - 1j * omega * r1) / (-1j * m * math.sqrt(z))
        closed = rotated_component(2, "I", omega, m, z)
        assert abs(rebuilt - closed) <= 1e-9 * max(1.0, abs(closed))


# ---------------------------------------------------------- coupled residual

def test_coupled_residual_real_frequency():
    grid = np.linspace(-10.0, 10.0, 1001)
    assert coupled_residual(2.0, 1.0, grid) < 1e-7


def test_coupled_residual_complex_frequency():
    grid = np.linspace(-6.0, 6.0, 601)
    assert coupled_residual(0.5 + 0.5j, 1.0, grid) < 1e-6


def test_coupled_residual_second_branch():
    grid = np.linspace(-8.0, 8.0, 801)
    assert coupled_residual(1.5, 1.0, grid, branch="II") < 1e-7


def test_coupled_residual_needs_three_points():
    with pytest.raises(DomainError):
        coupled_residual(2.0, 1.0, np.array([0.0]))
    with pytest.raises(DomainError):
        coupled_residual(2.0, 1.0, np.array([0.0, 1.0]))


# ----------------------------------------------------------------- wronskian

def test_wronskian_reference_value():
    got = wronskian(1, 2.0, 1.0, 0.3)
    assert abs(got - (2.0 - 16.0j)) < 1e-9


def test_wronskian_constant_across_z():
    a = wronskian(1, 2.0, 1.0, 0.2)
    b = wronskian(1, 2.0, 1.0, 0.8)
    assert abs(a - b) < 1e-9


def test_wronskian_sign_flip():
    plus = wronskian(1, 2.0, 1.0, 0.4)
    minus = wronskian(-1, 2.0, 1.0, 0.4)
    assert abs(plus + minus) < 1e-9


def test_wronskian_matches_closed_form_on_pairs():
    for omega, m in OMEGA_M_PAIRS:
        c1 = 0.5 + 2j * omega
        for sign in (1, -1):
            expected = sign * 2.0 * omega / m * (1.0 - c1)
            assert abs(wronskian(sign, omega, m, 0.35) - expected) < 1e-9


@pytest.mark.parametrize("z", [1 - 1e-16, 1 - 1e-14, 1e-300, 1e-320, 5e-324])
def test_collapsed_stencil_is_a_domain_error(z):
    # near 1 the offsets z + k h round onto z; near 0 h or h^2 underflows
    with pytest.raises(DomainError, match="stencil"):
        wronskian(1, 2.0, 1.0, z)
    with pytest.raises(DomainError, match="stencil"):
        wave_equation_residual("I", 1, 2.0, 1.0, z)


def test_stencil_checks_pass_where_verify_evaluates():
    # the stencil depends on z only; these are the z values verify uses
    for z in (0.2, 0.3, 0.5, 0.8):
        assert cmath.isfinite(wronskian(1, 2.0, 1.0, z))
    for z in np.linspace(0.05, 0.95, 19):
        assert math.isfinite(wave_equation_residual("I", 1, 2.0, 1.0, z))


def test_residuals_over_a_z_column_match_the_float_calls(monkeypatch):
    z = np.linspace(0.05, 0.95, 19)
    for branch in ("I", "II"):
        for sign in (1, -1):
            got = wave_equation_residual(branch, sign, 1.5, 1.0, z)
            expected = [wave_equation_residual(branch, sign, 1.5, 1.0, v) for v in z.tolist()]
            assert all(type(v) is float for v in expected)
            assert got.tobytes() == np.array(expected).tobytes()
    for sign in (1, -1):
        got = wronskian(sign, 2.0, 1.0, z)
        expected = [wronskian(sign, 2.0, 1.0, v) for v in z.tolist()]
        assert all(type(v) is complex for v in expected)
        assert got.tobytes() == np.array(expected).tobytes()
    # every element is checked before any is evaluated
    calls = []
    monkeypatch.setattr(specfun_mod, "hyp2f1", lambda *args: calls.append(args))
    for bad in ([0.3, 1.2], [0.3, 0.0], [0.3, 1 - 1e-16], [[0.3, 0.5]]):
        with pytest.raises(DomainError):
            wave_equation_residual("I", 1, 2.0, 1.0, np.array(bad))
        with pytest.raises(DomainError):
            wronskian(1, 2.0, 1.0, np.array(bad))
    assert calls == []


# ----------------------------------------------------------------- wavefield

def test_wavefield_validation():
    with pytest.raises(DomainError):
        WaveField(grid=np.array([0.0, -1.0]), values=np.array([1j, 2j]),
                  omega=2.0, m=1.0, kind=None)
    with pytest.raises(DomainError):
        WaveField(grid=np.array([0.0, 1.0]), values=np.array([1j, complex("nan")]),
                  omega=2.0, m=1.0, kind=None)


def test_sample_wavefield_matches_pointwise():
    grid = np.concatenate([[-600.0], np.linspace(-5.0, 5.0, 21), [600.0]])
    for branch in ("I", "II"):
        for sign in (1, -1):
            field = sample_wavefield(branch, sign, 2.0, 1.0, grid)
            assert field.branch == branch and field.values[11] == exact_solution(branch, sign, 2.0, 1.0, 0.0)
            pointwise = [exact_solution(branch, sign, 2.0, 1.0, x) for x in grid]
            assert field.values.tobytes() == np.array(pointwise).tobytes()
            assert np.all(np.isfinite(field.values.view(float)))


def test_non_finite_x_rejected():
    for x in (float("inf"), -float("inf"), float("nan")):
        with pytest.raises(DomainError, match="x = "):
            exact_solution("I", 1, 2.0, 1.0, x)
        with pytest.raises(DomainError, match="x = "):
            sample_wavefield("I", 1, 2.0, 1.0, [0.0, 1.0, x])
        with pytest.raises(DomainError, match="x = "):
            coupled_residual(2.0, 1.0, [-1.0, 0.0, x])


@pytest.mark.parametrize("call, args, message", [
    (make_exponents, (math.inf, 1.0), "finite"),
    (make_exponents, (2.0, math.nan), "finite"),
    (make_exponents, (np.array([2.0, math.inf]), 1.0), "finite"),
    (exact_solution, ("I", 1, math.nan, 1.0, 0.3), "finite"),
    (wronskian, (1, math.inf, 1.0, 0.5), "finite"),
    (sample_wavefield, ("I", 1, 2.0, math.inf, [0.0, 1.0]), "finite"),
    (wave_equation_residual, ("I", 1, 2.0, 1.0, 1.5), r"z = 1\.5 outside"),
], ids=lambda v: v.__name__ if callable(v) else repr(v))
def test_non_finite_numbers_are_domain_errors(call, args, message):
    with pytest.raises(DomainError, match=message):
        call(*args)


@pytest.mark.parametrize("call, args", [
    (sample_wavefield, ("I", 1, 2.0, 1.0, np.array([1 + 1j, 2 + 1j]))),
    (sample_wavefield, ("I", 1, 2.0, 1.0, np.array([1.0, 2.0 + 0j]))),
    (coupled_residual, (2.0, 1.0, np.array([0.0, 1.0, 2.0]) + 0j)),
    (exact_solution, ("I", 1, 2.0, 1.0, 1j)),
    (exact_solution, ("I", 1, 2.0, 1.0, 0.3 + 0j)),
    (exact_solution_at_z, ("I", 1, 2.0, 1.0, 0.3 + 0j)),
    (rotated_component, (1, "I", 2.0, 1.0, 0.3 + 0j)),
    (wronskian, (1, 2.0, 1.0, 0.3 + 0j)),
    (wronskian, (1, 2.0, 1.0, np.array([0.3, 0.5 + 1e-3j]))),
    (wave_equation_residual, ("I", 1, 2.0, 1.0, 0.3 + 0j)),
    (wave_equation_residual, ("I", 1, 2.0, 1.0, np.array([0.3, 0.5]) + 0j)),
], ids=["wavefield grid", "wavefield grid of zero imaginary part", "coupled_residual grid", "exact_solution 1j",
        "exact_solution 0.3+0j", "exact_solution_at_z", "rotated_component", "wronskian number", "wronskian column",
        "wave_equation_residual number", "wave_equation_residual column"])
def test_a_complex_grid_or_z_is_a_domain_error(monkeypatch, call, args):
    # a complex dtype is refused, not cast to its real part
    calls = []
    monkeypatch.setattr(specfun_mod, "hyp2f1", lambda *a: calls.append(a))
    with pytest.raises(DomainError, match="must be real"):
        call(*args)
    assert calls == []


def test_power_factor_overflow_is_a_domain_error():
    # complex omega: |z^C (1-z)^B| grows like e^(x Im sqrt(omega^2 - m^2))
    with pytest.raises(DomainError, match=r"x = 800\.0, omega = \(0\.5\+0\.2j\)"):
        exact_solution("I", 1, 0.5 + 0.2j, 1.0, 800.0)
    with pytest.raises(DomainError, match=r"x = 800\.0"):
        sample_wavefield("I", 1, 0.5 + 0.2j, 1.0, np.linspace(0.0, 800.0, 9))
    assert cmath.isfinite(exact_solution("I", 1, 0.5 + 0.2j, 1.0, 100.0))


def test_sample_wavefield_checks_the_grid_first(monkeypatch):
    calls = []
    monkeypatch.setattr(specfun_mod, "hyp2f1", lambda *args: calls.append(args))
    for grid in (np.zeros((2, 3)), [0.0, 2.0, 1.0], [0.0, 0.0], [0.0, float("nan")]):
        with pytest.raises(DomainError):
            sample_wavefield("I", 1, 2.0, 1.0, grid)
    assert calls == []


def test_connection_gamma_ratios_once_per_call(monkeypatch):
    # the connection formula's two Gamma ratios depend on (omega, m) only;
    # a call makes them once per component, whatever its number of points
    calls = []
    ratio = specfun_mod.gamma_ratio
    monkeypatch.setattr(specfun_mod, "gamma_ratio", lambda *args: calls.append(args) or ratio(*args))
    sample_wavefield("I", 1, 2.0, 1.0, np.linspace(-20.0, 20.0, 1001))
    assert 0 < len(calls) <= 4
    for evaluate, expected in ((lambda: exact_solution("I", 1, 2.0, 1.0, 1.0), 4),
                               (lambda: coupled_residual(2.0, 1.0, np.linspace(0.5, 3.0, 11)), 4),
                               (lambda: wave_equation_residual("II", -1, 2.0, 1.0, 0.7), 4),
                               (lambda: wronskian(1, 2.0, 1.0, 0.7), 8)):
        calls.clear()
        evaluate()
        assert len(calls) == expected


def test_solution_invalid_arguments():
    with pytest.raises(DomainError):
        exact_solution("III", 1, 2.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        exact_solution("I", 0, 2.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        rotated_component(3, "I", 2.0, 1.0, 0.5)


def test_solution_stable_at_extreme_x():
    # log-form power factors keep the closed form finite far outside the
    # saturation range of x_to_z
    for x in (-600.0, -80.0, 80.0, 600.0):
        val = exact_solution("I", 1, 2.0, 1.0, x)
        assert cmath.isfinite(val)
        assert abs(val) < 10.0
