"""Exact-wavefunction tests: exponent algebra, wave-equation residuals,
asymptotics, the coupled first-order system, and Wronskian constancy."""

import cmath
import math
import re

import numpy as np
import pytest

from _oracles import wavefunction_oracle
from susystep.errors import DegenerateCError, DegenerateParamsError, DomainError, ZeroFrequencyError
from susystep.potentials import superpotential
import susystep.solutions as solutions_mod
import susystep.specfun as specfun_mod
from susystep.solutions import (
    WaveField,
    b_exponent,
    exact_solution,
    exact_solution_at_z,
    make_exponents,
    sample_wavefield,
    solution_checks,
)

OMEGA_M_PAIRS = [(2.0, 1.0), (1.5, 1.0), (3.0, 2.0)]


def _residual(branch, sign, omega, m, z):
    """The wave-equation residual row of ``branch``, "I" or "II", of one ``solution_checks`` call."""
    rows, row = solution_checks(sign, omega, m, z)[1], ("I", "II").index(branch)
    return rows[:, row] if np.ndim(omega) or np.ndim(m) else rows[row]


# ---------------------------------------------------------- coordinate map

def test_x_zero_is_z_one_half():
    # z = e^x / (e^x + 1) maps x = 0 (either zero) onto z = 1/2
    for branch in ("I", "II"):
        at_z = exact_solution_at_z(branch, 1, 2.0, 1.0, 0.5)
        assert exact_solution(branch, 1, 2.0, 1.0, 0.0) == at_z == exact_solution(branch, 1, 2.0, 1.0, -0.0)


def test_wavefield_past_the_saturation_of_z_matches_pointwise():
    # past |x| ~ 37 z rounds to 0.0 or 1.0; the log-space map keeps every
    # point finite, and a grid's values keep the bits of its one-point calls
    grid = np.concatenate([[-800.0], np.linspace(-40.0, 0.0, 81), [1e-300], np.linspace(0.5, 40.0, 80), [800.0]])
    field = sample_wavefield("I", 1, 2.0, 1.0, grid)
    assert field.values.tobytes() == np.array([exact_solution("I", 1, 2.0, 1.0, x) for x in grid.tolist()]).tobytes()
    assert np.all(np.isfinite(field.values.view(float)))


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


@pytest.mark.parametrize("omega, m, first", [
    (1e200, 1.0, "omega = (1e+200+0j), m = 1.0"),  # B1 = inf j, G2 = nan+nanj
    (2e200, 1e200, "omega = (2e+200+0j), m = 1e+200"),  # m^2 - omega^2 = inf - inf: B1 = nan+nanj
    (np.array([2.0, 1e200, 3e200]), 1.0, "omega = (1e+200+0j), m = 1.0"),  # the first such case
    (2.0, np.array([1.0, 1e200]), "omega = (2+0j), m = 1e+200"),
])
def test_a_record_that_overflows_is_a_domain_error(omega, m, first):
    with pytest.raises(DomainError, match=re.escape(first)):
        make_exponents(omega, m)


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


_FIELDS = ("omega", "B1", "C1", "C2", "a1", "b1", "c1", "a2", "b2", "c2", "G2", "H2")


@pytest.mark.parametrize("omega, m", [
    (np.array([2.0, 1.5, 3.0, 0.5 + 0.5j]), np.array([1.0, 1.0, 2.0, 1.3])),
    (2.0, np.array([1.0, 0.5, -2.0])),
    (np.array([2.0, 30.0]), np.array([1, 4])),
], ids=["both columns", "an m column", "an int m column"])
def test_record_of_an_omega_m_case_column(omega, m):
    # every field of every case equals its one-case record bit for bit
    column = make_exponents(omega, m)
    cases = list(zip(*np.broadcast_arrays(omega, m)))
    assert column.m.dtype == float and column.m.tolist() == [float(v) for _, v in cases]
    for i, (w, v) in enumerate(cases):
        one = make_exponents(complex(w), float(v))
        for name in _FIELDS:
            assert getattr(column, name).shape == (len(cases),), name
            assert np.array(getattr(column, name)[i]).tobytes() == np.array(getattr(one, name)).tobytes(), name


@pytest.mark.parametrize("omega, m, error", [
    (np.array([2.0, 3.0]), np.array([1.0, 1.0, 2.0]), "one length"),
    (np.array([2.0]), np.array([1.0, 2.0]), "one length"),
    (2.0, np.ones((2, 2)), "finite"),
    (2.0, np.array([1.0, 0.0]), "finite"),
    (2.0, np.array([1.0, math.nan]), "finite"),
    (2.0, np.array([1.0, math.inf]), "finite"),
    (2.0, np.array([True, True]), "real"),
    (2.0, np.array([1.0, 2.0]) + 0j, "real"),
    (2.0, [1.0, "2"], "real"),
], ids=["lengths", "one-element omega column", "2-d m", "m = 0", "m nan", "m inf", "bool m", "complex m", "str m"])
def test_an_m_column_takes_the_number_checks_elementwise(omega, m, error):
    with pytest.raises(DomainError, match=error):
        make_exponents(omega, m)


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
    """Scaled residual of d/dz[z(1-z)Z'] + q(z) Z = 0 with numerical
    derivatives, at the library's step."""
    h = 0.01 * z * (1.0 - z) / max(1.0, abs(omega))
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
    # exact derivatives: the worst reads 6.2e-15
    zs = np.linspace(0.05, 0.95, 7)
    for branch in ("I", "II"):
        for sign in (1, -1):
            worst = max(_residual(branch, sign, 1.5, 1.0, z) for z in zs)
            assert worst < 1e-13
    for z in (0.0, 1.0, 1.3, -0.2):
        with pytest.raises(DomainError):
            solution_checks(1, 2.0, 1.0, z)


@pytest.mark.parametrize("omega", [5.0, 8.0, 10.0])
def test_wave_equation_residual_step_follows_omega(omega):
    # exact derivatives take no step that must follow the wave as omega
    # grows: the worst reads 1.2e-14, 4.5e-14 and 6.9e-13, the last the
    # Gauss series' large-omega loss on z <= 1/2
    z = np.linspace(0.05, 0.95, 19)
    assert np.max(solution_checks(np.array([1, -1]), omega, 1.0, z)[1]) < 1e-11


def rotated(j, branch, omega, m, z):
    """The rotated component (R-tilde)_j of a branch at z, from the partner
    solutions Z+/- = e^(-i pi/4) ((R-tilde)_1 +/- i (R-tilde)_2)."""
    plus, minus = (exact_solution_at_z(branch, sign, omega, m, z) for sign in (1, -1))
    return cmath.exp(0.25j * cmath.pi) * ((plus + minus) / 2 if j == 1 else (plus - minus) / 2j)


def test_second_derivative_identity():
    # d/dz[z(1-z) R'] = (B^2/(1-z) + (C^2 - C/2)/z) R + (1/2)(1-z) R'
    omega, m = 2.0, 1.0
    p = make_exponents(omega, m)
    consts = {1: (p.B1, p.C1), 2: (p.B1, p.C2)}
    for j in (1, 2):
        B, C = consts[j]
        for z in np.linspace(0.1, 0.9, 9):
            h = 0.01 * z * (1.0 - z)
            f = [rotated(j, "I", omega, m, z + k * h) for k in (-2, -1, 0, 1, 2)]
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
        f = [rotated(1, "I", omega, m, z + k * h) for k in (-2, -1, 1, 2)]
        d1 = (f[0] - 8 * f[1] + 8 * f[2] - f[3]) / (12 * h)
        r1 = rotated(1, "I", omega, m, z)
        rebuilt = (z * (1 - z) * d1 - 1j * omega * r1) / (-1j * m * math.sqrt(z))
        closed = rotated(2, "I", omega, m, z)
        assert abs(rebuilt - closed) <= 1e-9 * max(1.0, abs(closed))


# ---------------------------------------------------------- coupled residual

def coupled_residual(omega, m, x_grid, branch="I"):
    """Largest scaled residual of the coupled first-order system that the paper's factorization gives,

        (d/dx - W) Z+ = i omega Z-,      (d/dx + W) Z- = i omega Z+,

    over ``x_grid``, with Z+/- and their exact x-derivatives from one evaluation of the rotated components."""
    xs = np.asarray(x_grid, dtype=float)
    logs = solutions_mod._logs_from_x(xs)
    (zp, zm), (dzp, dzm) = solutions_mod._solution_from_logs(
        (branch,), np.array([[1], [-1]]), make_exponents(omega, m), *logs, order=1)[0, :, :, 0]
    w, iw = superpotential(xs, m), 1j * complex(omega)
    res = np.maximum(np.abs(dzp - w * zp - iw * zm), np.abs(dzm + w * zm - iw * zp))
    return float(np.max(res / ((1.0 + abs(iw) + np.abs(w)) * (np.abs(zp) + np.abs(zm)))))


# exact derivatives: the three read 1.0e-15, 1.0e-15 and 1.8e-16

def test_coupled_residual_real_frequency():
    grid = np.linspace(-10.0, 10.0, 1001)
    assert coupled_residual(2.0, 1.0, grid) < 1e-13


def test_coupled_residual_complex_frequency():
    grid = np.linspace(-6.0, 6.0, 601)
    assert coupled_residual(0.5 + 0.5j, 1.0, grid) < 1e-13


def test_coupled_residual_second_branch():
    grid = np.linspace(-8.0, 8.0, 801)
    assert coupled_residual(1.5, 1.0, grid, branch="II") < 1e-13


def test_coupled_residual_takes_any_nonempty_grid():
    # the derivatives are exact, so one or two points evaluate as a long
    # grid does (1.7e-16 and 6.8e-16 measured)
    assert coupled_residual(2.0, 1.0, np.array([0.0])) < 1e-13
    assert coupled_residual(2.0, 1.0, np.array([-3.0, 1.0])) < 1e-13


_NO_Z = np.array([])


@pytest.mark.parametrize("call, shape, dtype", [
    (lambda: sample_wavefield("I", 1, 2.0, 1.0, []), (0,), complex),
    (lambda: solution_checks(1, 2.0, 1.0, _NO_Z)[0], (0,), complex),
    (lambda: solution_checks(np.array([1, -1]), 2.0, 1.0, _NO_Z)[0], (2, 0), complex),
    (lambda: solution_checks(1, np.array([2.0, 3.0, 1.5]), 1.0, _NO_Z)[0], (3, 0), complex),
    (lambda: solution_checks(-1, 2.0, 1.0, _NO_Z)[1], (2, 0), float),
    (lambda: solution_checks(np.array([1, -1]), 2.0, 1.0, _NO_Z)[1], (2, 2, 0), float),
    (lambda: solution_checks(1, 2.0, 1.0, _NO_Z)[1], (2, 0), float),
    (lambda: solution_checks(1, np.array([2.0, 3.0]), np.array([1.0, 0.5]), _NO_Z)[1], (2, 2, 0), float),
], ids=["sample_wavefield", "wronskian", "wronskian sign array", "wronskian cases", "residual", "residual sign array",
        "residual branch tuple", "residual cases"])
def test_an_empty_grid_or_z_column_gives_an_empty_result(call, shape, dtype):
    # no points evaluate to no values, in the rows a point would have
    got = call()
    if isinstance(got, WaveField):
        assert got.grid.shape == (0,) and got.branch == "I"
        got = got.values
    assert got.shape == shape and got.dtype == dtype


# ----------------------------------------------------------------- wronskian

def test_wronskian_reference_value():
    got = solution_checks(1, 2.0, 1.0, 0.3)[0]
    assert abs(got - (2.0 - 16.0j)) < 1e-9


def test_wronskian_constant_across_z():
    a = solution_checks(1, 2.0, 1.0, 0.2)[0]
    b = solution_checks(1, 2.0, 1.0, 0.8)[0]
    assert abs(a - b) < 1e-9


def test_wronskian_sign_flip():
    plus = solution_checks(1, 2.0, 1.0, 0.4)[0]
    minus = solution_checks(-1, 2.0, 1.0, 0.4)[0]
    assert abs(plus + minus) < 1e-9


def test_wronskian_matches_closed_form_on_pairs():
    for omega, m in OMEGA_M_PAIRS:
        c1 = 0.5 + 2j * omega
        for sign in (1, -1):
            expected = sign * 2.0 * omega / m * (1.0 - c1)
            assert abs(solution_checks(sign, omega, m, 0.35)[0] - expected) < 1e-9


@pytest.mark.parametrize("z", [1 - 1e-16, 1 - 1e-14, 1e-300, 1e-320, 5e-324])
def test_checks_hold_to_the_ends_of_the_unit_interval(z):
    # the derivatives are d/dx = z(1-z) d/dz, so no term overflows as z -> 0
    # or 1: the Wronskian reads its constant to 4.2e-15 and the residual
    # 6.9e-15 at worst here (z-derivatives would overflow below z ~ 1e-154)
    omega, m = np.array([2.0, 1.5, 3.0]), np.array([1.0, 1.0, 2.0])
    expected = np.array([1, -1]) * (2.0 * omega / m * (0.5 - 2j * omega))[:, None]
    wronskian, residual = solution_checks(np.array([1, -1]), omega, m, z)
    assert np.max(np.abs(wronskian / expected - 1.0)) < 1e-13
    assert np.max(residual) < 1e-13


def test_stencil_checks_pass_where_verify_evaluates():
    # the z values verify uses, and both sides of each end of (0, 1): the
    # checks hold at the last doubles inside and raise DomainError at the ends
    for z in (0.2, 0.3, 0.5, 0.8):
        assert cmath.isfinite(solution_checks(1, 2.0, 1.0, z)[0])
    for z in np.linspace(0.05, 0.95, 19):
        assert math.isfinite(_residual("I", 1, 2.0, 1.0, z))
    for inside, end in ((5e-324, 0.0), (1.0 - 2.0**-53, 1.0)):
        wronskian, residual = solution_checks(1, 2.0, 1.0, inside)
        assert abs(wronskian - (2.0 - 16.0j)) < 1e-13 * abs(2.0 - 16.0j)
        assert residual[0] < 1e-13
        with pytest.raises(DomainError):
            solution_checks(1, 2.0, 1.0, end)


def test_residuals_over_a_z_column_match_the_float_calls(monkeypatch):
    z = np.linspace(0.05, 0.95, 19)
    for omega in (1.5, 0.5 + 0.5j, 2.0 + 0.3j):  # a complex omega makes q complex
        for sign in (1, -1):
            got = solution_checks(sign, omega, 1.0, z)[1]
            expected = [solution_checks(sign, omega, 1.0, v)[1] for v in z.tolist()]
            assert got.tobytes() == np.stack(expected, axis=-1).tobytes()
    for sign in (1, -1):
        got = solution_checks(sign, 2.0, 1.0, z)[0]
        expected = [solution_checks(sign, 2.0, 1.0, v)[0] for v in z.tolist()]
        assert all(type(v) is complex for v in expected)
        assert got.tobytes() == np.array(expected).tobytes()
    # every element is checked before any is evaluated
    calls = []
    monkeypatch.setattr(specfun_mod, "hyp2f1", lambda *args: calls.append(args))
    for bad in ([0.3, 1.2], [0.3, 0.0], [0.3, math.nan], [[0.3, 0.5]]):
        with pytest.raises(DomainError):
            solution_checks(1, 2.0, 1.0, np.array(bad))
    assert calls == []


# Gauss route up to z = 1/2, connection route above it
_BOTH_ROUTES = np.linspace(0.05, 0.95, 19)


@pytest.mark.parametrize("omega", [1.5, 2.0, 10.0])
@pytest.mark.parametrize("z", [_BOTH_ROUTES, np.array([0.2, 0.5, 0.8]), 0.3, 0.7],
                         ids=["column", "verify column", "Gauss float", "connection float"])
def test_sign_array_rows_equal_the_number_sign_calls(omega, z):
    # one evaluation of the R-tilde columns serves every sign; each row keeps
    # the bits of its number-sign call
    for signs in (np.array([1, -1]), np.array([-1, 1, 1]), [1.0, -1.0]):
        wronskian, residual = solution_checks(signs, omega, 1.0, z)
        assert wronskian.shape == (len(signs),) + np.shape(z) and residual.shape == (2, len(signs)) + np.shape(z)
        for i, sign in enumerate(signs):
            one = solution_checks(sign, omega, 1.0, z)
            assert wronskian[i].tobytes() == np.array(one[0]).tobytes()
            assert residual[:, i].tobytes() == one[1].tobytes()


def _one_branch_at_a_time(monkeypatch):
    """Evaluate every tuple of branches one ``hyp2f1`` set at a time, as
    separate single-branch evaluations."""
    merged = solutions_mod._solution_from_logs
    monkeypatch.setattr(solutions_mod, "_solution_from_logs",
                        lambda branches, *args: np.concatenate([merged((b,), *args) for b in branches]))


@pytest.mark.parametrize("omega", [1.5, 2.0, 10.0])
@pytest.mark.parametrize("z", [_BOTH_ROUTES, np.array([0.2, 0.5, 0.8]), 0.3, 0.7],
                         ids=["column", "verify column", "Gauss float", "connection float"])
def test_branch_tuple_rows_equal_the_single_branch_evaluations(monkeypatch, omega, z):
    # Z^I and Z^II share one hyp2f1 call per component, one parameter set
    # each; every row keeps the bits of its single-branch evaluation
    signs = (1, np.array([1, -1]))
    merged = [solution_checks(sign, omega, 1.0, z) for sign in signs]
    assert [got[1].shape for got in merged] == [(2,) + np.shape(sign) + np.shape(z) for sign in signs]
    _one_branch_at_a_time(monkeypatch)
    for got, sign in zip(merged, signs):
        single = solution_checks(sign, omega, 1.0, z)
        assert [np.array(v).tobytes() for v in got] == [np.array(v).tobytes() for v in single]


# (omega, m) cases: real omega on both routes and both sides of the threshold,
# complex omega, and one case repeated
_CASES = (np.array([2.0, 1.5, 3.0, 10.0, 0.6, 0.5 + 0.5j, 2.0]), np.array([1.0, 1.0, 2.0, 0.5, 1.0, 1.0, 1.0]))


@pytest.mark.parametrize("z", [_BOTH_ROUTES, np.array([0.2, 0.5, 0.8]), 0.3, 0.7],
                         ids=["column", "verify column", "Gauss float", "connection float"])
@pytest.mark.parametrize("sign", [1, -1, np.array([1, -1])], ids=["+1", "-1", "sign array"])
def test_case_rows_equal_the_number_calls(z, sign):
    # one evaluation of every case's R-tilde columns; each case's row keeps
    # the bits of its number call, for every sign array
    omega, m = _CASES
    wronskian, residual = solution_checks(sign, omega, m, z)
    assert wronskian.shape == (omega.size,) + np.shape(sign) + np.shape(z)
    assert residual.shape == (omega.size, 2) + np.shape(sign) + np.shape(z)
    for i, (w, v) in enumerate(zip(omega.tolist(), m.tolist())):
        one = solution_checks(sign, w, v, z)
        assert wronskian[i].tobytes() == np.array(one[0]).tobytes() and residual[i].tobytes() == one[1].tobytes()


@pytest.mark.parametrize("omega, m", [(np.array([2.0, 1.5]), 1.0), (2.0, np.array([1.0, 0.5])),
                                      (np.array([2.0]), np.array([1.0]))],
                         ids=["omega column", "m column", "one-element columns"])
def test_a_number_stands_for_every_case(omega, m):
    z = np.array([0.2, 0.5, 0.8])
    cases = list(zip(*(v.tolist() for v in np.broadcast_arrays(omega, m))))
    for sign in (np.array([1, -1]), -1):
        got = solution_checks(sign, omega, m, z)
        assert [len(v) for v in got] == [len(cases)] * 2
        for i, (w, v) in enumerate(cases):
            assert [v[i].tobytes() for v in got] == [v.tobytes() for v in solution_checks(sign, w, v, z)]


def test_all_cases_share_one_hyp2f1_call_per_component(monkeypatch):
    calls, ratios = [], []
    hyp2f1, ratio = specfun_mod.hyp2f1, specfun_mod.gamma_ratio
    monkeypatch.setattr(specfun_mod, "hyp2f1", lambda *args: calls.append(args) or hyp2f1(*args))
    monkeypatch.setattr(specfun_mod, "gamma_ratio", lambda *args: ratios.append(args) or ratio(*args))
    omega, m = _CASES
    solution_checks(np.array([1, -1]), omega, m, _BOTH_ROUTES)
    # Z^I and Z^II of every case are parameter sets of one call, and so are
    # their (a + k, b + k, c + k) sets for the first and second derivatives; all share z
    assert [(args[0].size, np.shape(args[3])) for args in calls] == [(3 * 2 * omega.size, _BOTH_ROUTES.shape)] * 2
    assert len(ratios) == 4  # two connection ratios per component, for all sets


@pytest.mark.parametrize("omega, m, error", [
    (np.array([2.0, 3.0]), np.array([1.0, 1.0, 2.0]), DomainError),
    (np.array([[2.0, 3.0]]), 1.0, DomainError),
    (2.0, np.array([[1.0, 2.0]]), DomainError),
    (np.array([2.0, 0.0, 3.0]), 1.0, ZeroFrequencyError),
    (np.array([2.0, -0.25j]), np.array([1.0, 2.0]), DegenerateCError),
], ids=["lengths", "2-d omega", "2-d m", "zero omega", "degenerate c1"])
@pytest.mark.parametrize("sign", [np.array([1, -1]), 1], ids=["sign array", "one sign"])
def test_a_bad_case_is_refused_before_any_2f1(monkeypatch, omega, m, error, sign):
    calls = []
    monkeypatch.setattr(specfun_mod, "hyp2f1", lambda *args: calls.append(args))
    with pytest.raises(error):
        solution_checks(sign, omega, m, _BOTH_ROUTES)
    assert calls == []


@pytest.mark.parametrize("branch", ["III", ("I", "III"), (), ["I", "II"], ("I", ("II",))],
                         ids=["III", "tuple with III", "empty tuple", "list", "nested tuple"])
def test_a_branch_tuple_holds_only_i_and_ii(monkeypatch, branch):
    calls = []
    monkeypatch.setattr(specfun_mod, "hyp2f1", lambda *a: calls.append(a))
    with pytest.raises(DomainError, match="'I' or 'II'"):
        exact_solution_at_z(branch, 1, 2.0, 1.0, 0.3)
    assert calls == []


@pytest.mark.parametrize("call", [lambda b: exact_solution(b, 1, 2.0, 1.0, 0.3),
                                  lambda b: exact_solution_at_z(b, 1, 2.0, 1.0, 0.3),
                                  lambda b: sample_wavefield(b, 1, 2.0, 1.0, [0.0, 1.0])],
                         ids=["exact_solution", "exact_solution_at_z", "sample_wavefield"])
def test_a_branch_tuple_is_a_domain_error_where_one_wavefunction_is_returned(call):
    with pytest.raises(DomainError, match="'I' or 'II'"):
        call(("I", "II"))


_ONE_SIGN = [(exact_solution, ("I", "sign", 2.0, 1.0, 0.3)), (exact_solution_at_z, ("I", "sign", 2.0, 1.0, 0.3)),
             (sample_wavefield, ("I", "sign", 2.0, 1.0, [0.0, 1.0]))]
_SIGN_ROWS = [(solution_checks, ("sign", 2.0, 1.0, 0.3))]


def _refuses_sign(monkeypatch, call, args, sign):
    """``call`` raises the typed sign error before any 2F1 is summed."""
    calls = []
    monkeypatch.setattr(specfun_mod, "hyp2f1", lambda *a: calls.append(a))
    with pytest.raises(DomainError, match="sign must be"):
        call(*[sign if a == "sign" else a for a in args])
    assert calls == []


@pytest.mark.parametrize("call, args", _ONE_SIGN + _SIGN_ROWS, ids=[c.__name__ for c, _ in _ONE_SIGN + _SIGN_ROWS])
@pytest.mark.parametrize("sign", [True, False, np.True_, 0, 2, -1.5, math.nan, None, "+", np.array([], dtype=int),
                                  np.array([[1, -1]]), np.array([1, 0]), np.array([True, False]),
                                  np.array([1, -1]) + 0j],
                         ids=["True", "False", "np.True_", "0", "2", "-1.5", "nan", "None", "'+'", "empty array",
                              "2-d array", "array with 0", "bool array", "complex array"])
def test_a_sign_other_than_plus_or_minus_one_is_a_domain_error(monkeypatch, call, args, sign):
    # True is not +1; nor is any array a valid sign list unless it is 1-d,
    # non-empty and holds only +1 and -1
    _refuses_sign(monkeypatch, call, args, sign)


@pytest.mark.parametrize("call, args", _ONE_SIGN, ids=[c.__name__ for c, _ in _ONE_SIGN])
@pytest.mark.parametrize("signs", [np.array([1, -1]), np.array([1]), [1, -1]], ids=["pair", "one", "list"])
def test_a_sign_array_is_a_domain_error_where_one_wavefunction_is_returned(monkeypatch, call, args, signs):
    _refuses_sign(monkeypatch, call, args, signs)


# ----------------------------------------------------------------- wavefield

def test_wavefield_validation():
    with pytest.raises(DomainError):
        WaveField(grid=np.array([0.0, -1.0]), values=np.array([1j, 2j]),
                  omega=2.0, m=1.0, kind=None)
    with pytest.raises(DomainError):
        WaveField(grid=np.array([0.0, 1.0]), values=np.array([1j, complex("nan")]),
                  omega=2.0, m=1.0, kind=None)


@pytest.mark.parametrize("grid", [[0.0, math.inf], [-math.inf, 0.0], [0.0, math.nan], [[0.0, 1.0]], [0.0, 1j],
                                  [False, True]],
                         ids=["inf", "-inf", "nan", "2-d", "complex", "bool"])
def test_wavefield_grid_rule_is_the_x_grid_rule(grid):
    # a non-finite grid point is refused as sample_wavefield refuses it
    values = np.ones(np.size(grid), dtype=complex)
    with pytest.raises(DomainError):
        WaveField(grid=grid, values=values, omega=2.0, m=1.0, kind=None)
    with pytest.raises(DomainError):
        sample_wavefield("I", 1, 2.0, 1.0, grid)


def test_wavefield_owns_a_float_copy_of_its_grid():
    grid = np.array([0, 1, 2])
    field = WaveField(grid=grid, values=np.ones(3, dtype=complex), omega=2.0, m=1.0, kind=None)
    assert field.grid.dtype == float and field.grid is not grid
    with pytest.raises(DomainError, match="equal length"):
        WaveField(grid=grid, values=np.ones((1, 3), dtype=complex), omega=2.0, m=1.0, kind=None)


def test_sample_wavefield_matches_pointwise():
    grid = np.concatenate([[-600.0], np.linspace(-5.0, 5.0, 21), [600.0]])
    for branch in ("I", "II"):
        for sign in (1, -1):
            field = sample_wavefield(branch, sign, 2.0, 1.0, grid)
            assert field.branch == branch and field.values[11] == exact_solution(branch, sign, 2.0, 1.0, 0.0)
            pointwise = [exact_solution(branch, sign, 2.0, 1.0, x) for x in grid]
            assert field.values.tobytes() == np.array(pointwise).tobytes()
            assert np.all(np.isfinite(field.values.view(float)))



def test_long_wavefield_matches_pointwise():
    # past 16384 points (256 KiB of complex) numpy turns x * temporary into
    # an in-place multiply, which rounds differently; every product of a
    # long grid goes to an array of its own and keeps the number calls' bits
    grid = np.linspace(-20.0, 20.0, 20000)
    field = sample_wavefield("I", 1, 12.0, 1.0, grid)
    for i in range(0, grid.size, 211):
        assert field.values[i] == exact_solution("I", 1, 12.0, 1.0, float(grid[i])), i

def test_non_finite_x_rejected():
    for x in (float("inf"), -float("inf"), float("nan")):
        with pytest.raises(DomainError, match="x = "):
            exact_solution("I", 1, 2.0, 1.0, x)
        with pytest.raises(DomainError, match="x = "):
            sample_wavefield("I", 1, 2.0, 1.0, [0.0, 1.0, x])


@pytest.mark.parametrize("call, args, message", [
    (make_exponents, (math.inf, 1.0), "finite"),
    (make_exponents, (2.0, math.nan), "finite"),
    (make_exponents, (np.array([2.0, math.inf]), 1.0), "finite"),
    (exact_solution, ("I", 1, math.nan, 1.0, 0.3), "finite"),
    (solution_checks, (1, math.inf, 1.0, 0.5), "finite"),
    (sample_wavefield, ("I", 1, 2.0, math.inf, [0.0, 1.0]), "finite"),
    (solution_checks, (1, 2.0, 1.0, 1.5), r"z = 1\.5 outside"),
], ids=lambda v: v.__name__ if callable(v) else repr(v))
def test_non_finite_numbers_are_domain_errors(call, args, message):
    with pytest.raises(DomainError, match=message):
        call(*args)


@pytest.mark.parametrize("call, args", [
    (sample_wavefield, ("I", 1, 2.0, 1.0, np.array([1 + 1j, 2 + 1j]))),
    (sample_wavefield, ("I", 1, 2.0, 1.0, np.array([1.0, 2.0 + 0j]))),
    (exact_solution, ("I", 1, 2.0, 1.0, 1j)),
    (exact_solution, ("I", 1, 2.0, 1.0, 0.3 + 0j)),
    (exact_solution_at_z, ("I", 1, 2.0, 1.0, 0.3 + 0j)),
    (solution_checks, (1, 2.0, 1.0, 0.3 + 0j)),
    (solution_checks, (1, 2.0, 1.0, np.array([0.3, 0.5 + 1e-3j]))),
    (solution_checks, (1, 2.0, 1.0, np.array([0.3, 0.5]) + 0j)),
], ids=["wavefield grid", "wavefield grid of zero imaginary part", "exact_solution 1j", "exact_solution 0.3+0j",
        "exact_solution_at_z", "solution_checks number", "solution_checks column",
        "solution_checks column of zero imaginary part"])
def test_a_complex_grid_or_z_is_a_domain_error(monkeypatch, call, args):
    # a complex dtype is refused, not cast to its real part
    calls = []
    monkeypatch.setattr(specfun_mod, "hyp2f1", lambda *a: calls.append(a))
    with pytest.raises(DomainError, match="must be real"):
        call(*args)
    assert calls == []


_OMEGAS = np.array([2.0, 3.0])


_ONE_CASE = [(exact_solution, ("I", 1, "omega", "m", 0.3)), (exact_solution_at_z, ("I", 1, "omega", "m", 0.3)),
             (sample_wavefield, ("I", 1, "omega", "m", [0.0, 1.0]))]


@pytest.mark.parametrize("call, args", _ONE_CASE, ids=[c.__name__ for c, _ in _ONE_CASE])
@pytest.mark.parametrize("name", ["omega", "m"])
def test_an_omega_or_m_array_is_a_domain_error(call, args, name):
    # these evaluate one wavefunction, so take one (omega, m) case; make_exponents
    # and solution_checks take case columns
    given = {"omega": 2.0, "m": 1.0, name: _OMEGAS}
    with pytest.raises(DomainError, match=rf"{name} must be a number here, got an array of shape \(2,\)"):
        call(*[given.get(a, a) if isinstance(a, str) else a for a in args])


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
    # a call makes them once per component, whatever its number of points,
    # branches and signs
    calls = []
    ratio = specfun_mod.gamma_ratio
    monkeypatch.setattr(specfun_mod, "gamma_ratio", lambda *args: calls.append(args) or ratio(*args))
    sample_wavefield("I", 1, 2.0, 1.0, np.linspace(-20.0, 20.0, 1001))
    assert 0 < len(calls) <= 4
    for evaluate, expected in ((lambda: exact_solution("I", 1, 2.0, 1.0, 1.0), 4),
                               (lambda: coupled_residual(2.0, 1.0, np.linspace(0.5, 3.0, 11)), 4),
                               (lambda: solution_checks(-1, 2.0, 1.0, 0.7), 4),
                               (lambda: solution_checks(np.array([1, -1]), 2.0, 1.0, 0.7), 4)):
        calls.clear()
        evaluate()
        assert len(calls) == expected


def test_solution_invalid_arguments():
    with pytest.raises(DomainError):
        exact_solution("III", 1, 2.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        exact_solution("I", 0, 2.0, 1.0, 0.0)


def test_solution_stable_at_extreme_x():
    # log-form power factors keep the closed form finite far outside the
    # range where z = e^x / (e^x + 1) saturates to 0.0 or 1.0
    for x in (-600.0, -80.0, 80.0, 600.0):
        val = exact_solution("I", 1, 2.0, 1.0, x)
        assert cmath.isfinite(val)
        assert abs(val) < 10.0


# ---------------------------------------------------------- solution_checks

# verify's evaluation: its three (omega, m) cases at the union of its two z grids
_VERIFY_CASES = (np.array([2.0, 1.5, 3.0]), np.array([1.0, 1.0, 2.0]))
_VERIFY_Z = np.union1d(np.linspace(0.05, 0.95, 19), [0.2, 0.5, 0.8])


@pytest.mark.parametrize("sign", [np.array([1, -1]), 1, -1], ids=["both signs", "plus", "minus"])
@pytest.mark.parametrize("cases", [_VERIFY_CASES, (2.0, 1.0), (np.array([1.5]), 1.0)],
                         ids=["verify's cases", "one case", "one-element column"])
@pytest.mark.parametrize("z", [_VERIFY_Z, 0.3, 0.5, np.array([0.5])], ids=["verify's z", "number z", "z = 0.5", "[0.5]"])
def test_solution_checks_give_the_wronskian_and_residual_rows(sign, cases, z):
    # one evaluation of Z^I and Z^II up to order 2 gives both checks: the Wronskian
    # (a Python complex for number arguments) at its constant +/- (2 omega / m)(1 - c1),
    # and the residual with a row per branch after any case rows
    assert _VERIFY_Z.size == 21 and specfun_mod.Z_SWITCH in _VERIFY_Z.tolist()
    wronskian, residual = solution_checks(sign, *cases, z)
    rows = np.shape(cases[0])
    assert np.shape(wronskian) == rows + np.shape(sign) + np.shape(z)
    assert residual.shape == rows + (2,) + np.shape(sign) + np.shape(z)
    assert type(wronskian) is (np.ndarray if np.shape(wronskian) else complex)
    omega, m = (np.reshape(v, np.shape(v) + (1,) * (np.ndim(sign) + np.ndim(z))) for v in cases)
    expected = np.reshape(sign, np.shape(sign) + (1,) * np.ndim(z)) * 2.0 * omega / m * (0.5 - 2j * omega)
    assert np.max(np.abs(wronskian - expected) / np.abs(expected)) < 1e-11 and np.max(residual) < 1e-10


def test_solution_checks_make_one_hyp2f1_call_per_component(monkeypatch):
    calls = []
    hyp2f1 = specfun_mod.hyp2f1
    monkeypatch.setattr(specfun_mod, "hyp2f1", lambda *args: calls.append(args) or hyp2f1(*args))
    solution_checks(np.array([1, -1]), *_VERIFY_CASES, _VERIFY_Z)
    # (order, case, branch) parameter sets: orders 0-2 of both branches of the three cases
    assert [(args[0].size, np.shape(args[3])) for args in calls] == [(3 * 3 * 2, (21,))] * 2


@pytest.mark.parametrize("z, error", [(1.5, DomainError), (np.array([[0.3]]), DomainError), (0.3 + 0j, DomainError)])
def test_solution_checks_refuse_what_the_checks_refuse(monkeypatch, z, error):
    calls = []
    monkeypatch.setattr(specfun_mod, "hyp2f1", lambda *args: calls.append(args))
    with pytest.raises(error):
        solution_checks(1, 2.0, 1.0, z)
    with pytest.raises(DomainError, match="sign must be"):
        solution_checks(0, 2.0, 1.0, 0.3)
    assert calls == []


# ----------------------------------------------------------- mpmath oracle

_ORACLE_X = np.array([-5.0, -1.0, 0.0, 0.3, 1.0, 5.0])  # z from 0.0067 to 0.9933: both 2F1 routes


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("omega", [1.2, 2.0, 5.0, 10.0])
def test_wavefunctions_match_the_mpmath_oracle(omega, m):
    # both branches and partners, below threshold (1.2 < 2) and above it, to
    # 1e-11 relative (the worst reads 1.5e-12, at omega = 10, x = 0: the
    # Gauss series at z = 1/2); omega stays below 30, where the series loses
    # digits.  omega = m = 2 is threshold: there c - a - b = -2 B1 = 0, so
    # the Gauss route holds and the connection formula raises its typed error
    near = _ORACLE_X if omega != m else _ORACLE_X[_ORACLE_X <= 0.0]
    for branch in ("I", "II"):
        for sign in (1, -1):
            expected = np.array([wavefunction_oracle(branch, sign, omega, m, x) for x in near])
            points = np.array([exact_solution(branch, sign, omega, m, x) for x in near])
            for got in (points, sample_wavefield(branch, sign, omega, m, near).values):
                assert np.max(np.abs(got - expected) / np.abs(expected)) < 1e-11
            if omega == m:
                with pytest.raises(DegenerateParamsError):
                    sample_wavefield(branch, sign, omega, m, _ORACLE_X)


# ------------------------------------------------------ overflowing inputs

@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("omega, m, first", [
    (1e308, 1.0, "omega = 1e+308, m = 1.0"),  # omega^2 is inf: B was inf j
    (np.array([2.0, 1e200, 3.0]), 1.0, "omega = 1e+200, m = 1.0"),  # B was inf j with an overflow warning
    (2.0, np.array([1.0, 1e200]), "omega = 2.0, m = 1e+200"),
    (2e200, 1e200, "omega = 2e+200, m = 1e+200"),  # inf - inf
])
def test_b_exponent_refuses_a_root_past_the_double_range(omega, m, first):
    with pytest.raises(DomainError, match=re.escape(first)):
        b_exponent(omega, m)


@pytest.mark.parametrize("value", ["a", None, 10**400], ids=["str", "None", "int past the double range"])
@pytest.mark.parametrize("name", ["omega", "m"])
def test_b_exponent_refuses_a_non_numeric_or_overflowing_argument(name, value):
    # the arithmetic raised TypeError or OverflowError
    given = {"omega": 2.0, "m": 1.0, name: value}
    with pytest.raises(DomainError, match="double range"):
        b_exponent(given["omega"], given["m"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_b_exponent_keeps_its_bits_where_it_is_finite():
    omega = np.array([2.0, 0.5, 0.75j, 2.0 + 0.1j, 1e150, 1.0])
    r = np.sqrt(1.0 - omega * omega + 0j)
    assert b_exponent(omega, 1.0).tobytes() == np.where(r.imag < -1e-14 * np.abs(r), -r, r).tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_make_exponents_at_a_huge_omega_raises_without_a_warning():
    # c1 = 2 i omega + 1/2 overflowed outside the error state, with a warning
    with pytest.raises(DomainError, match=re.escape("omega = (1e+308+0j), m = 1.0")):
        make_exponents(1e308, 1.0)
