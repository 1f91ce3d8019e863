"""Closed-form potential identities, limits, and the SUSY decomposition."""

import math

import numpy as np
import pytest
from _oracles import potential_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

import susystep
from susystep.errors import DomainError, ResultOverflowError
from susystep.potentials import (
    PotentialKind,
    PotentialSpec,
    potential,
    potential_antiderivative,
    potential_hyperbolic,
    shape_invariance_check,
    superpotential,
    v_minus,
    v_plus,
    v_step,
)


def _dw(x, m):
    # dW/dx = -(m/2) e^(x/2) / (e^x + 1)^(3/2), as the partner potentials form it
    return -0.5 * m * np.exp(0.5 * x - 1.5 * np.logaddexp(0.0, x))


SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)

MS = st.floats(0.1, 5.0)
XS = st.floats(-50.0, 50.0)


# ----------------------------------------------------------- superpotential

def test_superpotential_at_origin():
    assert math.isclose(float(superpotential(0.0, 1.0)), -1.0 / math.sqrt(2.0), rel_tol=1e-15)


def test_superpotential_right_limit():
    # W -> -m as x -> +infinity
    assert abs(float(superpotential(40.0, 1.0)) + 1.0) < 1e-15


def test_superpotential_left_limit_from_below():
    # W -> 0 through negative values
    w = float(superpotential(-40.0, 1.0))
    assert -1e-8 < w < 0.0


def test_superpotential_rejects_zero_coupling():
    with pytest.raises(DomainError):
        superpotential(0.0, 0.0)


@given(x=XS, m=MS)
@SETTINGS
def test_superpotential_never_crosses_zero(x, m):
    assert float(superpotential(x, m)) < 0.0
    assert float(superpotential(x, -m)) > 0.0


# --------------------------------------------------------------- potentials

def test_partner_values_at_origin():
    spec = PotentialSpec.plus(1.0)
    assert math.isclose(float(potential(spec, 0.0)), 0.5 - 0.5 * 2.0**-1.5, rel_tol=1e-15)
    # hyperbolic form gives the same number written differently
    assert math.isclose(float(potential_hyperbolic(spec, 0.0)), 0.5 - 2.0**-2.5, rel_tol=1e-15)
    assert math.isclose(float(potential_hyperbolic(PotentialSpec.minus(1.0), 0.0)), 0.5 + 2.0**-2.5, rel_tol=1e-15)


def test_partner_right_limit_is_m_squared():
    for m in (0.5, 1.0, 2.0):
        for spec in (PotentialSpec.plus(m), PotentialSpec.minus(m)):
            assert abs(float(potential(spec, 45.0)) - m * m) < 1e-14 * m * m + 1e-15


def test_partner_left_limits_signed():
    # V+ -> 0 from below, V- -> 0 from above
    vp = float(potential(PotentialSpec.plus(1.0), -35.0))
    vm = float(potential(PotentialSpec.minus(1.0), -35.0))
    assert -1e-7 < vp < 0.0
    assert 0.0 < vm < 1e-7


def test_step_at_origin_is_half_height():
    assert float(potential(PotentialSpec.step(1.0, 1.0), 0.0)) == 0.5


def test_step_asymptotes():
    spec = PotentialSpec.step(2.5, 0.7)
    assert abs(float(potential(spec, 60.0)) - 2.5) < 1e-12
    assert abs(float(potential(spec, -60.0))) < 1e-12


@pytest.mark.parametrize("build", [
    lambda: PotentialSpec.plus(math.inf),
    lambda: PotentialSpec.minus(-math.inf),
    lambda: PotentialSpec.step(math.nan),
    lambda: PotentialSpec.step(1.0, math.inf),
    lambda: PotentialSpec(PotentialKind.MINUS, 1.0, v0=math.nan),
], ids=["plus m=inf", "minus m=-inf", "step v0=nan", "step alpha=inf", "minus v0=nan"])
def test_spec_rejects_non_finite_fields(build):
    with pytest.raises(DomainError, match="finite"):
        build()


def test_spec_validation():
    with pytest.raises(DomainError):
        PotentialSpec.plus(0.0)
    with pytest.raises(DomainError):
        PotentialSpec.minus(-1.0)
    with pytest.raises(DomainError):
        PotentialSpec.step(1.0, 0.0)
    with pytest.raises(DomainError, match="real"):
        PotentialSpec.plus(1 + 0j)
    with pytest.raises(DomainError, match="real"):
        PotentialSpec.plus(True)  # a bool is not m = 1
    with pytest.raises(DomainError, match="real"):
        PotentialSpec.step(1.0, True)
    for m in (1e200, 10**200):  # m^2 overflows a double; the int's exact square is past a float
        with pytest.raises(DomainError, match=r"m\^2 finite"):
            PotentialSpec.plus(m)
    with pytest.raises(DomainError, match="unknown potential kind"):
        PotentialSpec("plus")  # the string, not PotentialKind.PLUS
    # tested by isinstance before any enum comparison: a 0-d array passed as
    # PLUS, and a 2-element one raised numpy's ambiguous-truth ValueError
    for kind in (np.array(PotentialKind.PLUS), np.array([PotentialKind.PLUS, PotentialKind.STEP])):
        with pytest.raises(DomainError, match="unknown potential kind array"):
            PotentialSpec(kind, 1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("v0, alpha", [(1.0, 0.01), (-2.0, 1e-300), (3.0, 0.5)])
def test_step_saturates_where_x_over_alpha_overflows(v0, alpha):
    # x/alpha past the double range reads 0 and v0, where inf - inf gave nan
    # with warnings; wherever x/alpha is finite the form keeps its bits
    huge = np.array([-1.7e308, -1e308, 1e308, 1.7e308])
    assert potential(PotentialSpec.step(v0, alpha), huge).tolist() == v_step(huge, v0, alpha).tolist() == [0.0, 0.0, v0, v0]
    far = np.geomspace(1e-300, 1e300, 601)
    xs = np.concatenate([np.linspace(-100.0, 100.0, 20001), far, -far]) * alpha
    y = xs / alpha
    assert np.isfinite(y).all() and v_step(xs, v0, alpha).tobytes() == (v0 * np.exp(y - np.logaddexp(0.0, y))).tobytes()


@given(x=XS, m=MS)
@SETTINGS
def test_hyperbolic_equals_exponential_form(x, m):
    for spec in (PotentialSpec.plus(m), PotentialSpec.minus(m)):
        a = float(potential(spec, x))
        b = float(potential_hyperbolic(spec, x))
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_hyperbolic_rejects_step():
    with pytest.raises(DomainError):
        potential_hyperbolic(PotentialSpec.step(1.0), 0.0)


def test_ces_coupling_constraint():
    # the two structural coefficients are locked: (1/4) m^2 - (m/2)^2 = 0
    for m in (0.3, 1.0, 2.7, 11.0):
        assert 0.25 * m * m - (0.5 * m) ** 2 == 0.0
        assert 0.25 * m * m - (-0.5 * m) ** 2 == 0.0


# ------------------------------------------------------- SUSY decomposition

def test_susy_decomposition_residual():
    # V+/- = W^2 +/- dW/dx with the derivative taken numerically
    xs = np.linspace(-20.0, 20.0, 401)
    h = 1e-5
    for m in (0.5, 1.0, 2.0):
        dw = (superpotential(xs + h, m) - superpotential(xs - h, m)) / (2 * h)
        w2 = superpotential(xs, m) ** 2
        for spec, sign in ((PotentialSpec.plus(m), 1.0), (PotentialSpec.minus(m), -1.0)):
            res = np.abs(potential(spec, xs) - (w2 + sign * dw))
            scale = np.max(np.abs(potential(spec, xs))) + m * m
            assert float(np.max(res)) / scale < 1e-7


def test_superpotential_derivative_closed_form():
    xs = np.linspace(-15.0, 15.0, 101)
    h = 1e-6
    num = (superpotential(xs + h, 1.3) - superpotential(xs - h, 1.3)) / (2 * h)
    assert float(np.max(np.abs(num - _dw(xs, 1.3)))) < 1e-9


def test_exponential_approach_to_right_asymptote():
    # |V(x) - m^2| <= C e^-x for x > 10, with C fitted at x = 12
    xs = np.linspace(10.0, 30.0, 41)
    for spec in (PotentialSpec.plus(1.0), PotentialSpec.minus(1.0)):
        gap = np.abs(np.asarray(potential(spec, xs)) - 1.0)
        c_fit = float(np.abs(potential(spec, 12.0) - 1.0)) * math.exp(12.0)
        assert np.all(gap <= 1.05 * c_fit * np.exp(-xs))


# ----------------------------------------------------------- antiderivative

def test_antiderivative_at_origin():
    got = float(potential_antiderivative(PotentialSpec.plus(1.0), 0.0))
    assert math.isclose(got, math.log(2.0) - 1.0 / math.sqrt(2.0), rel_tol=1e-14)


def test_antiderivative_differentiates_back():
    xs = np.linspace(-25.0, 25.0, 201)
    h = 1e-5
    for spec in (PotentialSpec.plus(1.7), PotentialSpec.minus(0.6)):
        grad = (potential_antiderivative(spec, xs + h) - potential_antiderivative(spec, xs - h)) / (2 * h)
        assert float(np.max(np.abs(grad - potential(spec, xs)))) < 1e-8


def test_antiderivative_diverges():
    # grows like m^2 x, hence the full-line integral of V diverges;
    # (at x = 50 the value is ~49 for m = 1, so probe far enough out)
    f = potential_antiderivative
    spec = PotentialSpec.plus(1.0)
    assert float(f(spec, 2000.0)) > 1e3
    assert float(f(spec, 50.0)) > float(f(spec, 10.0)) > float(f(spec, 0.0))


def test_an_antiderivative_past_the_double_range_is_a_typed_error():
    # m^2 = 1e308 is finite, m^2 softplus(x) is not from x ~ 1.6 on; the first such x is named,
    # and a column without one keeps the formula's bits
    m = 1e154
    spec = PotentialSpec.minus(m)
    for x in (800.0, np.array([-800.0, 0.0, 800.0, 1.7])):
        with pytest.raises(ResultOverflowError, match=r"at x = 800\.0$"):
            potential_antiderivative(spec, x)
    xs = np.array([-800.0, -3.0, 0.0, 0.5])
    softplus = np.logaddexp(0.0, xs)
    assert potential_antiderivative(spec, xs).tobytes() == (m * m * softplus + m * np.exp(0.5 * (xs - softplus))).tobytes()


def test_antiderivative_rejects_step():
    with pytest.raises(DomainError):
        potential_antiderivative(PotentialSpec.step(1.0), 0.0)


# --------------------------------------------------------- shape invariance

def test_shape_invariance_examples():
    assert shape_invariance_check(1.0, 0.0) == 0.0
    assert abs(shape_invariance_check(2.5, -3.1)) < 1e-14
    assert abs(shape_invariance_check(1.0, 10.0)) < 1e-14


@given(m=st.floats(0.05, 8.0), x=XS)
@SETTINGS
def test_shape_invariance_property(m, x):
    assert abs(float(shape_invariance_check(m, x))) < 1e-14
    assert abs(float(shape_invariance_check(-m, x))) < 1e-14


_PLUS_1 = PotentialSpec.plus(1.0)


@pytest.mark.parametrize("call", [
    lambda: v_plus(True, 1.0), lambda: v_minus(np.array([False, True]), 1.0), lambda: v_step(True, 1.0),
    lambda: potential_hyperbolic(_PLUS_1, np.array([1 + 1j])), lambda: v_step(np.array([1 + 1j]), 1.0),
    lambda: v_plus(1 + 1j, 1.0), lambda: potential(_PLUS_1, "1.0"),
    lambda: v_plus(math.inf, 1.0), lambda: superpotential(math.inf, 1.0), lambda: v_plus(math.nan, 1.0),
    lambda: v_step(np.array([0.0, -math.inf]), 1.0), lambda: potential_antiderivative(_PLUS_1, math.nan),
    lambda: shape_invariance_check(1.0, math.inf),
], ids=["bool", "bool array", "step bool", "hyperbolic complex array", "step complex array", "complex", "string",
        "inf", "superpotential inf", "nan", "step -inf", "antiderivative nan", "shape invariance inf"])
def test_an_x_that_is_not_real_and_finite_is_a_domain_error(call):
    # a bool is not x = 1, an imaginary part is never dropped, and a
    # non-finite x does not give NaN with a RuntimeWarning
    with pytest.raises(DomainError):
        call()


def test_signed_partner_forms_equal_their_two_term_forms_bitwise():
    # V- is evaluated as V+ at -m, which a double negates exactly
    xs = np.linspace(-60.0, 60.0, 2401)
    for m in (0.3, 1.0, 2.7):
        mu = m / math.sqrt(2.0)
        th = np.tanh(0.5 * xs)
        first, second = mu * mu * (1.0 + th), 0.25 * mu * np.sqrt(1.0 - th) / np.cosh(0.5 * xs)
        log_term, half = m * m * np.logaddexp(0.0, xs), m * np.exp(0.5 * (xs - np.logaddexp(0.0, xs)))
        for spec, sign in ((PotentialSpec.plus(m), 1.0), (PotentialSpec.minus(m), -1.0)):
            expected = first - second if sign > 0 else first + second
            assert potential_hyperbolic(spec, xs).tobytes() == expected.tobytes()
            expected = log_term - half if sign > 0 else log_term + half
            assert potential_antiderivative(spec, xs).tobytes() == expected.tobytes()


def test_shape_invariance_rejects_zero():
    with pytest.raises(DomainError):
        shape_invariance_check(0.0, 1.0)


@pytest.mark.parametrize("m", [math.nan, math.inf, 0.0, True, 1.0 + 0j], ids=["nan", "inf", "0", "True", "complex"])
def test_superpotential_and_shape_invariance_check_refuse_a_non_real_m(m):
    # a NaN or infinite m would give non-finite values, and a bool m count as 1
    with pytest.raises(DomainError):
        superpotential(0.0, m)
    with pytest.raises(DomainError):
        shape_invariance_check(m, 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf, True, False, np.True_, 1.0 + 1j, 1.0 + 0j, "1.0", None,
                               np.array([1.0, 2.0]), 10**400],
                         ids=["nan", "inf", "-inf", "True", "False", "np.True_", "complex", "complex 0j", "str", "None",
                              "array", "huge int"])
def test_partner_potentials_refuse_a_non_real_m(m):
    # a NaN m gave NaN values, a bool m counted as 1 and a complex m gave
    # complex values; V- negates m only after its check, so -True is not -1
    for v in (v_plus, v_minus):
        with pytest.raises(DomainError, match="real, finite m"):
            v(0.5, m)
        with pytest.raises(DomainError, match="real, finite m"):
            v(np.array([0.0, 1.0]), m)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("v0, alpha", [(math.inf, 1.0), (math.nan, 1.0), (True, 1.0), (1.0 + 1j, 1.0), (1.0, 0.0),
                                       (1.0, -0.5), (1.0, math.nan), (1.0, math.inf), (1.0, True), (1.0, 10**400),
                                       (np.array([1.0, 2.0]), 1.0), (1.0, 1e-320), (1.0, np.float64(5e-324))],
                         ids=["v0 inf", "v0 nan", "v0 True", "v0 complex", "alpha 0", "alpha < 0", "alpha nan",
                              "alpha inf", "alpha True", "alpha huge int", "v0 array", "1/alpha inf", "1/alpha inf numpy"])
def test_step_refuses_parameters_its_spec_refuses(v0, alpha):
    # v_step takes v0 and alpha by PotentialSpec's rule: v_step(1.0, inf)
    # returned inf and alpha = 0 divided by zero; 1/alpha must be finite,
    # as a partner's m^2 (tails read inf at alpha = 1e-320)
    with pytest.raises(DomainError):
        PotentialSpec.step(v0, alpha)
    with pytest.raises(DomainError):
        v_step(0.5, v0, alpha)


@pytest.mark.filterwarnings("error")
def test_valid_partner_and_step_parameters_keep_their_values():
    xs = np.linspace(-5.0, 5.0, 11)
    for m in (1.3, -1.3, 0.0, 2, np.float32(0.7), np.int64(3)):
        softplus = np.logaddexp(0.0, xs)
        expected = m * m * np.exp(xs - softplus) - 0.5 * m * np.exp(0.5 * xs - 1.5 * softplus)
        assert v_plus(xs, m).tobytes() == expected.tobytes()
        assert v_minus(xs, m).tobytes() == v_plus(xs, -m).tobytes()
    assert v_step(xs, 2.0, 0.5).tobytes() == (2.0 * np.exp(xs / 0.5 - np.logaddexp(0.0, xs / 0.5))).tobytes()
    assert v_step(xs, -1.0).tobytes() == (-1.0 * np.exp(xs / 1.0 - np.logaddexp(0.0, xs / 1.0))).tobytes()


def test_vectorized_evaluation_matches_scalars():
    xs = np.array([-3.0, 0.0, 2.5])
    arr = v_plus(xs, 1.2)
    assert arr.shape == xs.shape
    for i, x in enumerate(xs):
        assert arr[i] == float(v_plus(float(x), 1.2))
    assert np.allclose(v_step(xs, 1.0, 1.0), 0.5 * (1 + np.tanh(xs / 2.0)))
    assert v_minus(0.0, 1.0) == pytest.approx(0.5 + 2.0**-2.5)


def test_partners_are_w_squared_plus_minus_the_derivative_bitwise():
    # V+/- share one logaddexp(0, x); the sum must round as the two-term form does
    xs = np.linspace(-60.0, 60.0, 12001)
    for m in (0.3, 1.0, 2.7):
        w2 = m * m * np.exp(xs - np.logaddexp(0.0, xs))
        dw = _dw(xs, m)
        assert v_plus(xs, m).tobytes() == (w2 + dw).tobytes()
        assert v_minus(xs, m).tobytes() == (w2 - dw).tobytes()


def test_extreme_arguments_do_not_overflow():
    for x in (-745.0, -300.0, 300.0, 709.0):
        for f in (lambda t: v_plus(t, 1.0), lambda t: v_minus(t, 1.0), lambda t: superpotential(t, 1.0)):
            val = float(f(x))
            assert math.isfinite(val)


_HUGE = 10**400  # an exact int that no double holds


@pytest.mark.parametrize("call, error", [
    (lambda: PotentialSpec.plus(_HUGE), "DomainError"),
    (lambda: PotentialSpec.minus(_HUGE), "DomainError"),
    (lambda: PotentialSpec.step(_HUGE), "DomainError"),
    (lambda: susystep.coefficients_closed_form(2.0, _HUGE), "DomainError"),
    (lambda: susystep.reflection_transmission(PotentialKind.PLUS, 2.0, _HUGE), "DomainError"),
    (lambda: susystep.step_amplitudes(2.0, _HUGE), "DomainError"),
    (lambda: susystep.qnm(PotentialKind.PLUS, 1, _HUGE), "DomainError"),
    (lambda: susystep.qnm(PotentialKind.PLUS, _HUGE, 1.0), "DomainError"),
    (lambda: susystep.qnm(PotentialKind.STEP, _HUGE, 1.0), "DomainError"),
    (lambda: susystep.make_exponents(2.0, _HUGE), "DomainError"),
    (lambda: susystep.exact_solution("I", 1, 2.0, _HUGE, 0.3), "DomainError"),
    (lambda: susystep.lngamma(_HUGE), "DomainError"),
    (lambda: susystep.gamma_ratio([2.0], [_HUGE]), "DomainError"),
    (lambda: susystep.hyp2f1(_HUGE, 1.0, 2.0, 0.3), "DomainError"),
    (lambda: susystep.IntegrationConfig(x_min=-_HUGE), "ConfigError"),
    (lambda: susystep.IntegrationConfig(step=_HUGE), "ConfigError"),
], ids=["plus", "minus", "step", "closed form m", "amplitudes m", "step amplitudes m", "qnm m", "qnm n", "step qnm n",
        "make_exponents m", "exact_solution m", "lngamma", "gamma_ratio", "hyp2f1", "oracle x_min", "oracle step"])
def test_an_int_past_the_double_range_is_a_typed_error(call, error):
    # float(10**400) raises a bare OverflowError; every documented domain
    # check meets such an int first and raises its typed error
    with pytest.raises(getattr(susystep, error)):
        call()


@pytest.mark.parametrize("call", [
    lambda: v_plus(-800.0, 1e200),  # m^2 e^x is inf * 0 in the left tail, where V+ is about 1e53
    lambda: v_plus(0.3, 1e308),
    lambda: v_minus(0.3, 1e308),
    lambda: shape_invariance_check(1e308, [0.0]),  # inf - inf
    lambda: susystep.qnm(PotentialKind.PLUS, 1, 1e200),  # 4 m^2/(n + 1) is inf
    lambda: susystep.qnm(PotentialKind.STEP, 1, 1e200),
    lambda: susystep.inverse_transmission_magnitude(PotentialKind.PLUS, 2.0, 1e200),  # m^2 - omega^2 is inf
    lambda: susystep.inverse_transmission_magnitude(PotentialKind.MINUS, np.array([2.0, -0.5j]), 1e200),
], ids=["v_plus left tail", "v_plus", "v_minus", "shape invariance", "qnm", "step qnm", "|1/T|", "|1/T| column"])
def test_a_coupling_whose_square_overflows_is_a_domain_error(call):
    # PotentialSpec's rule: a finite m whose square is past a double is refused
    with pytest.raises(DomainError, match=r"m\^2 finite"):
        call()
    assert v_plus(0.3, 1e154) > 0 and susystep.qnm(PotentialKind.PLUS, 1, 1e154).imag > 0  # m^2 = 1e308


def test_numpy_float32_parameters_stay_accepted():
    # the double-range check must not overflow casting its bound to float32
    assert PotentialSpec.plus(np.float32(1.5)).m == np.float32(1.5)
    assert susystep.IntegrationConfig(step=np.float32(0.5)).step == 0.5
    assert susystep.qnm(PotentialKind.PLUS, 2, np.float32(1.0)) == susystep.qnm(PotentialKind.PLUS, 2, 1.0)


@pytest.mark.parametrize("spec", [PotentialSpec.plus(m) for m in (0.5, 1.0, 2.0)]
                         + [PotentialSpec.minus(m) for m in (0.5, 1.0, 2.0)]
                         + [PotentialSpec.step(1.0, 1.0), PotentialSpec.step(4.0, 0.5)],
                         ids=["plus-0.5", "plus-1", "plus-2", "minus-0.5", "minus-1", "minus-2", "step-1-1", "step-4-0.5"])
def test_tails_are_the_leading_terms_at_both_ends(spec):
    # V - V(-inf) ~ cL e^(kL x) and V - V(+inf) ~ cR e^(-kR x) to a relative
    # remainder below 1e-8 at x = -40 and 30 (at most 8.2e-9, V+- at m = 2; V-
    # at m = 1/2 has no e^(-x) term, cR = 0, and its remainder is held against
    # m^2 e^(-x)).  The remainders are read from the closed form in mpmath, which
    # potential matches to rounding there: in doubles V - V(+inf) at x = 30 keeps
    # about 3 digits, and the step's 1 + tanh(x/(2 alpha)) at -40 rounds to 0
    (kl, cl), (kr, cr) = spec.tails
    for x, unit, c in ((-40.0, math.exp(-40.0 * kl), cl), (30.0, math.exp(-30.0 * kr), cr)):
        v, above = potential_oracle(spec.kind.value, x, m=spec.m, v0=spec.v0, alpha=spec.alpha)
        assert abs((v if x < 0 else above) - c * unit) < 1e-8 * (abs(c) or spec.right_asymptote) * unit, x
        assert abs(float(potential(spec, x)) - v) <= 1e-14 * spec.right_asymptote, x


@pytest.mark.parametrize("x", [-10.0, -20.0, -30.0, -40.0])
def test_step_keeps_its_relative_accuracy_in_the_left_tail(x):
    # v0 exp(y - logaddexp(0, y)), y = x/alpha, reads the 50-digit closed form to
    # 1.2e-15 at worst here; (v0/2)(1 + tanh(y/2)) cancelled to 2.5e-13, 9.0e-9
    # and 1.7e-4 at x = -10, -20 and -30 (v0 = alpha = 1) and read 0 at -40
    for v0, alpha in ((1.0, 1.0), (4.0, 0.5), (2.0, 2.0)):
        v, _ = potential_oracle("step", x, v0=v0, alpha=alpha)
        assert abs(float(v_step(x, v0, alpha)) - v) <= 4e-15 * v
        assert v_step(np.array([x, 0.0]), v0, alpha)[0] == v_step(x, v0, alpha)


# ------------------------------------------------------------- spec tuples

_MIXED = (PotentialSpec.plus(1.3), PotentialSpec.step(2.0, 0.5), PotentialSpec.minus(0.7), PotentialSpec.step(1.0),
          PotentialSpec.minus(1.3), PotentialSpec.plus(np.float64(2.9)))
_PARTNERS = tuple(s for s in _MIXED if s.kind is not PotentialKind.STEP)
_XS = np.concatenate([np.linspace(-60.0, 60.0, 241), [-800.0, 0.0, 700.0]])


def _rows_are_the_one_spec_calls(call, specs, x):
    got = call(specs, x)
    assert got.shape == (len(specs),) + np.shape(x) and got.dtype == float
    for row, spec in zip(got, specs):
        one = call(spec, x)
        assert type(row) is type(one) and np.asarray(row).tobytes() == np.asarray(one).tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x", [_XS, 0.3, _XS.reshape(2, -1)], ids=["1-d", "number", "2-d"])
def test_each_row_of_a_spec_tuple_is_its_one_spec_call(x):
    # one numpy pass per form for every spec, partners and steps mixed
    _rows_are_the_one_spec_calls(potential, _MIXED, x)
    _rows_are_the_one_spec_calls(potential_hyperbolic, _PARTNERS, x)
    _rows_are_the_one_spec_calls(potential_antiderivative, _PARTNERS, x)


def test_antiderivative_rows_at_verify_sides():
    # verify's x + h and x - h sides, a 2-d x: (spec, side, x)
    xs = np.linspace(-40.0, 40.0, 64)
    sides = xs + np.array([[1e-5], [-1e-5]])
    _rows_are_the_one_spec_calls(potential_antiderivative, _PARTNERS, sides)
    for row, spec in zip(potential_antiderivative(_PARTNERS, sides), _PARTNERS):
        assert row[1].tobytes() == potential_antiderivative(spec, sides[1]).tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_shape_invariance_check_takes_an_m_column():
    ms = np.array([1.3, -0.7, 2.9, 1e154, 3])
    got = shape_invariance_check(ms, _XS)
    assert got.shape == (ms.size, _XS.size)
    for row, m in zip(got, ms.tolist()):
        assert row.tobytes() == shape_invariance_check(m, _XS).tobytes()
    assert shape_invariance_check(ms, 0.5).tobytes() == np.array([shape_invariance_check(m, 0.5) for m in ms]).tobytes()
    for bad in (np.array([1.0, 0.0]), np.array([1.0, 1e200]), np.array([[1.0]]), np.array([1.0, math.nan]),
                np.array([True]), np.array([1.0 + 0j])):
        with pytest.raises(DomainError):
            shape_invariance_check(bad, _XS)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_empty_spec_tuple_gives_no_rows():
    # as numerical_rt gives no results: an empty tuple has no rows, whatever x's shape;
    # x is still checked
    for call in (potential, potential_hyperbolic, potential_antiderivative):
        assert call((), _XS).shape == (0, _XS.size) and call((), 0.3).shape == (0,)
        with pytest.raises(DomainError):
            call((), [math.nan])
    assert shape_invariance_check(np.array([]), _XS).shape == (0, _XS.size)


@pytest.mark.parametrize("call", [potential, potential_hyperbolic, potential_antiderivative])
def test_a_tuple_holds_only_specs(call):
    for specs in ((PotentialSpec.plus(1.0), "plus"), (PotentialSpec.plus(1.0), (PotentialSpec.plus(1.0),)), [_PLUS_1]):
        with pytest.raises(DomainError, match="PotentialSpec"):
            call(specs, _XS)


@pytest.mark.parametrize("call", [potential_hyperbolic, potential_antiderivative])
def test_a_step_in_a_tuple_is_refused_by_the_partner_forms(call):
    with pytest.raises(DomainError, match="partner potentials only"):
        call((PotentialSpec.plus(1.0), PotentialSpec.step(1.0)), _XS)


def test_an_overflowing_antiderivative_row_names_its_x():
    # the first such x in (spec, x) order
    specs = (PotentialSpec.plus(1.0), PotentialSpec.minus(1e154))
    with pytest.raises(ResultOverflowError, match=r"at x = 800\.0$"):
        potential_antiderivative(specs, np.array([-800.0, 0.5, 800.0, 1.7]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x", [1e308, -1e308, 800.0, -800.0])
def test_hyperbolic_form_at_a_huge_x_has_no_warning(x):
    # cosh(x/2) overflows to inf only where sqrt(1 - tanh(x/2)) is 0; the
    # value stays the exponential form's: m^2 at 1e308, 0 at -1e308
    for spec in (PotentialSpec.plus(1.0), PotentialSpec.minus(1.0)):
        assert potential_hyperbolic(spec, x) == pytest.approx(float(potential(spec, x)), rel=1e-15, abs=0.0)
