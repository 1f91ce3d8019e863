"""Tests for the complex special functions: frozen oracle values, pole
handling, and the classical functional identities as property tests."""

import cmath
import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from susystep.errors import (DegenerateParamsError, DomainError, NonConvergenceError, PoleError, ResultOverflowError,
                             SusystepError)
import susystep.specfun as specfun_mod
from susystep.solutions import exact_solution, make_exponents
from susystep.specfun import (
    Z_SWITCH,
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


# (z, log Gamma(z)) from mpmath.loggamma at 40 digits, on the rings
# |z| = 10, 10.5 and 12 with Re z in [1/2, 1]: the Stirling branch's
# smallest |z| and its largest phase, where the unshifted series is
# least accurate.
_STIRLING_EDGE = [
    (0.5, 9.987492177719089, -14.769377493449236, 13.00123276263681),
    (0.5, -9.987492177719089, -14.769377493449236, -13.00123276263681),
    (0.75, 9.971835337589566, -14.169921314254621, 13.354782941617227),
    (0.75, -9.971835337589566, -14.169921314254621, -13.354782941617227),
    (1.0, 9.9498743710662, -13.561507618403148, 13.687578263447518),
    (1.0, -9.9498743710662, -13.561507618403148, -13.687578263447518),
    (0.5, 10.488088481701515, -15.555712328951932, 14.165413383421162),
    (0.5, -10.488088481701515, -15.555712328951932, -14.165413383421162),
    (0.75, 10.473180032826706, -14.945161092519934, 14.52010449311803),
    (0.75, -10.473180032826706, -14.945161092519934, -14.52010449311803),
    (1.0, 10.452272480183437, -14.326042976832928, 14.8547465044931),
    (1.0, -10.452272480183437, -14.326042976832928, -14.8547465044931),
    (0.5, 11.989578808281799, -17.91424781866231, 17.796465288815465),
    (0.5, -11.989578808281799, -17.91424781866231, -17.796465288815465),
    (0.75, 11.976539567003485, -17.273082927100475, 18.154174685587876),
    (0.75, -11.976539567003485, -17.273082927100475, -18.154174685587876),
    (1.0, 11.958260743101398, -16.624342359349637, 18.493662167289155),
    (1.0, -11.958260743101398, -16.624342359349637, -18.493662167289155),
]


def test_unshifted_stirling_near_the_imaginary_axis():
    z = np.array([complex(x, y) for x, y, _, _ in _STIRLING_EDGE])
    reference = [complex(re, im) for _, _, re, im in _STIRLING_EDGE]
    for v, from_array, ref in zip(z.tolist(), lngamma(z).tolist(), reference):
        for got in (lngamma(v), from_array):
            assert abs(cmath.exp(got - ref) - 1.0) <= 1e-14, v


# (z, log Gamma(z)) from mpmath.loggamma at 40 digits, inside |z| = 10
# near the imaginary axis, where the Stirling series runs shifted by 10.
_SHIFTED_EDGE = [
    (0.5 + 9.9j, -14.631945102064804347, 12.800305363004403037),
    (0.5 - 9.9j, -14.631945102064804347, -12.800305363004403037),
    (0.5 + 9.5j, -14.003626571346845141, 11.891660896576555738),
    (0.6 + 9.98j, -14.527590729379402251, 13.140574929590915312),
    (0.5 + 8j, -11.647432081154500212, 8.6407454377023651258),
    (3 + 9.5j, -8.348203762648237051, 15.493114558552273491),
]


def test_shifted_stirling_near_the_imaginary_axis():
    z = np.array([v for v, _, _ in _SHIFTED_EDGE])
    for v, from_array, (_, re, im) in zip(z.tolist(), lngamma(z).tolist(), _SHIFTED_EDGE):
        for got in (lngamma(v), from_array):
            assert abs(cmath.exp(got - complex(re, im)) - 1.0) <= 1e-14, v


def test_lngamma_accuracy_inside_radius_ten():
    # both half-planes, off the poles, against extended precision
    rng = np.random.default_rng(1010)
    z = 10.0 * np.sqrt(rng.uniform(0.0, 1.0, 400)) * np.exp(1j * rng.uniform(-math.pi, math.pi, 400))
    z = z[np.abs(z - np.minimum(np.round(z.real), 0.0)) > 1e-3]
    with mp.workdps(40):
        for v in z.tolist():
            ref = complex(mp.gamma(mp.mpc(v.real, v.imag)))
            assert abs(cmath.exp(lngamma(v)) - ref) <= 2e-14 * abs(ref), f"z = {v}"


def test_lngamma_array_matches_number_calls():
    # shifted (|z| < 10), unshifted (|z| >= 10) and reflected (Re z < 1/2)
    # arguments, and past the sine overflow of the reflection step
    z = np.concatenate([_ring(r, 60, seed) for seed, r in enumerate((0.3, 2.0, 6.0, 9.9, 10.0, 40.0, 160.0, 300.0))])
    got = lngamma(z)
    assert got.dtype == complex and got.tobytes() == np.array([lngamma(v) for v in z.tolist()]).tobytes()
    assert type(lngamma(1 + 1j)) is complex and type(lngamma(np.float64(2.5))) is complex
    assert type(gamma_ratio([2.5], [1.5])) is complex
    with pytest.raises(DomainError):
        lngamma(np.ones((2, 2)))
    with pytest.raises(PoleError):
        lngamma(np.array([1.5, -2.0]))


def test_long_lngamma_column_equals_the_number_calls():
    # past 3276 arguments with |z| < 10 the (5, k) pair products pass 256 KiB,
    # where numpy would turn x * temporary into an in-place multiply that
    # rounds differently; a 24 000-element column mixing shifted, unshifted
    # and reflected arguments keeps the number calls' bits
    rng = np.random.default_rng(5)
    z = np.concatenate([rng.uniform(-9.0, 9.0, 8000) + 1j * rng.uniform(-9.0, 9.0, 8000),
                        rng.uniform(-300.0, 300.0, 8000) + 1j * rng.uniform(-300.0, 300.0, 8000),
                        rng.uniform(-50.0, 0.4, 8000) + 1j * rng.uniform(-400.0, 400.0, 8000)])
    rng.shuffle(z)
    assert lngamma(z).tobytes() == np.array([lngamma(v) for v in z.tolist()]).tobytes()
    small = z[np.abs(np.where(z.real < 0.5, 1.0 - z, z)) < 10.0][:4000]
    assert small.size == 4000
    assert gamma_ratio([small], []).tobytes() == np.array([gamma_ratio([v], []) for v in small.tolist()]).tobytes()


def _kernel_column(kind, rng, n=40):
    re_, im = {"all small": ((0.5, 7.0), (-7.0, 7.0)), "all large": ((0.5, 60.0), (15.0, 60.0)),
               "all reflected": ((-40.0, 0.4), (-300.0, 300.0)), "reflected small": ((-6.0, 0.4), (-6.0, 6.0)),
               "unreflected": ((0.5, 30.0), (-30.0, 30.0)), "mixed": ((-12.0, 12.0), (-12.0, 12.0))}[kind]
    return rng.uniform(*re_, n) + 1j * rng.uniform(*im, n)


@pytest.mark.parametrize("kind", ["all small", "all large", "all reflected", "reflected small", "unreflected", "mixed"])
def test_uniform_lngamma_columns_equal_the_number_calls(kind):
    # a column that is uniform in the reflection or in the |w| < 10 shift, or
    # mixes both, equals the one-element calls and the same arguments inside a
    # column that mixes both
    z = _kernel_column(kind, np.random.default_rng(11))
    reflect = z.real < 0.5
    masks = (reflect, np.abs(np.where(reflect, 1.0 - z, z)) < 10.0)  # reflected; shifted
    flags = {"all small": (False, True), "all large": (False, False), "all reflected": (True, None),
             "reflected small": (True, True), "unreflected": (False, None), "mixed": ("mixed", "mixed")}[kind]
    for mask, flag in zip(masks, flags):
        assert (mask.any() and not mask.all()) if flag == "mixed" else flag is None or (mask == flag).all()
    got = lngamma(z)
    assert got.tobytes() == np.array([lngamma(v) for v in z.tolist()]).tobytes()
    padding = np.array([-3.5 + 0.5j, 0.7 + 0.2j, 40.0 + 3.0j])  # reflected, shifted, unshifted
    assert lngamma(np.concatenate([padding, z, padding]))[3:-3].tobytes() == got.tobytes()
    assert gamma_ratio([z], [padding[1]]).tobytes() == np.array([gamma_ratio([v], [padding[1]]) for v in z.tolist()]).tobytes()


def test_lngamma_pole_rejection():
    for z in (0.0, -1.0, -7.0, -3.0 + 1e-11j, 5e-10):
        with pytest.raises(PoleError):
            lngamma(z)


def test_lngamma_just_off_pole_is_fine():
    assert cmath.isfinite(lngamma(-3.0 + 1e-6j))


# ------------------------------------------------------------ gamma_ratio

def test_gamma_ratio_trivial_one():
    assert abs(gamma_ratio([2.0], [1.0]) - 1.0) < 1e-14


def test_gamma_ratio_of_no_arguments_is_the_empty_product():
    assert gamma_ratio([], []) == 1 + 0j
    assert isinstance(gamma_ratio([], []), complex)
    assert gamma_ratio([], [np.array([])]).shape == (0,)


@pytest.mark.parametrize("call", [lambda: lngamma(True), lambda: lngamma(np.True_),
                                  lambda: lngamma(np.array([False, True])),
                                  lambda: gamma_ratio([np.True_], [2.0]), lambda: gamma_ratio([2.0], [False]),
                                  lambda: gamma_ratio([np.array([True, False])], [2.0])],
                         ids=["lngamma True", "lngamma np.True_", "lngamma bool column", "gamma_ratio numerator",
                              "gamma_ratio denominator", "gamma_ratio bool column"])
def test_a_bool_gamma_argument_is_a_domain_error(call):
    # True is not the argument 1, nor False a pole at 0
    with pytest.raises(DomainError, match="not a bool"):
        call()


@pytest.mark.parametrize("call", [lambda: lngamma("a"), lambda: lngamma(b"x"), lambda: lngamma(object()),
                                  lambda: gamma_ratio(["a"], [1.0]), lambda: gamma_ratio([1.0], [np.array(["a", "b"])])],
                         ids=["lngamma str", "lngamma bytes", "lngamma object", "gamma_ratio str", "gamma_ratio str column"])
def test_a_non_numeric_gamma_argument_is_a_domain_error(call):
    # numpy's complex parse refuses these with a bare ValueError or TypeError
    with pytest.raises(DomainError, match="must be a number"):
        call()


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
    # shifted (|z| < 10), unshifted (|z| >= 10) and reflected (Re z < 1/2)
    # arguments, out to |z| = 160, and the amplitude arguments: one kernel
    # serves numbers and arrays, so they agree bit for bit
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
        assert got.tobytes() == expected.tobytes()


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
    with pytest.raises(OverflowError):  # as the scalar path: Gamma(200) is past the double range
        gamma_ratio([np.array([1.0, 200.0])], [])
    with pytest.raises(OverflowError):
        gamma_ratio([200.0], [])
    with pytest.raises(SusystepError):  # typed, as every error of the package
        gamma_ratio([200.0], [])


def test_lngamma_past_the_sine_overflow():
    # sin(pi z) overflows a double for |Im z| > ~226; the reflection step
    # takes its log from the exponential form there.  The reference is
    # compared modulo 2 pi i, through exp of the difference (a wrong branch
    # of log(+-i/2) would be off by i pi, where exp gives -1)
    rng = np.random.default_rng(230)
    z = rng.uniform(-60.0, 60.0, 40) + 1j * rng.choice([-1.0, 1.0], 40) * rng.uniform(230.0, 400.0, 40)
    z[:4] = [0.3 + 230j, 0.49 - 230.5j, 400j, -0.5 - 400j]
    for v, from_array in zip(z.tolist(), lngamma(z).tolist()):
        reference = lngamma_oracle(v)
        for got in (lngamma(v), from_array):
            assert abs(cmath.exp(got - reference) - 1.0) <= 1e-12, v
    # Gamma(300i) ~ 1e-205 no longer overflows on the way
    expected = complex(mp.gamma(mp.mpc(0, 300)))
    assert abs(gamma_ratio([300j], []) - expected) <= 1e-12 * abs(expected)
    assert abs(gamma_ratio([np.array([1.0, 300j])], [])[1] - expected) <= 1e-12 * abs(expected)


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
    with pytest.raises(PoleError):
        hyp2f1(1.0, 1.0, -2.0, 0.7)  # checked before the route is taken


def test_saturated_z_uses_the_exact_complement():
    # past x ~ 37, z = e^x/(e^x+1) rounds to 1.0 while u = 1/(e^x+1) stays
    # exact; given log u, hyp2f1 returns the connection value at 1 - u
    kp = math.sqrt(3.0)
    a, b, c = 0.5 + (2 + kp) * 1j, (2 + kp) * 1j, 0.5 + 4j  # omega = 2, m = 1
    for u in (1e-17, 1e-200):
        assert 1.0 - u == 1.0
        with mp.workdps(40):
            expected = complex(mp.hyp2f1(mp.mpc(a), mp.mpc(b), mp.mpc(c), 1 - mp.mpf(u)))
        got = hyp2f1(a, b, c, 1.0, log_u=math.log(u))
        assert abs(got - expected) <= 1e-11 * abs(expected)
    with pytest.raises(DomainError):
        hyp2f1(a, b, c, 1.0)  # the default complement 1 - z is 0
    with pytest.raises(DomainError):
        hyp2f1(a, b, c, -0.1, log_u=math.log1p(0.1))  # a complement above 1
    with pytest.raises(OverflowError):  # (1 - z)^(c - a - b) = e^1200
        hyp2f1(1.0, 1.0, 0.5, np.array([0.6, 1.0]), log_u=np.array([math.log(0.4), -800.0]))
    with pytest.raises(SusystepError):
        hyp2f1(1.0, 1.0, 0.5, 1.0, log_u=-800.0)
    for x in (-600.0, 600.0):
        assert cmath.isfinite(exact_solution("I", 1, 2.0, 1.0, x))


def test_an_overflowing_series_is_a_typed_error():
    # a = 1e308 overflows the first term ratio to inf, so the value is not a
    # double: hyp2f1 names the first such element (set order, then z)
    with pytest.raises(ResultOverflowError, match=re.escape("2F1((1e+308+0j), (0.5+0j); (1.5+0j); 0.3) overflows")):
        hyp2f1(1e308, 0.5, 1.5, 0.3)
    with pytest.raises(ResultOverflowError, match=re.escape("2F1((1e+308+0j), (0.5+0j); (1.5+0j); 0.1) overflows")):
        hyp2f1(np.array([1.0, 1e308, 1e308]), np.full(3, 0.5), np.full(3, 1.5), np.array([0.1, 0.3]))


def test_complement_must_match_z():
    with pytest.raises(DomainError):
        hyp2f1(1.0, 2.0, 3.0, 0.3, log_u=math.log(0.5))
    with pytest.raises(DomainError):
        hyp2f1(0.5 + 1j, 2.0, 3.3, 0.7, log_u=-5.0)
    with pytest.raises(DomainError):
        hyp2f1(0.5 + 1j, 2.0, 3.3, 0.7, log_u=float("nan"))
    with pytest.raises(DomainError):
        hyp2f1(0.5 + 1j, 2.0, 3.3, 1.0, log_u=-float("inf"))  # exp(-inf) fits z, but is not finite
    # within a few ulps: 1 - 0.7 is 0.30000000000000004
    near = hyp2f1(0.5 + 1j, 2.0, 3.3, 0.7, log_u=math.log(0.3))
    assert abs(near - hyp2f1(0.5 + 1j, 2.0, 3.3, 0.7)) <= 1e-14 * abs(near)
    # a complement that underflows, or is subnormal: its log is exact from x
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
    got = hyp2f1(a, b, c, z, log_u)
    expected = [hyp2f1(a, b, c, *args) for args in zip(z.tolist(), log_u.tolist())]
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
        hyp2f1(1.0, 1.0, 2.0, np.array([0.1, 0.3]), log_u=np.log([0.9, 0.5]))
    with pytest.raises(DomainError):
        hyp2f1(1.0, 1.0, 2.0, np.array([0.1, 0.3]), log_u=math.log(0.9))
    with pytest.raises(PoleError):
        hyp2f1(1.0, 1.0, -2.0, np.array([0.1, 0.7]))
    assert evaluated == []
    monkeypatch.undo()
    # c - a - b = 1: only an element on the connection route makes it an error
    assert hyp2f1(1.0, 1.0, 3.0, np.array([0.1, 0.4])).shape == (2,)
    with pytest.raises(DegenerateParamsError):
        hyp2f1(1.0, 1.0, 3.0, np.array([0.1, 0.4, 0.999]))


def test_complex_arguments_are_domain_errors():
    for kwargs in ({"z": 0.3 + 0j}, {"z": np.array([0.3 + 0j])}, {"z": 0.6, "log_u": math.log(0.4) + 0j},
                   {"z": np.array([0.6]), "log_u": np.array([math.log(0.4) + 0j])}):
        with pytest.raises(DomainError, match="must be real"):
            hyp2f1(1.0, 1.0, 2.0, **kwargs)


@pytest.mark.parametrize("kwargs", [{"z": False}, {"z": True}, {"z": np.array([False, True])},
                                    {"z": 0.6, "log_u": False}, {"z": np.array([0.6]), "log_u": np.array([True])}],
                         ids=["z False", "z True", "z bool column", "log_u False", "log_u bool column"])
def test_bool_arguments_are_domain_errors(kwargs):
    # False is not z = 0, nor True z = 1
    with pytest.raises(DomainError, match="must be real"):
        hyp2f1(1.0, 1.0, 2.0, **kwargs)


def test_array_parameters_are_domain_errors():
    # a, b and c are numbers; an array among them is a typed error, not the
    # bare TypeError of complex(array)
    for args in ((np.array([1.0, 2.0]), 1.0, 2.0, 0.3), (1.0, np.array([1.0, 2.0]), 2.0, np.array([0.3, 0.6])),
                 (1.0, 1.0, np.array([2.0]), 0.7), (1.0, "one", 2.0, 0.3)):
        with pytest.raises(DomainError, match="must be numbers"):
            hyp2f1(*args)


@pytest.mark.parametrize("call, args", [
    (lngamma, (math.nan,)),
    (lngamma, (math.inf,)),
    (lngamma, (complex(1.0, math.inf),)),
    (gamma_ratio, ([math.nan], [])),
    (gamma_ratio, ([1.0], [math.inf])),
    (hyp2f1, (1.0, 1.0, math.nan, 0.3)),
    (hyp2f1, (math.nan, 1.0, 2.0, 0.3)),
    (hyp2f1, (1.0, math.inf, 2.0, 0.7)),
], ids=lambda v: repr(v) if isinstance(v, tuple) else v.__name__)
def test_non_finite_numbers_are_domain_errors(call, args):
    with pytest.raises(DomainError):
        call(*args)


@pytest.mark.parametrize("call, args", [
    (lngamma, (1e200 + 1e200j,)),
    (lngamma, (1e307j,)),
    (lngamma, (np.array([2.0, 1e307j]),)),
    (gamma_ratio, ([1e200 + 1e200j], [2.0])),
], ids=["lngamma 1e200+1e200j", "lngamma 1e307j", "lngamma column", "gamma_ratio 1e200+1e200j"])
def test_overflowing_log_gamma_is_a_domain_error(call, args):
    # finite arguments whose log-Gamma overflows on the way raise, not nan
    with pytest.raises(DomainError, match="not finite"):
        call(*args)


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


def test_column_series_stops_each_element_on_its_own(monkeypatch):
    fast = hyp2f1(1.0, 1.0, 2.0, 0.01)
    # 0.01 meets the stop within 20 terms, 0.4 does not (0.4^20 ~ 1e-8)
    monkeypatch.setattr(specfun_mod, "MAX_SERIES_TERMS", 20)
    for z in ([0.01, 0.4, 0.02], [0.4], [0.0, 0.02, 0.01, 0.4, 0.45]):
        with pytest.raises(NonConvergenceError, match=r"; 0\.4\) did not converge in 20 terms"):
            hyp2f1(1.0, 1.0, 2.0, np.array(z))
    assert hyp2f1(1.0, 1.0, 2.0, 0.01) == fast
    assert hyp2f1(1.0, 1.0, 2.0, np.array([0.0, 0.01, 0.02]))[1] == fast


def _one_set(a, b, c):
    """One parameter set as the kernels take it: three one-element columns."""
    return (np.array([v], dtype=complex) for v in (a, b, c))


def _one_set_series(a, b, c, z):
    """The Gauss series kernel's row of the one set (a, b, c)."""
    return specfun_mod._gauss_series(*_one_set(a, b, c), z, [z.size])


def _term_by_term(a, b, c, z):
    """The Gauss series one term per numpy round, each element stopped at
    its first |t_k| <= 1e-16 |S_k|: (values, stopping k of each element,
    -1 where the budget runs out)."""
    out, stop = np.empty(z.shape, dtype=complex), np.full(z.shape, -1)
    live = np.arange(z.size)
    w = z.astype(complex)
    term = total = np.ones(z.shape, dtype=complex)
    for k in range(specfun_mod.MAX_SERIES_TERMS):
        if not live.size:
            break
        term = term * ((a + k) * (b + k) / ((c + k) * (k + 1.0)) * w)
        total = total + term
        done = np.abs(term) <= 1e-16 * np.abs(total)
        out[live[done]], stop[live[done]] = total[done], k
        live, w, term, total = live[~done], w[~done], term[~done], total[~done]
    return out, stop


def _stopping_at(a, b, c, ks, grid):
    """Points of ``grid`` at which the series of (a, b, c) stops at each k
    in ``ks``, one per k, by the term-by-term loop."""
    stop = _term_by_term(a, b, c, grid)[1]
    picked = [grid[stop == k][:1] for k in ks]
    assert all(p.size for p in picked), ks
    return np.concatenate(picked)


BLOCK = specfun_mod._SERIES_BLOCK


@pytest.mark.parametrize("ks", [
    [BLOCK - 1], [BLOCK], [BLOCK + 1], [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1], [1, 149],
], ids=["block-1", "block", "block+1", "both sides of two rounds", "2 and 150 terms"])
def test_blocked_series_equals_the_term_by_term_loop(ks):
    # a round of the kernel sums a block of terms, then finds each element's
    # first stop in it: the same k and the same bits as one term per round
    p = make_exponents(2.0, 1.0)
    grid = np.concatenate([np.geomspace(1e-20, 1e-6, 200), np.linspace(1e-6, 0.2, 4000), np.linspace(0.2, 0.9, 4000)])
    z = np.repeat(_stopping_at(p.a1, p.b1, p.c1, ks, grid), 3)
    got = _one_set_series(p.a1, p.b1, p.c1, z)
    expected, stop = _term_by_term(p.a1, p.b1, p.c1, z)
    assert sorted(set(stop.tolist())) == ks
    assert got.tobytes() == expected.tobytes()


def test_blocked_series_rounds_grow_as_the_column_shrinks():
    # from 8400 live elements down to a few, a round holds 1 up to BLOCK terms
    p = make_exponents(2.0, 1.0)
    z = np.random.default_rng(7).permutation(np.concatenate([np.geomspace(1e-20, 0.2, 4200), np.linspace(0.2, 0.9, 4200)]))
    assert specfun_mod._SERIES_ROUND // z.size < 1
    expected = _term_by_term(p.a1, p.b1, p.c1, z)[0]
    assert _one_set_series(p.a1, p.b1, p.c1, z).tobytes() == expected.tobytes()


def test_blocked_series_budget_is_exact(monkeypatch):
    # a budget that is not a multiple of the block: the last round is cut
    # short, an element may stop at its last term, and the message is as before
    monkeypatch.setattr(specfun_mod, "MAX_SERIES_TERMS", 37)
    a, b, c = 1.0 + 0j, 1.0 + 0j, 2.0 + 0j
    z = _stopping_at(a, b, c, [7, 36, -1], np.linspace(0.01, 0.6, 3000))
    assert _one_set_series(a, b, c, z[:2]).tobytes() == _term_by_term(a, b, c, z[:2])[0].tobytes()
    message = f"Gauss series for 2F1({a}, {b}; {c}; {z[2]}) did not converge in 37 terms"
    with pytest.raises(NonConvergenceError, match=re.escape(message)):
        _one_set_series(a, b, c, z)


def test_blocked_series_of_an_empty_column():
    assert _one_set_series(1.0 + 0j, 1.0 + 0j, 2.0 + 0j, np.array([])).shape == (0,)


# ------------------------------------------------------------- ratio table

def _python_ratios(a, b, c, rows):
    """The term ratios as Python complex arithmetic forms them, a row per k."""
    sets = list(zip(np.asarray(a, complex).tolist(), np.asarray(b, complex).tolist(), np.asarray(c, complex).tolist()))
    return np.array([[(p + k) * (q + k) / ((r + k) * (k + 1.0)) for p, q, r in sets] for k in range(rows)],
                    dtype=complex).reshape(rows, len(sets))


def _ratio_edge_sets():
    """Parameter sets at the edges of CPython's complex product and quotient."""
    triples = [
        (0.5 + 2j, 1.5 + 2j, 1.5 + 0.0j), (0.5 + 2j, 1.5 + 2j, complex(1.5, -0.0)),  # Im c = 0.0 and -0.0
        (complex(2.0, -0.0), complex(-3.0, -0.0), complex(0.5, -0.0)),  # Im a, b = -0.0, and N = 0 at k = 3
        (1.0, 2.0, 3.0), (-4.0, 7.0, 2.5), (3.0, -2.0, -6.5),  # integer a and b, Re (c + k) of either sign
        # |Re D| = |Im D| at k = 1 and k = 3, where Re D = -Im D and the quotient's real part is a signed
        # zero, -0.0 as CPython divides by Re D on a tie, +0.0 by Im D
        (0.5 + 1j, 2.0, 2.0 + 3j), (-2.0 + 1j, -1.0, -5.0 + 2j),
        (40.0 + 900j, -700.0 + 5j, 600.0 - 800j), (1e-3j, 1e3, 999.0 + 1e3j),  # |c| up to about 1e3
    ]
    return [np.array(column, dtype=complex) for column in zip(*triples)]


def test_ratio_table_is_cpython_complex_arithmetic_bit_for_bit():
    # the series kernel's values keep the bits of Python-complex ratios
    # (a + k)(b + k)/((c + k)(k + 1.0)), which depend on CPython's complex
    # arithmetic: its int-to-complex promotion, its product and Smith's
    # quotient; numpy's complex operators round apart, so the table emulates
    # them in real operations, and this pins every bit of it
    a, b, c = _ratio_edge_sets()
    k = np.arange(8.0)[:, None]
    assert (np.abs((c + k).real) == np.abs((c + k).imag)).sum() >= 2  # |Re D| = |Im D| is reached
    table = specfun_mod._ratio_table(a, b, c, 300)
    assert np.signbit(table[3, 7].real) and table[3, 7].real == 0.0
    assert table.shape == (300, a.size) and table.tobytes() == _python_ratios(a, b, c, 300).tobytes()
    assert np.signbit(table.imag).any() and np.signbit(table.real).any()  # signed zeros and signs are pinned too
    rng = np.random.default_rng(28)
    for sets in (1, 2, 7, 20):
        scale = 10.0 ** rng.uniform(-3.0, 3.0, size=(3, 1))
        a, b, c = (rng.normal(size=(3, sets)) + 1j * rng.normal(size=(3, sets))) * scale
        rows = int(rng.integers(1, 300))
        assert specfun_mod._ratio_table(a, b, c, rows).tobytes() == _python_ratios(a, b, c, rows).tobytes()


def test_ratio_table_of_the_solution_sets():
    # the parameter sets the solutions take, up to the largest k a
    # wavefield pass reaches, and the rows of a table grown by doubling
    triples = _solution_sets(2.0, 1.0) + _solution_sets(30.0, 2.0) + _solution_sets(1.0 + 1e-9, 1.0)
    a, b, c = _set_columns(triples)
    assert specfun_mod._ratio_table(a, b, c, 512).tobytes() == _python_ratios(a, b, c, 512).tobytes()
    assert specfun_mod._ratio_table(a, b, c, 128).tobytes() == specfun_mod._ratio_table(a, b, c, 512)[:128].tobytes()


def test_long_gauss_column_equals_the_number_calls():
    # past 16384 elements (256 KiB of complex) numpy turns x * temporary into
    # an in-place multiply, which rounds differently; the kernel writes each
    # term to a row of its own, so a long column keeps the number calls' bits
    p = make_exponents(12.0, 1.0)
    z = np.random.default_rng(3).uniform(0.0, 0.5, 16400)
    got = hyp2f1(p.a1, p.b1, p.c1, z)
    for i in range(0, z.size, 401):
        assert got[i] == hyp2f1(p.a1, p.b1, p.c1, float(z[i])), i


def test_long_connection_column_equals_the_number_calls():
    # on the connection route the Gamma ratios and the power multiply whole
    # series columns; each product goes to an array of its own, so a column
    # past 16384 elements keeps the number calls' bits too
    p = make_exponents(12.0, 1.0)
    z = np.random.default_rng(3).uniform(0.5, 1.0, 40000)
    assert (z > Z_SWITCH).all()
    got = hyp2f1(p.a1, p.b1, p.c1, z)
    for i in range(0, z.size, 211):
        assert got[i] == hyp2f1(p.a1, p.b1, p.c1, float(z[i])), i


@pytest.mark.parametrize("omega, m", [(2.0, 1.0), (10.0, 0.5), (30.0, 2.0)])
def test_shuffled_column_equals_the_number_calls(omega, m):
    # one series pass over a column gives each element the bits of its own
    # one-point call, on both routes, whatever the order of the column
    p = make_exponents(omega, m)
    rng = np.random.default_rng(12)
    z = np.concatenate([rng.uniform(0.0, 1.0, 230), [0.0, Z_SWITCH, 0.5 * (1.0 + Z_SWITCH)]])
    # and saturated z = 1.0, each with its exact complement
    log_u = np.concatenate([np.log1p(-z), [math.log(1e-17), math.log(1e-200), -800.0]])
    z = np.concatenate([z, [1.0, 1.0, 1.0]])
    order = rng.permutation(z.size)
    z, log_u = z[order], log_u[order]
    for a, b, c in ((p.a1, p.b1, p.c1), (p.a2, p.b2, p.c2)):
        got = hyp2f1(a, b, c, z, log_u)
        expected = np.array([hyp2f1(a, b, c, *args) for args in zip(z.tolist(), log_u.tolist())])
        assert got.tobytes() == expected.tobytes()
        assert np.all(np.isfinite(got))


# ------------------------------------------------------- parameter sets

def _set_columns(triples):
    """a, b and c as three 1-d arrays, one parameter set per element."""
    return [np.array(column, dtype=complex) for column in zip(*triples)]


def _rows_equal_one_set_calls(triples, z, log_u=None):
    """hyp2f1 over the parameter sets of ``triples``: one row per set, each
    with the bits of its one-set call."""
    got = hyp2f1(*_set_columns(triples), z, log_u)
    assert got.shape == (len(triples),) + np.shape(z) and got.dtype == complex
    for row, (a, b, c) in zip(got, triples):
        assert row.tobytes() == np.array(hyp2f1(a, b, c, z, log_u)).tobytes()
    return got


def _solution_sets(omega, m):
    """The four parameter sets of the exact solutions at (omega, m): Z^I and
    Z^II, first and second component."""
    p = make_exponents(omega, m)
    return [(p.a1, p.b1, p.c1), (p.a1 - p.c1 + 1, p.b1 - p.c1 + 1, 2 - p.c1),
            (p.a2, p.b2, p.c2), (p.a2 - p.c2 + 1, p.b2 - p.c2 + 1, 2 - p.c2)]


@pytest.mark.parametrize("omega, m", [(2.0, 1.0), (1.5, 1.0), (30.0, 2.0)])
@pytest.mark.parametrize("sets", [2, 3])
@pytest.mark.parametrize("z", [np.linspace(0.0, 0.5, 40), np.linspace(0.5, 0.99, 40), np.linspace(0.05, 0.95, 19),
                               np.array([Z_SWITCH]), 0.3, 0.7],
                         ids=["Gauss route", "connection route", "across Z_SWITCH", "at Z_SWITCH", "Gauss float",
                              "connection float"])
def test_parameter_set_rows_equal_the_one_set_calls(omega, m, sets, z):
    _rows_equal_one_set_calls(_solution_sets(omega, m)[:sets], z)


def test_parameter_set_rows_with_exact_complements():
    # saturated z = 1.0 with its exact complement, on a shuffled column
    rng = np.random.default_rng(5)
    z = np.concatenate([rng.uniform(0.0, 1.0, 60), [1.0, 1.0, 1.0]])
    log_u = np.concatenate([np.log1p(-z[:-3]), [math.log(1e-17), math.log(1e-200), -800.0]])
    order = rng.permutation(z.size)
    got = _rows_equal_one_set_calls(_solution_sets(2.0, 1.0)[:3], z[order], log_u[order])
    assert np.all(np.isfinite(got))


def test_long_parameter_set_columns_equal_the_one_set_calls():
    # two sets past 16384 elements each, on both routes: each set's ratio
    # multiplies its own slice, so every row keeps the one-set bits
    z = np.random.default_rng(3).uniform(0.0, 1.0, 16400)
    _rows_equal_one_set_calls(_solution_sets(12.0, 1.0)[:2], z)


def test_a_vanishing_connection_coefficient_is_zeroed_for_its_set_only(monkeypatch):
    # c - a = -1 puts Gamma(c - a) of the first connection ratio on a pole:
    # that set's first term is exactly 0, the other sets' are not
    dead = (2.5 + 1.0j, 0.3 - 0.2j, 1.5 + 1.0j)
    triples = [_solution_sets(2.0, 1.0)[0], dead, _solution_sets(2.0, 1.0)[1]]
    z = np.linspace(0.55, 0.95, 9)
    got = _rows_equal_one_set_calls(triples, z)
    for v, value in zip(z, got[1]):
        expected = hyp2f1_oracle(*dead, float(v))
        assert abs(value - expected) <= 1e-10 * abs(expected)
    calls = []
    ratio = specfun_mod.gamma_ratio
    monkeypatch.setattr(specfun_mod, "gamma_ratio", lambda *args: calls.append(args) or ratio(*args))
    hyp2f1(*_set_columns(triples[::2]), z)
    assert len(calls) == 2  # one per connection ratio, for all sets


def test_a_degenerate_set_raises_as_its_one_set_call():
    triples = [_solution_sets(2.0, 1.0)[0], (1.0, 1.0, 3.0)]  # c - a - b = 1
    assert hyp2f1(*_set_columns(triples), np.array([0.1, 0.4])).shape == (2, 2)
    for z in (0.999, np.array([0.1, 0.999])):
        with pytest.raises(DegenerateParamsError):
            hyp2f1(1.0, 1.0, 3.0, z)
        with pytest.raises(DegenerateParamsError):
            hyp2f1(*_set_columns(triples), z)
    with pytest.raises(PoleError):
        hyp2f1(*_set_columns([triples[0], (1.0, 1.0, -2.0)]), 0.3)


def _recording_passes(monkeypatch):
    """Patch ``_gauss_series`` to record the points of each parameter set of each pass."""
    passes = []
    series = specfun_mod._gauss_series
    monkeypatch.setattr(specfun_mod, "_gauss_series", lambda *args: passes.append(list(args[4])) or series(*args))
    return passes


def test_parameter_sets_take_one_series_pass_per_route(monkeypatch):
    # a call sums all its series in one pass: each set's Gauss series at the
    # near points, then each set's two connection series at 1 - z
    passes = _recording_passes(monkeypatch)
    columns = _set_columns(_solution_sets(2.0, 1.0)[:3])
    for z in (np.linspace(0.05, 0.95, 19), np.linspace(0.05, 0.45, 9), np.linspace(0.55, 0.95, 9)):
        hyp2f1(*columns, z)
    sets = [len(counts) for counts in passes]
    assert sets[:2] == [9, 3] and len(sets) == 3 and sets[2] <= 6  # mixed, near-only, far-only
    assert passes[0] == [10] * 3 + [9] * 6  # z <= 1/2 at 10 points, z > 1/2 at 9


def test_a_mixed_column_with_a_vanishing_connection_coefficient_equals_the_one_set_calls(monkeypatch):
    # the dead set's first connection series sums no point of the pass; its
    # Gauss series at the near points and its second connection series do
    dead = (2.5 + 1.0j, 0.3 - 0.2j, 1.5 + 1.0j)  # c - a = -1
    triples = [_solution_sets(2.0, 1.0)[0], dead, _solution_sets(2.0, 1.0)[1]]
    passes = _recording_passes(monkeypatch)
    z = np.linspace(0.05, 0.95, 19)
    got = _rows_equal_one_set_calls(triples, z)
    assert passes[0] == [10] * 3 + [9, 0, 9] + [9] * 3
    for v, value in zip(z[::3], got[1][::3]):
        expected = hyp2f1_oracle(*dead, float(v))
        assert abs(value - expected) <= 1e-10 * abs(expected)


def test_a_mixed_column_checks_its_connection_before_any_series(monkeypatch):
    # the connection formula's checks precede the one pass, so a degenerate
    # c - a - b is raised before a near element runs out of terms
    monkeypatch.setattr(specfun_mod, "MAX_SERIES_TERMS", 5)
    with pytest.raises(NonConvergenceError):
        hyp2f1(1.0, 1.0, 3.0, 0.4)
    with pytest.raises(DegenerateParamsError):
        hyp2f1(1.0, 1.0, 3.0, np.array([0.4, 0.999]))
    # the first unconverged element is named, near points first
    with pytest.raises(NonConvergenceError, match=r"; 0\.4\) did not converge in 5 terms"):
        hyp2f1(1.0, 1.0, 2.5, np.array([0.999, 0.4]))


def _recording_tables(monkeypatch):
    """Patch ``_ratio_table`` to record the rows of each table a pass builds."""
    rows = []
    table = specfun_mod._ratio_table
    monkeypatch.setattr(specfun_mod, "_ratio_table", lambda *args: rows.append(args[3]) or table(*args))
    return rows


def test_a_pass_grows_its_table_after_some_sets_have_stopped(monkeypatch):
    # across Z_SWITCH, the omega = 1.5 sets stop inside the first table and
    # the omega = 30 sets need it doubled: the table grows while sets have
    # no live element, and every row keeps the bits of its one-set call
    tables = _recording_tables(monkeypatch)
    z = np.linspace(0.05, 0.95, 19)
    for triple in _solution_sets(1.5, 1.0):
        hyp2f1(*triple, z)
    assert set(tables) == {4 * specfun_mod._SERIES_BLOCK}
    tables.clear()
    hyp2f1(*_set_columns(_solution_sets(1.5, 1.0) + _solution_sets(30.0, 1.0)), z)
    assert tables == [4 * specfun_mod._SERIES_BLOCK, 8 * specfun_mod._SERIES_BLOCK]
    _rows_equal_one_set_calls(_solution_sets(1.5, 1.0) + _solution_sets(30.0, 1.0), z)


def test_kernel_sets_that_stop_hundreds_of_terms_apart(monkeypatch):
    # one set stops within two terms, one near 200 and one near 700: the
    # table doubles three times with the first set done, and each set's
    # values equal its one-set pass and the term-by-term loop bit for bit
    p = make_exponents(2.0, 1.0)
    triples = [(p.a1, p.b1, p.c1), (0.5 + 1j, 1.5, 2.5 - 1j), (1.0 + 0j, 1.0 + 0j, 2.0 + 0j)]
    grids = [np.geomspace(1e-20, 1e-6, 400), np.linspace(0.8, 0.9, 400), np.linspace(0.94, 0.96, 400)]
    points = [_stopping_at(*t, ks, grid) for t, ks, grid in zip(triples, ([1, 2], [190, 200], [690, 700]), grids)]
    tables = _recording_tables(monkeypatch)
    got = specfun_mod._gauss_series(*_set_columns(triples), np.concatenate(points), [v.size for v in points])
    assert tables == [128, 256, 512, 1024] and 4 * specfun_mod._SERIES_BLOCK == 128
    for t, v, row in zip(triples, points, np.split(got, np.cumsum([v.size for v in points])[:-1])):
        assert row.tobytes() == _one_set_series(*t, v).tobytes() == _term_by_term(*t, v)[0].tobytes()


def test_an_unconverged_element_is_named_with_its_own_set(monkeypatch):
    # the third of four sets holds the one element that runs out of terms:
    # the message names that set's a, b and c and the element's z
    monkeypatch.setattr(specfun_mod, "MAX_SERIES_TERMS", 20)
    a, b, c = _set_columns([(1.0, 1.0, 2.0), (0.5 + 1j, 1.5, 2.5 - 1j), (2.0 + 0.5j, 0.25, 3.5 + 2j), (1.5, 2.5, 4.0)])
    message = f"Gauss series for 2F1({a[2]}, {b[2]}; {c[2]}; 0.4) did not converge in 20 terms"
    with pytest.raises(NonConvergenceError, match=re.escape(message)):
        specfun_mod._gauss_series(a, b, c, np.array([0.01, 0.02, 0.01, 0.02, 0.4, 0.03]), [2, 1, 2, 1])
    # on a shared column, a = 0 ends the other sets' series at their first term
    a = np.where(np.arange(4) == 2, a, 0.0)
    z = np.array([0.02, 0.4])
    with pytest.raises(NonConvergenceError, match=re.escape(message)):
        hyp2f1(a, b, c, z)
    z[1] = 0.04
    assert np.isfinite(hyp2f1(a, b, c, z)).all()


def test_an_18_set_column_names_its_first_bad_set(monkeypatch):
    # the pole and degeneracy checks each take one numpy pass over the sets;
    # of two bad sets, the 7th and the 12th, the 7th is named, before any series
    triples = (_solution_sets(2.0, 1.0) * 5)[:18]
    poles, degenerate = list(triples), list(triples)
    poles[6], poles[11] = (1.0, 1.0, -3.0), (1.0, 1.0, -5.0)
    degenerate[6], degenerate[11] = (0.25, 0.25, 2.5000000001), (1.0, 1.0, 5.0)
    passes = _recording_passes(monkeypatch)
    z = np.array([0.1, 0.7])
    with pytest.raises(PoleError, match=re.escape(str(PoleError(-3 + 0j, "denominator")))):
        hyp2f1(*_set_columns(poles), z)
    with pytest.raises(DegenerateParamsError) as one_set:
        hyp2f1(*degenerate[6], z)
    assert str(one_set.value).startswith("c - a - b = (2.0000000001")
    with pytest.raises(DegenerateParamsError, match=re.escape(str(one_set.value))):
        hyp2f1(*_set_columns(degenerate), z)
    assert passes == []


def test_no_parameter_sets_give_no_rows():
    empty = np.array([], dtype=complex)
    for z, shape in ((np.array([0.1, 0.7]), (0, 2)), (0.2, (0,)), (0.7, (0,)), (np.array([]), (0, 0))):
        assert hyp2f1(empty, empty, empty, z).shape == shape


@pytest.mark.parametrize("args", [
    (np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.array([2.0, 3.0, 4.0]), 0.3),
    (np.ones((2, 2)), np.ones((2, 2)), np.full((2, 2), 2.0), 0.3),
    (np.array([1.0, 2.0]), np.array([1.0, 2.0]), 2.0, 0.3),
], ids=["lengths differ", "2-d", "a number among arrays"])
def test_parameter_sets_must_be_three_1d_arrays_of_one_length(args):
    with pytest.raises(DomainError, match="must be numbers"):
        hyp2f1(*args)


# ------------------------------------------------------------- one z column

@pytest.mark.parametrize("args", [
    (1.0, 1.0, 2.0, np.array([[0.1, 0.2]])),
    (*_set_columns([(1.0, 1.0, 2.0)] * 2), np.full((3, 2), 0.3)),
    (*_set_columns([(1.0, 1.0, 2.0)] * 2), np.full((2, 2, 1), 0.3)),
    (*_set_columns([(1.0, 1.0, 2.0)] * 2), np.full((2, 2), 0.7), np.full(2, math.log(0.3))),
    (*_set_columns([(1.0, 1.0, 2.0)] * 2), np.full((2, 2), 0.3)),
    (*_set_columns([(1.0, 1.0, 2.0)] * 2), np.full(2, 0.3), np.full((2, 2), math.log(0.7))),
], ids=["number parameters", "a row too many", "3-d", "log_u of another shape", "a row per set", "2-d log_u"])
def test_z_rows_need_a_row_per_set(monkeypatch, args):
    # z is one column that every parameter set shares: a 2-d z or log_u,
    # a row per set or not, raises before any series
    evaluated = []
    monkeypatch.setattr(specfun_mod, "_gauss_series", lambda *a: evaluated.append(a))
    with pytest.raises(DomainError, match="z and log_u must be floats or 1-d arrays"):
        hyp2f1(*args)
    assert evaluated == []


def test_z_rows_are_checked_before_any_series(monkeypatch):
    # a bad element of the shared column raises for every set before any series
    evaluated = []
    monkeypatch.setattr(specfun_mod, "_gauss_series", lambda *a: evaluated.append(a))
    columns = _set_columns(_solution_sets(2.0, 1.0)[:2])
    for z in ([0.1, 0.2, 0.3, -0.1], [0.1, 0.2, 0.3, 1.0], [0.1, math.nan, 0.3, 0.4]):
        with pytest.raises(DomainError, match=r"z = "):
            hyp2f1(*columns, np.array(z))
    assert evaluated == []


# ------------------------------------------------------- connection formula

def via_connection(a, b, c, z):
    """2F1(a, b; c; z) from the connection-formula kernel that ``hyp2f1``
    takes above ``Z_SWITCH``, forced at any z."""
    z = np.array([z])
    near, far = specfun_mod._hyp2f1_complement(*_one_set(a, b, c), 1.0 - z, np.log1p(-z), np.array([1]),
                                                np.array([]), np.array([0]))
    assert near.shape == (0,)
    return complex(far[0])


def test_series_connection_consistency_at_nominal_switch():
    a, b, c = 0.5 + 2j, 1.5 + 2j, 1.5 + 4j
    series = hyp2f1(a, b, c, 0.55)  # dispatches to connection
    direct = hyp2f1_oracle(a, b, c, 0.55)
    assert abs(series - direct) <= 1e-10 * abs(direct)
    assert via_connection(a, b, c, 0.55) == series


def test_series_connection_overlap_window():
    a, b, c = 0.5 + 2j, 1.5 + 2j, 1.5 + 4j
    for z in np.linspace(0.45, 0.65, 9):
        forced = via_connection(a, b, c, float(z))
        via_series = hyp2f1_oracle(a, b, c, float(z), dps=25)
        assert abs(forced - via_series) <= 1e-10 * abs(via_series)


def test_solution_parameters_at_reference_frequency():
    # a1, b1, c1 for omega = 2, m = 1; frozen from the brute-force oracle
    kp = math.sqrt(3.0)
    a1, b1, c1 = 0.5 + (2 + kp) * 1j, (2 + kp) * 1j, 0.5 + 4j
    expected = complex(-0.7578331315092058748, 0.67868640550922853464)
    got = via_connection(a1, b1, c1, 0.5)
    assert abs(got - expected) <= 1e-10 * abs(expected)
    assert abs(hyp2f1(a1, b1, c1, 0.5) - expected) <= 1e-10 * abs(expected)


def test_degenerate_connection_raises():
    # c - a - b = 1 exactly: the connection formula must refuse
    with pytest.raises(DegenerateParamsError):
        via_connection(1.0, 1.0, 3.0, 0.999)
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


@pytest.mark.parametrize("denominators", [[np.array([2.0, 3.0])], [np.array([2.0, -2.0])]],
                         ids=["no denominator pole", "a denominator pole in the other set"])
def test_a_connection_ratio_numerator_pole_raises_in_the_retry(denominators):
    # the connection formula's numerators (c, +-(c - a - b)) never sit on a
    # pole (a c pole or an integer c - a - b raises first), but one that did
    # would raise the numerator PoleError: the dead-set retry meets it again
    with pytest.raises(PoleError) as err:
        specfun_mod._connection_ratio([np.array([-1.0 + 0j, 2.5])], denominators)
    assert err.value.location == "numerator" and err.value.argument == -1.0
    # a denominator pole alone kills its set's ratio
    got = specfun_mod._connection_ratio([np.array([1.5 + 0j, 2.5])], [np.array([2.0, -2.0])])
    assert got[1] == 0.0 and got[0] == gamma_ratio([np.array([1.5 + 0j])], [np.array([2.0])])[0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan, np.array([0.3, math.inf])])
def test_a_non_finite_z_is_a_domain_error_without_a_warning(z):
    # 1 - z - (1 - z) at z = inf warned "invalid value in subtract" before the error
    with pytest.raises(DomainError, match="need 0 <= z < 1"):
        hyp2f1(1.0, 1.0, 2.0, z)
