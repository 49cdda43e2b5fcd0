"""Rational-power exponential approximation: accuracy, domain, caching."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modhtan.rnf import (
    DEFAULT_RNF_PARAMS,
    RnfDomainError,
    RnfParams,
    _ipow,
    euler_constant,
    rnf_exp,
)


class TestRnfExp:
    def test_zero_maps_to_exactly_one(self):
        assert rnf_exp(0.0) == 1.0

    def test_at_one_close_to_e(self):
        # leading error term is about (x + x**2/2)/a = 1.5e-7 at x=1
        assert abs(rnf_exp(1.0) - math.e) / math.e <= 2e-7

    def test_at_minus_two(self):
        assert abs(rnf_exp(-2.0) - math.exp(-2.0)) / math.exp(-2.0) <= 1e-6

    def test_error_bound_wide_range(self):
        xs = np.linspace(-20.0, 20.0, 4001)
        rel = np.abs(rnf_exp(xs) - np.exp(xs)) / np.exp(xs)
        assert rel.max() <= 5e-5

    def test_error_bound_narrow_range(self):
        xs = np.linspace(-2.0, 2.0, 2001)
        rel = np.abs(rnf_exp(xs) - np.exp(xs)) / np.exp(xs)
        assert rel.max() <= 2e-6

    # modhtan's direct mode calls rnf_exp(-2 * x_norm) with |x_norm| <= 50: the whole of [-100, 100]
    # is finite, inside the domain 1 + x < a, and off exp by the leading term |x + x**2/2| / a
    @pytest.mark.parametrize("x", [-100.0, -40.0, -1.0, 40.0, 100.0])
    def test_error_bound_over_the_clamped_range(self, x):
        a = DEFAULT_RNF_PARAMS.a
        rel = abs(rnf_exp(x) - math.exp(x)) / math.exp(x)
        assert rel <= 1.01 * abs(x + x * x / 2.0) / a

    def test_strictly_increasing(self):
        xs = np.linspace(-20.0, 20.0, 2001)
        ys = rnf_exp(xs)
        assert np.all(np.diff(ys) > 0)

    def test_scalar_in_scalar_out(self):
        assert isinstance(rnf_exp(0.5), float)

    def test_array_in_array_out(self):
        out = rnf_exp(np.array([0.0, 1.0]))
        assert isinstance(out, np.ndarray)
        assert out.shape == (2,)

    def test_domain_error_when_denominator_nonpositive(self):
        with pytest.raises(RnfDomainError):
            rnf_exp(1e7)  # 1 + x >= a
        with pytest.raises(RnfDomainError):
            rnf_exp(2.0, RnfParams(a=3))

    def test_non_finite_input_rejected(self):
        with pytest.raises(RnfDomainError):
            rnf_exp(float("nan"))
        with pytest.raises(RnfDomainError):
            rnf_exp(float("inf"))

    def test_overflow_reported(self):
        with pytest.raises(OverflowError):
            rnf_exp(710.0)

    @given(st.floats(min_value=-700.0, max_value=700.0))
    @settings(max_examples=200, deadline=None)
    def test_positive_and_finite_on_working_range(self, x):
        y = rnf_exp(x)
        assert y > 0.0
        assert math.isfinite(y)

    def test_binary_exponentiation_matches_naive_loop(self):
        # direct a-fold product oracle, small a only
        for a in (2, 3, 5, 17, 64, 100, 1024):
            for x in (-1.5, -0.3, 0.7, 2.0):
                if 1.0 + x >= a:  # outside the 1 + x < a domain
                    continue
                params = RnfParams(a=a)
                base = (a - 1.0) / (a - (1.0 + x))
                naive = 1.0
                for _ in range(a):
                    naive *= base
                assert rnf_exp(x, params) == pytest.approx(naive, rel=1e-12)


class TestRnfParams:
    def test_defaults(self):
        assert DEFAULT_RNF_PARAMS.a == 10_000_000

    @pytest.mark.parametrize("a", [1, 0, -5])
    def test_a_below_two_rejected(self, a):
        with pytest.raises(ValueError):
            RnfParams(a=a)

    @pytest.mark.parametrize("a", [10**309, 2**1100], ids=["1e309", "2^1100"])
    def test_a_past_the_largest_double_rejected(self, a):
        with pytest.raises(ValueError, match="^calibration constant a must be >= 2 and at most the largest double"):
            RnfParams(a=a)

    def test_largest_double_accepted(self):
        assert RnfParams(a=int(np.finfo(float).max)).a == int(np.finfo(float).max)

    def test_non_integer_a_rejected(self):
        with pytest.raises(TypeError):
            RnfParams(a=2.5)
        with pytest.raises(TypeError):
            RnfParams(a=True)


class TestEulerConstant:
    def test_default_close_to_e(self):
        assert abs(euler_constant() - math.e) / math.e <= 2e-7

    def test_equals_rnf_exp_at_one(self):
        assert euler_constant() == rnf_exp(1.0)

    def test_small_a_matches_product_oracle(self):
        # ((99)/(98))**100 accumulated by plain multiplication
        naive = 1.0
        for _ in range(100):
            naive *= 99.0 / 98.0
        assert euler_constant(RnfParams(a=100)) == pytest.approx(naive, rel=1e-12)

    def test_a_two_is_domain_error(self):
        # denominator a - (1 + 1) = 0
        with pytest.raises(RnfDomainError):
            euler_constant(RnfParams(a=2))

    def test_cached_instance(self):
        assert euler_constant() is euler_constant()


def oracle_rnf_exp(x, params=DEFAULT_RNF_PARAMS):
    """rnf_exp with its checks as one elementwise pass each."""
    a = params.a
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise RnfDomainError("x must be finite")
    if np.any(1.0 + xs >= a):
        raise RnfDomainError(f"1 + x must stay strictly below a = {a}")
    base = (a - 1.0) / (a - (1.0 + xs))
    with np.errstate(over="ignore"):
        out = _ipow(base, a)
    if np.any(np.isinf(out)):
        raise OverflowError("rnf_exp result exceeds the double-precision range")
    if np.ndim(x) == 0:
        return float(out)
    return out


def _edge_inputs():
    rng = np.random.default_rng(11)
    edges = [0.0, -0.0, 5e-324, 1e-300, 1.0, -700.0, -745.0, -800.0, 709.0, 710.0, 1e7 - 1.0, 1e7, -1e308, 1e308]
    yield from edges
    yield from (math.nan, math.inf, -math.inf)
    yield np.array(edges)
    yield np.array(edges[:9])  # every entry in range for the defaults
    yield np.linspace(-800.0, -700.0, 101)  # underflows to 0.0 on the left
    yield np.linspace(700.0, 720.0, 21)  # overflows on the right
    yield rng.uniform(-20.0, 20.0, size=(301, 7))
    yield np.array([1.0, math.nan, 1e8])  # non-finite before out of domain
    yield np.array([2e7, -math.inf])
    yield np.array([])
    yield np.zeros((0, 3))


EDGE_PARAMS = [
    DEFAULT_RNF_PARAMS,
    RnfParams(a=2),  # a - (1 + 1) = 0: x = 1 is out of domain
    RnfParams(a=3),
    RnfParams(a=1024),
    RnfParams(a=2**53 + 1),  # a - 1 and a - (1 + x) round as doubles; the base stays positive
    RnfParams(a=10**30),
]


class TestRnfExpOracle:
    """One min/max pair gives the same results, exceptions, messages and
    check order as the elementwise checks."""

    @pytest.mark.parametrize("params", EDGE_PARAMS, ids=repr)
    def test_matches_elementwise_checks(self, params):
        for x in _edge_inputs():
            with np.errstate(over="ignore"):
                try:
                    expected = oracle_rnf_exp(x, params)
                except (RnfDomainError, OverflowError) as exc:
                    with pytest.raises(type(exc)) as info:
                        rnf_exp(x, params)
                    assert type(info.value) is type(exc) and str(info.value) == str(exc)
                    continue
                got = rnf_exp(x, params)
            assert type(got) is type(expected)
            assert np.shape(got) == np.shape(expected)
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
