"""Activation functions and gradients, including the normalized-tanh variant
and its batch-adaptive offset."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from modhtan.activations import (
    ACTIVATION_NAMES,
    EULER_MODES,
    KINDS,
    Elu,
    Htan,
    ModHtan,
    SoftStep,
    _DELTA,
    _KAPPA,
    _normalized_input,
    activate,
    adaptive_offset,
)
from modhtan.cli import _activation_from_flags, build_parser
from modhtan.rnf import RnfDomainError, RnfParams, euler_constant

finite_floats = st.floats(allow_nan=False, allow_infinity=False)


def value(kind, x):
    """The activation's value at x, through a 0-d batch."""
    return float(activate(kind, x).values)


def grad(kind, x):
    """The activation's gradient at x, through a 0-d batch."""
    return float(activate(kind, x).grads)


def offset(batch):
    """The default adaptive offset of a batch, from the batch's min and max as modhtan takes them."""
    xs = np.array(batch, dtype=float)
    return adaptive_offset(xs.min(initial=np.inf), xs.max(initial=-np.inf))


class TestSoftStep:
    def test_symmetry_point(self):
        assert value(SoftStep(), 0.0) == 0.5

    def test_reference_value(self):
        assert value(SoftStep(), 1.0) == pytest.approx(0.7310585786300049, rel=1e-14)

    def test_exploding_input_saturates_at_one(self):
        assert value(SoftStep(), 1000.0) == 1.0

    def test_exploding_negative_input_saturates_at_zero(self):
        assert value(SoftStep(), -1000.0) == 0.0

    def test_open_interval_before_saturation(self):
        xs = np.linspace(-30.0, 30.0, 601)
        f = activate(SoftStep(), xs).values
        assert np.all((f > 0.0) & (f < 1.0))

    @given(st.floats(min_value=-50.0, max_value=50.0))
    @settings(max_examples=200, deadline=None)
    def test_complementary(self, x):
        assert value(SoftStep(), x) + value(SoftStep(), -x) == pytest.approx(1.0, abs=1e-12)

    def test_grad_at_half(self):
        assert grad(SoftStep(), 0.0) == 0.25  # at f = 0.5

    def test_grad_vanishes_at_saturation(self):
        assert grad(SoftStep(), 1000.0) == 0.0  # at f = 1

    def test_grad_reference_value(self):
        assert grad(SoftStep(), 1.0) == pytest.approx(0.19661193324148185, rel=1e-12)


class TestHtan:
    def test_odd_at_zero(self):
        assert value(Htan(), 0.0) == 0.0

    def test_reference_value(self):
        assert value(Htan(), 1.0) == pytest.approx(math.tanh(1.0), rel=1e-14)

    def test_exploding_input_saturates(self):
        assert value(Htan(), 1000.0) == 1.0
        assert value(Htan(), -1000.0) == -1.0

    @given(st.floats(min_value=-100.0, max_value=100.0))
    @settings(max_examples=200, deadline=None)
    def test_exactly_odd(self, x):
        assert value(Htan(), -x) == -value(Htan(), x)

    def test_matches_scaled_soft_step(self):
        xs = np.linspace(-8.0, 8.0, 161)
        f = activate(Htan(), xs).values
        assert np.max(np.abs(f - (2.0 * activate(SoftStep(), 2.0 * xs).values - 1.0))) <= 1e-12

    def test_grads(self):
        assert grad(Htan(), 0.0) == 1.0  # at f = 0
        assert grad(Htan(), 1000.0) == 0.0  # at f = 1
        assert grad(Htan(), 1.0) == pytest.approx(0.41997434161402614, rel=1e-12)


class TestElu:
    def test_positive_branch_is_identity(self):
        assert value(Elu(), 5.0) == 5.0

    def test_zero(self):
        assert value(Elu(), 0.0) == 0.0

    def test_deep_negative_limit(self):
        assert value(Elu(), -1000.0) == -1.0

    def test_negative_branch_is_expm1(self):
        assert value(Elu(), -1.0) == math.expm1(-1.0)

    def test_continuous_at_zero(self):
        assert abs(value(Elu(), 1e-9) - value(Elu(), -1e-9)) <= 1e-8

    def test_monotone(self):
        xs = np.linspace(-10.0, 10.0, 401)
        assert np.all(np.diff(activate(Elu(), xs).values) >= 0.0)

    def test_grad_positive_branch(self):
        assert grad(Elu(), 5.0) == 1.0

    def test_grad_at_zero_is_continuous(self):
        # x = 0 goes to the negative branch: f + 1 = 1
        assert grad(Elu(), 0.0) == 1.0

    def test_grad_vanishes_deep_negative(self):
        assert grad(Elu(), -1000.0) == 0.0


class TestAdaptiveOffset:
    def test_zero_batch_gives_floor(self):
        assert offset([0.0]) == 1e-6

    def test_hand_arithmetic(self):
        assert offset([3.0, -4.0]) == pytest.approx(1.05 * 4.0 + 1e-6, rel=1e-15)

    def test_huge_batch_stays_finite(self):
        off = offset([1e300])
        assert off == pytest.approx(1.05e300, rel=1e-12)
        assert math.isfinite(off)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            offset([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            offset([1.0, float("nan")])

    @given(st.lists(st.floats(min_value=-1e300, max_value=1e300), min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_offset_dominates_batch(self, batch):
        # guarantees x + offset > 0, hence sign(x_norm) = sign(x)
        off = offset(batch)
        assert all(x + off > 0.0 for x in batch)


def x_norm(batch, fixed_offset=None):
    """modhtan's normalized input of a batch, as an array shaped like it."""
    xs = np.array(batch, dtype=float)
    out = np.empty_like(xs)
    _normalized_input(xs, ModHtan(fixed_offset=fixed_offset), out, np.empty_like(xs))
    return out


def normalize(x, offset_1):
    return float(x_norm(x, offset_1))


def own_offset(x):
    """An entry's own adaptive offset, the floor under a fixed one."""
    return (1.0 + _DELTA) * abs(x) + _KAPPA


class TestNormalize:
    def test_center_zero(self):
        assert normalize(0.0, 1.0) == 0.0

    def test_positive_region(self):
        assert normalize(1000.0, 2000.0) == 1000.0 / 3000.0
        # a fixed offset below the entry's own is floored by it
        assert normalize(1000.0, 10.0) == 1000.0 / (1000.0 + own_offset(1000.0))

    def test_negative_region(self):
        # every input is normalized, those near the origin too
        assert normalize(-1.0, 100.0) == -1.0 / 99.0
        assert normalize(-10.5, 1.0) == -10.5 / (-10.5 + own_offset(-10.5))

    def test_at_the_pole_the_floor_binds(self):
        # x + 1.0 would be 0; the floor leaves the denominator 0.05 + 1e-6
        assert normalize(-1.0, 1.0) == -1.0 / (-1.0 + own_offset(-1.0))
        assert normalize(-1.0, 1.0) == pytest.approx(-1.0 / (_DELTA + _KAPPA), rel=1e-14)

    def test_floor_bounds_x_norm_before_the_pole(self):
        # x / (x + offset_1) = -9999 without the floor
        assert normalize(-9999.0, 10000.0) == -9999.0 / (-9999.0 + own_offset(-9999.0))
        assert -1.0 / _DELTA < normalize(-9999.0, 10000.0) < -19.99


class TestModHtan:
    def test_zero_is_fixed_point(self):
        assert value(ModHtan(fixed_offset=1.0), 0.0) == 0.0

    def test_against_tanh_oracle_fixed_offset(self):
        got = value(ModHtan(fixed_offset=2000.0), 1000.0)
        assert abs(got - math.tanh(1000.0 / 3000.0)) <= 1e-5
        floored = value(ModHtan(fixed_offset=10.0), 1000.0)
        assert abs(floored - math.tanh(1000.0 / (1000.0 + own_offset(1000.0)))) <= 1e-5

    def test_past_the_pole_keeps_the_sign(self):
        # x / (x + 3.0) at x = -5 is +2.5: without the floor f(-5) was +0.987
        kind = ModHtan(fixed_offset=3.0)
        assert value(kind, -5.0) == math.nextafter(-1.0, 0.0)
        assert value(kind, 1e6) == pytest.approx(math.tanh(math.log(euler_constant()) / (2.0 + _DELTA)), rel=1e-12)

    def test_adaptive_huge_input(self):
        got = value(ModHtan(), 1e300)
        # x/(x + 1.05x) = 1/2.05
        assert abs(got - math.tanh(1.0 / 2.05)) <= 1e-5
        assert math.isfinite(got)

    def test_grad_is_one_minus_f_squared(self):
        for x in (0.0, 1.0, -1.0, 0.3, -1e4):
            out = activate(ModHtan(fixed_offset=10.0), x)
            assert out.grads == 1.0 - out.values * out.values

    def test_euler_modes_agree(self):
        xs = np.linspace(-40.0, 40.0, 81)
        a = activate(ModHtan(euler_mode="constant"), xs).values
        b = activate(ModHtan(euler_mode="direct"), xs).values
        assert np.max(np.abs(a - b)) <= 1e-5

    def test_tanh_tracking_on_mixed_batch(self):
        xs = np.array([-5e4, -17.0, -1.0, 0.0, 2.5, 300.0, 8e7])
        got, _, off = activate(ModHtan(), xs)
        want = np.tanh(xs / (xs + off))
        assert np.max(np.abs(got - want)) <= 1e-5

    @given(finite_floats)
    @settings(max_examples=300, deadline=None)
    def test_bounded_open_interval_for_any_finite_input(self, x):
        f = value(ModHtan(), x)
        assert math.isfinite(f)
        assert -1.0 < f < 1.0

    def test_continuous_across_the_old_cutoff(self):
        # a raw central region once made f jump at |x| = 10: f(10) = 1.0, f(10.0001) = 0.31
        kind = ModHtan(fixed_offset=100.0)
        xs = np.linspace(-20.0, 20.0, 40001)
        f = activate(kind, xs).values
        assert np.all(np.diff(f) >= 0.0)
        assert np.max(np.diff(f)) <= 1e-3 * 1.1 * 100.0 / 80.0 ** 2  # dx * max d(x_norm)/dx, with slack
        assert abs(value(kind, 10.0001) - value(kind, 10.0)) <= 1e-5

    @pytest.mark.parametrize("owner, field, given", [
        pytest.param(ModHtan, "k_o", 3.0, id="k_o-3.0"),
        pytest.param(ModHtan, "x_cutoff", 25.0, id="x_cutoff-25.0"),
        pytest.param(ModHtan, "center_normalize", False, id="center_normalize-False"),
        pytest.param(ModHtan, "x_norm_clamp", 50.0, id="x_norm_clamp-50.0"),
        pytest.param(ModHtan, "offset_mode", None, id="offset_mode-None"),
        pytest.param(ModHtan, "rnf", None, id="rnf-None"),
        pytest.param(RnfParams, "n", 1.0, id="n-1.0"),
        pytest.param(RnfParams, "m", 1.0, id="m-1.0"),
        pytest.param(Elu, "alpha", 2.0, id="alpha-2.0"),
    ])
    def test_retired_field_is_type_error(self, owner, field, given):
        with pytest.raises(TypeError, match=f"'{field}'"):
            owner(**{field: given})

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ModHtan(euler_mode="fast")

    # a frozen offset, (1 + _DELTA) * max|x| + _KAPPA, is always positive and finite
    @pytest.mark.parametrize("bad", [0.0, -0.0, -3.0, math.nan, math.inf, -math.inf])
    def test_fixed_offset_must_be_positive_and_finite(self, bad):
        with pytest.raises(ValueError, match="^fixed offset_1 must be positive and finite"):
            ModHtan(fixed_offset=bad)

    @pytest.mark.parametrize("good", [5e-324, _KAPPA, 1.0, 2, sys.float_info.max],
                             ids=["denormal", "kappa", "one", "int", "max"])
    def test_any_positive_finite_fixed_offset_builds(self, good):
        out = activate(ModHtan(fixed_offset=good), [-1.0, 0.0, 1.0])
        assert out.offset_1 == good
        assert np.all(np.isfinite(out.values)) and np.all(np.abs(out.values) < 1.0)

    def test_replace_freezes_an_offset(self):
        kind = replace(ModHtan(), fixed_offset=2.0)
        assert kind == ModHtan(fixed_offset=2.0)
        assert activate(kind, [1.0]).offset_1 == 2.0

    @pytest.mark.parametrize("euler_mode", EULER_MODES)
    @pytest.mark.parametrize("batch", [
        np.linspace(-3.0, 3.0, 7),
        [0.0],
        [-1e300, 1e300],
        [5e-324],
        np.random.default_rng(0).normal(size=(3, 4)),
        [-5e4, -17.0, -1.0, 0.0, 2.5, 300.0, 8e7],
    ], ids=["grid", "zero", "huge", "denormal", "2d", "mixed"])
    def test_frozen_adaptive_offset_gives_the_same_bytes(self, batch, euler_mode):
        # freezing a batch's own adaptive offset_1 (ROADMAP item 1) changes no output byte
        adaptive = activate(ModHtan(euler_mode=euler_mode), batch)
        frozen = activate(ModHtan(fixed_offset=adaptive.offset_1, euler_mode=euler_mode), batch)
        assert frozen.offset_1 == adaptive.offset_1
        assert frozen.values.tobytes() == adaptive.values.tobytes()
        assert frozen.grads.tobytes() == adaptive.grads.tobytes()

    # direct mode computes rnf_exp(-2 * x_norm); x_norm in (-1/_DELTA, 1/(2 + _DELTA)) keeps that within
    # (e**-1, e**40) and inside rnf_exp's domain 1 + x < a, so no batch can overflow it or leave its domain
    @pytest.mark.parametrize("euler_mode", EULER_MODES)
    @pytest.mark.parametrize("batch, fixed_offset, expected", [
        ([-1.0], 1.0, -1.0 / (_DELTA + _KAPPA)),  # at the pole x = -offset_1, floored
        ([-5.0], 3.0, -5.0 / (5.0 * _DELTA + _KAPPA)),  # past the pole, floored
        ([-1e6], 5e-324, -1e6 / (1e6 * _DELTA + _KAPPA)),  # a fixed offset the floor always overrides
        ([1e6], 3.0, 1e6 / (1e6 * (2.0 + _DELTA) + _KAPPA)),  # and a fixed offset's highest x_norm
        ([-1.0, 1.0], None, -1.0 / (_DELTA + _KAPPA)),  # the adaptive offset's lowest x_norm
        ([1.0, -1e-300], None, 1.0 / (2.0 + _DELTA + _KAPPA)),  # and its highest
        ([1e308], 1.7e308, 1.0 / 2.7),  # an overflowed denominator, rewritten
        ([1.7e308], 1.0, 1.0 / (2.0 + _DELTA)),  # and one whose offset the floor sets
        ([1.75e308], 1.0, 1.0 / (2.0 + _DELTA)),  # and one whose floor overflows too
        ([-1.75e308], 1.0, -1.0 / _DELTA),  # a negative x whose floor overflows
        ([1.75e308], None, 1.0 / (2.0 + _DELTA)),  # an adaptive offset past float max
        ([-1.75e308], None, -1.0 / _DELTA),  # and its negative
        ([1.72e308, 1.75e308], None, 1.0 / (1.0 + (1.0 + _DELTA) * (1.75 / 1.72))),  # below the batch's max|x|
    ], ids=["pole", "past-pole", "tiny-offset", "fixed-high", "adaptive-low", "adaptive-high", "overflowed-den",
            "overflowed-floored-den", "overflowed-floor", "overflowed-floor-negative", "overflowed-adaptive",
            "overflowed-adaptive-negative", "overflowed-adaptive-below-max"])
    def test_finite_at_the_extremes_of_x_norm(self, batch, fixed_offset, expected, euler_mode):
        xs = np.array(batch)
        reached = x_norm(xs, fixed_offset)
        assert reached[0] == pytest.approx(expected, rel=1e-8)
        got = activate(ModHtan(fixed_offset=fixed_offset, euler_mode=euler_mode), xs)
        assert np.all(np.isfinite(got.values)) and np.all(np.abs(got.values) < 1.0)
        assert np.all(got.grads > 0.0)
        want = np.tanh(reached * math.log(euler_constant()))
        assert np.max(np.abs(got.values - want)) <= 1e-5


class TestNormalizationGeometry:
    """Two consequences of the adaptive offset (1 + _DELTA) * M + _KAPPA, M = max|x|.

    x + offset_1 >= _DELTA * M + _KAPPA > 0, so x_norm = x / (x + offset_1)
    lies in (-1/_DELTA, 1/(2 + _DELTA)): bounded and one-sided.  And
    x_norm(s * x) = x / (x + (1 + _DELTA) * M + _KAPPA / s): scaling the
    batch moves only _KAPPA's share of the offset.
    """

    C = math.log(euler_constant())
    ROUNDING = 16 * np.finfo(float).eps

    @given(arrays(float, array_shapes(max_dims=2, max_side=20), elements=st.floats(-1e300, 1e300)))
    @settings(max_examples=300, deadline=None)
    def test_values_stay_in_one_sided_range(self, batch):
        values = activate(ModHtan(), batch).values
        top = math.tanh(self.C / (2.0 + _DELTA))
        assert values.min() >= math.nextafter(-1.0, 0.0)
        assert values.max() <= top + self.ROUNDING

    def test_default_range_top(self):
        assert math.tanh(self.C / 2.05) == pytest.approx(0.4525, abs=5e-5)

    # x <= -a * offset_1 gives x_norm <= -a / (1 - a) = -T / c, so f <= -tanh(T) and 1 - f**2 <= 1e-3
    T = math.atanh(math.sqrt(1.0 - 1e-3))
    A = T / (C + T)

    @given(arrays(float, array_shapes(max_dims=2, max_side=20), elements=st.floats(-1e300, 1e300)))
    @settings(max_examples=300, deadline=None)
    def test_saturated_below_a_fixed_share_of_the_offset(self, batch):
        out = activate(ModHtan(), batch)
        saturated = batch <= -self.A * out.offset_1
        assert np.all(out.grads[saturated] < 1e-3 + self.ROUNDING)

    def test_default_saturation_share(self):
        assert self.A == pytest.approx(0.8057, abs=5e-5)

    @given(
        arrays(float, st.integers(1, 20), elements=st.floats(-1e4, 1e4)),
        st.floats(1e-2, 1e2),
    )
    @settings(max_examples=300, deadline=None)
    def test_scale_invariance_up_to_kappa(self, batch, s):
        big = np.abs(batch).max()
        assume(min(big, s * big) >= 1.0)  # max|x| well above _KAPPA = 1e-6 on both sides
        # |d x_norm| <= M _KAPPA |1 - 1/s| / (_DELTA M)**2 as x + (1 + _DELTA) M >= _DELTA M; |d tanh(c v)| <= c |dv|
        bound = self.C * _KAPPA * abs(1.0 / big - 1.0 / (s * big)) / _DELTA**2
        got = activate(ModHtan(), s * batch).values
        want = activate(ModHtan(), batch).values
        assert np.max(np.abs(got - want)) <= bound + self.ROUNDING


class TestFixedOffsetFloor:
    """A fixed offset_1 is floored, entry by entry, by that entry's own
    adaptive offset (1 + _DELTA) * |x| + _KAPPA.  So x + offset >= _DELTA * |x| + _KAPPA
    for any positive offset: no pole, x_norm keeps the sign of x and lies in the
    adaptive path's (-1/_DELTA, 1/(2 + _DELTA)), and each entry's value depends on
    that entry alone."""

    ROUNDING = 16 * np.finfo(float).eps

    @given(
        arrays(float, array_shapes(max_dims=2, max_side=20), elements=finite_floats),
        st.floats(min_value=0.0, max_value=sys.float_info.max, exclude_min=True),
    )
    @settings(max_examples=300, deadline=None)
    def test_sign_kept_and_range_bounded(self, batch, fixed_offset):
        got = x_norm(batch, fixed_offset)
        assert np.array_equal(np.signbit(got), np.signbit(batch))
        # rounding of the offset and the denominator moves the bounds by a few ulps
        assert np.all(got > -(1.0 + self.ROUNDING) / _DELTA)
        assert np.all(got < (1.0 + self.ROUNDING) / (2.0 + _DELTA))

    # the batch reaches both sides of each pole, +-1e308 and denormals; 249 = 83 x 3 entries
    BATCH = np.concatenate([np.linspace(-6.0, 6.0, 241), [-1.0, -3.0, 1e308, -1e308, 5e-324, -0.0, 1e6, -1e6]])
    LAYOUTS = {"1d": BATCH, "2d": BATCH.reshape(83, 3), "2d-sample-minor": np.asfortranarray(BATCH.reshape(83, 3))}

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("euler_mode", EULER_MODES)
    @pytest.mark.parametrize("fixed_offset", [5e-324, 1.0, 3.0, 1e300])
    def test_elementwise_bytewise(self, fixed_offset, euler_mode, layout):
        batch = self.LAYOUTS[layout]
        kind = ModHtan(fixed_offset=fixed_offset, euler_mode=euler_mode)
        whole = activate(kind, batch)
        alone = [activate(kind, x) for x in batch.ravel()]
        assert whole.values.tobytes() == np.reshape([r.values for r in alone], batch.shape).tobytes()
        assert whole.grads.tobytes() == np.reshape([r.grads for r in alone], batch.shape).tobytes()
        assert whole.offset_1 == fixed_offset

    @np.errstate(invalid="ignore")
    def test_non_finite_entries_give_nan(self):
        # the adaptive path rejects a non-finite batch; a fixed offset passes each such entry on as a
        # NaN x_norm, which constant mode maps to NaN and direct mode's rnf_exp rejects
        kind = ModHtan(fixed_offset=1.0)
        got = activate(kind, [math.inf, -math.inf, math.nan, 1.75e308, -2.0])
        assert np.isnan(got.values[:3]).all()
        assert got.values[3:].tobytes() == activate(kind, [1.75e308, -2.0]).values.tobytes()
        with pytest.raises(RnfDomainError, match="x must be finite"):
            activate(ModHtan(fixed_offset=1.0, euler_mode="direct"), [math.inf])


class TestActivateDispatch:
    def test_htan_batch(self):
        out = activate(Htan(), [0.0])
        assert out.values.tolist() == [0.0]
        assert out.grads.tolist() == [1.0]
        assert out.offset_1 is None

    def test_soft_step_batch(self):
        out = activate(SoftStep(), [0.0, 0.0])
        assert out.values.tolist() == [0.5, 0.5]
        assert out.grads.tolist() == [0.25, 0.25]

    def test_elu_batch(self):
        out = activate(Elu(), [-1000.0, 3.0])
        assert out.values.tolist() == [-1.0, 3.0]
        assert out.grads.tolist() == [0.0, 1.0]

    def test_modhtan_adaptive_offset_recorded(self):
        out = activate(ModHtan(), [0.0, 1e300])
        assert out.offset_1 == pytest.approx(1.05e300, rel=1e-12)
        assert np.all(np.isfinite(out.values))
        assert np.all(np.abs(out.values) < 1.0)

    @pytest.mark.parametrize("batch, message", [
        ([], "adaptive offset needs a non-empty batch"),
        ([1.0, float("nan")], "adaptive offset needs finite batch entries"),
    ], ids=["empty", "nan"])
    def test_modhtan_adaptive_offset_rejects_the_batch(self, batch, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            activate(ModHtan(), batch)

    def test_modhtan_fixed_offset_recorded(self):
        kind = ModHtan(fixed_offset=7.0)
        out = activate(kind, [1.0])
        assert out.offset_1 == 7.0

    def test_gradients_match_values(self):
        out = activate(ModHtan(), np.linspace(-3.0, 3.0, 7))
        assert np.array_equal(out.grads, 1.0 - out.values**2)

    @pytest.mark.parametrize("kind", [SoftStep(), Htan(), Elu(), ModHtan(),
                                      ModHtan(fixed_offset=1.0)])
    @pytest.mark.parametrize("x", [0.0, -0.0, 5e-324, 1.5, -1000.0])
    def test_0d_batch_equals_the_1_element_batch_bytewise(self, kind, x):
        scalar, one = activate(kind, x), activate(kind, [x])
        assert scalar.values.shape == scalar.grads.shape == ()
        assert scalar.values.tobytes() == one.values.tobytes()
        assert scalar.grads.tobytes() == one.grads.tobytes()
        assert scalar.offset_1 == one.offset_1

    def test_unknown_kind_rejected(self):
        with pytest.raises(TypeError):
            activate("htan", [0.0])

    def test_parse_names(self, capsys):
        """--fn and --fns accept exactly ACTIVATION_NAMES, and each name with no flags builds KINDS[name]()."""
        parser = build_parser()
        for name in ACTIVATION_NAMES:
            for command in ("curves", "train"):
                args = parser.parse_args([command, "--fn", name])
                assert _activation_from_flags(args.fn, args) == KINDS[name]()
        args = parser.parse_args(["bench", "--fns", ",".join(ACTIVATION_NAMES)])
        assert [_activation_from_flags(name, args) for name in args.fns] == [cls() for cls in KINDS.values()]
        for argv, message in [
            (["curves", "--fn", "relu"], "argument --fn: invalid choice: 'relu'"),
            (["train", "--fn", "relu"], "argument --fn: invalid choice: 'relu'"),
            (["bench", "--fns", "relu"], "unknown activation 'relu'; choose from softstep, htan, elu, modhtan"),
        ]:
            with pytest.raises(SystemExit) as info:
                parser.parse_args(argv)
            assert info.value.code == 2
            assert message in capsys.readouterr().err


class TestFiniteDifferences:
    def test_analytic_gradients_match_central_differences(self):
        # the normalized-tanh variant is excluded on purpose: its prescribed
        # gradient 1 - f**2 ignores the d(x_norm)/dx factor
        rng = np.random.default_rng(2024)
        xs = rng.uniform(-5.0, 5.0, size=100)
        h = 1e-6
        for kind in (SoftStep(), Htan(), Elu()):
            numeric = (activate(kind, xs + h).values - activate(kind, xs - h).values) / (2.0 * h)
            analytic = activate(kind, xs).grads
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-12)
            assert rel.max() <= 1e-6
