"""Activation functions and gradients, including the normalized-tanh variant
and its batch-adaptive offset."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from modhtan.activations import (
    AdaptiveOffset,
    Elu,
    FixedOffset,
    Htan,
    ModHtan,
    SoftStep,
    _normalized_input,
    activate,
    adaptive_offset,
    parse_activation,
)
from modhtan.rnf import RnfParams, euler_constant

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
    return adaptive_offset(xs.min(initial=np.inf), xs.max(initial=-np.inf), AdaptiveOffset())


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

    def test_alpha_scales_negative_branch(self):
        kind = Elu(alpha=2.0)
        assert value(kind, -1000.0) == -2.0
        assert value(kind, -1.0) == pytest.approx(2.0 * (math.exp(-1.0) - 1.0), rel=1e-14)

    def test_continuous_at_zero(self):
        assert abs(value(Elu(), 1e-9) - value(Elu(), -1e-9)) <= 1e-8

    def test_monotone(self):
        xs = np.linspace(-10.0, 10.0, 401)
        assert np.all(np.diff(activate(Elu(), xs).values) >= 0.0)

    def test_grad_positive_branch(self):
        assert grad(Elu(), 5.0) == 1.0

    def test_grad_at_zero_is_continuous_for_unit_alpha(self):
        # x = 0 goes to the negative branch: f + alpha = 1 when alpha = 1
        assert grad(Elu(), 0.0) == 1.0

    def test_grad_vanishes_deep_negative(self):
        assert grad(Elu(), -1000.0) == 0.0

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            Elu(alpha=0.0)
        with pytest.raises(ValueError):
            Elu(alpha=-1.0)
        with pytest.raises(ValueError):
            Elu(alpha=math.inf)  # inf * expm1(0) would be NaN


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


def normalize(x, offset_1, x_cutoff=10.0, clamp=50.0, center_normalize=True):
    xs = np.array(x)
    return float(_normalized_input(xs, xs.min(), xs.max(), offset_1, x_cutoff, clamp, center_normalize,
                                   np.empty_like(xs)))


class TestNormalize:
    def test_center_zero(self):
        assert normalize(0.0, 1.0) == 0.0

    def test_positive_region(self):
        assert normalize(1000.0, 10.0) == pytest.approx(1000.0 / 1010.0, rel=1e-15)
        # beyond the cutoff the input is normalized even without center normalization
        assert normalize(1000.0, 10.0, center_normalize=False) == normalize(1000.0, 10.0)

    def test_negative_region(self):
        assert normalize(-10.5, 1.0, center_normalize=False) == normalize(-10.5, 1.0)

    def test_cutoff_boundary_belongs_to_center(self):
        # the center keeps the raw input when center normalization is off
        assert normalize(10.0, 1.0, center_normalize=False) == 10.0
        assert normalize(-10.0, 1.0, center_normalize=False) == -10.0

    def test_singular_denominator_guard(self):
        assert normalize(-1.0, 1.0) == -50.0

    def test_clamp_applies(self):
        # x/(x + offset) = -9999 without the clamp
        assert normalize(-9999.0, 10000.0) == -50.0


class TestModHtan:
    def test_zero_is_fixed_point(self):
        assert value(ModHtan(offset_mode=FixedOffset(1.0)), 0.0) == 0.0

    def test_against_tanh_oracle_fixed_offset(self):
        got = value(ModHtan(offset_mode=FixedOffset(10.0)), 1000.0)
        assert abs(got - math.tanh(1000.0 / 1010.0)) <= 1e-5

    def test_adaptive_huge_input(self):
        got = value(ModHtan(), 1e300)
        # x/(x + 1.05x) = 1/2.05
        assert abs(got - math.tanh(1.0 / 2.05)) <= 1e-5
        assert math.isfinite(got)

    def test_grad_is_one_minus_f_squared(self):
        for x in (0.0, 1.0, -1.0, 0.3, -1e4):
            out = activate(ModHtan(offset_mode=FixedOffset(10.0)), x)
            assert out.grads == 1.0 - out.values * out.values

    def test_euler_modes_agree(self):
        xs = np.linspace(-40.0, 40.0, 81)
        a = activate(ModHtan(euler_mode="constant"), xs).values
        b = activate(ModHtan(euler_mode="direct"), xs).values
        assert np.max(np.abs(a - b)) <= 1e-5

    def test_center_normalize_off_restores_plain_tanh_inside(self):
        kind = ModHtan(center_normalize=False, offset_mode=FixedOffset(100.0))
        assert abs(value(kind, 1.0) - math.tanh(1.0)) <= 1e-5
        # outside the cutoff the normalization still applies
        got = value(kind, 1000.0)
        assert abs(got - math.tanh(1000.0 / 1100.0)) <= 1e-5

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

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ModHtan(k_o=0.0)
        with pytest.raises(ValueError):
            ModHtan(x_cutoff=-1.0)
        with pytest.raises(ValueError):
            ModHtan(x_norm_clamp=0.0)
        with pytest.raises(ValueError):
            ModHtan(euler_mode="fast")
        with pytest.raises(ValueError):
            FixedOffset(0.0)
        with pytest.raises(ValueError):
            AdaptiveOffset(delta=-0.1)
        with pytest.raises(ValueError):
            AdaptiveOffset(kappa=0.0)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                ModHtan(k_o=bad)
            with pytest.raises(ValueError):
                FixedOffset(bad)
            with pytest.raises(ValueError):
                AdaptiveOffset(delta=bad)
            with pytest.raises(ValueError):
                AdaptiveOffset(kappa=bad)
        # their outputs stay finite, so these two may be infinite
        ModHtan(x_cutoff=math.inf, x_norm_clamp=math.inf)

    @pytest.mark.parametrize("rnf, euler", [
        (RnfParams(a=10**17), "1.0"),  # (a - 1) / (a - 2) rounds to 1
        (RnfParams(n=3.0), "0.367"),
        (RnfParams(a=1000, n=-1e10), "inf"),  # rnf_exp(1) overflows
    ], ids=["one", "below_one", "overflow"])
    def test_euler_constant_must_exceed_one(self, rnf, euler):
        with pytest.raises(ValueError, match=f"^modhtan needs a finite Euler constant E > 1; .* gives E = {euler}"):
            ModHtan(rnf=rnf)

    def test_euler_constant_must_follow_its_formula(self):
        ModHtan(rnf=RnfParams(a=10**14))  # ln E off by 8.0e-4 of itself, inside the 1e-3 tolerance
        with pytest.raises(ValueError, match=r"^RnfParams\(a=1000000000000000, n=1.0, m=1.0\) rounds modhtan's ln E"):
            ModHtan(rnf=RnfParams(a=10**15))  # ln E = 1.11


class TestNormalizationGeometry:
    """Two consequences of the adaptive offset (1 + delta) * M + kappa, M = max|x|.

    x + offset_1 >= delta * M + kappa > 0, so x_norm = x / (x + offset_1) lies
    in (-1/delta, 1/(2 + delta)): bounded and one-sided.  And x_norm(s * x) =
    x / (x + (1 + delta) * M + kappa / s): scaling the batch moves only
    kappa's share of the offset.
    """

    C = math.log(euler_constant(RnfParams()))
    ROUNDING = 16 * np.finfo(float).eps

    @given(
        arrays(float, array_shapes(max_dims=2, max_side=20), elements=st.floats(-1e300, 1e300)),
        st.floats(0.0, 2.0),
        st.floats(1e-12, 1e3),
    )
    @settings(max_examples=300, deadline=None)
    def test_values_stay_in_one_sided_range(self, batch, delta, kappa):
        values = activate(ModHtan(offset_mode=AdaptiveOffset(delta, kappa)), batch).values
        top = math.tanh(self.C / (2.0 + delta))
        assert values.min() >= math.nextafter(-1.0, 0.0)
        assert values.max() <= top + self.ROUNDING

    def test_default_range_top(self):
        assert math.tanh(self.C / 2.05) == pytest.approx(0.4525, abs=5e-5)

    # x <= -a * offset_1 gives x_norm <= -a / (1 - a) = -T / c, so f <= -tanh(T) and 1 - f**2 <= 1e-3
    T = math.atanh(math.sqrt(1.0 - 1e-3))
    A = T / (C + T)

    @given(
        arrays(float, array_shapes(max_dims=2, max_side=20), elements=st.floats(-1e300, 1e300)),
        st.floats(0.0, 2.0),
        st.floats(1e-12, 1e3),
    )
    @settings(max_examples=300, deadline=None)
    def test_saturated_below_a_fixed_share_of_the_offset(self, batch, delta, kappa):
        out = activate(ModHtan(offset_mode=AdaptiveOffset(delta, kappa)), batch)
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
        assume(min(big, s * big) >= 1.0)  # max|x| well above kappa = 1e-6 on both sides
        mode = ModHtan().offset_mode
        # |d x_norm| <= M kappa |1 - 1/s| / (delta M)**2 as x + (1 + delta) M >= delta M; |d tanh(c v)| <= c |dv|
        bound = self.C * mode.kappa * abs(1.0 / big - 1.0 / (s * big)) / mode.delta**2
        got = activate(ModHtan(), s * batch).values
        want = activate(ModHtan(), batch).values
        assert np.max(np.abs(got - want)) <= bound + self.ROUNDING


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

    def test_elu_uses_params(self):
        out = activate(Elu(alpha=2.0), [-1000.0, 3.0])
        assert out.values.tolist() == [-2.0, 3.0]
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
        kind = ModHtan(offset_mode=FixedOffset(7.0))
        out = activate(kind, [1.0])
        assert out.offset_1 == 7.0

    def test_gradients_match_values(self):
        out = activate(ModHtan(), np.linspace(-3.0, 3.0, 7))
        assert np.array_equal(out.grads, 1.0 - out.values**2)

    @pytest.mark.parametrize("kind", [SoftStep(), Htan(), Elu(), ModHtan(),
                                      ModHtan(offset_mode=FixedOffset(-3.0))])
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

    def test_parse_names(self):
        assert isinstance(parse_activation("softstep"), SoftStep)
        assert isinstance(parse_activation("modhtan"), ModHtan)
        with pytest.raises(ValueError):
            parse_activation("relu")


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
