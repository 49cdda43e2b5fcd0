"""One-hidden-layer MLP: init scaling, forward pass, Jacobian and the gradient
J^T e / e.size, stalls."""

import dataclasses
import math
import re

import numpy as np
import pytest

from modhtan import activations
from modhtan.activations import (
    AdaptiveOffset,
    Elu,
    FixedOffset,
    Htan,
    ModHtan,
    SoftStep,
)
from modhtan.network import (
    MlpModel,
    StallError,
    forward,
    jacobian,
    n_params,
    nguyen_widrow_init,
    with_params,
)
from modhtan.rnf import RnfParams


def make_111(w1=1.0, b1=0.0, w2=1.0, b2=0.0, kind=Htan()):
    return MlpModel(1, 1, 1, [w1, b1, w2, b2], kind)


def gradient(model, X, T, cache):
    """Training-loss gradient as the trainers take it: J^T e / e.size."""
    J, e = jacobian(model, X, T, cache)
    return J.T @ e / e.size


def assert_matches_finite_differences(analytic, model, X, T, h=1e-6):
    """analytic against central differences of half the mean squared error."""
    theta = model.theta.copy()

    def loss_at(vec):
        y, _ = forward(with_params(model, vec), X)
        return 0.5 * float(np.mean((y - T) ** 2))

    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        numeric = (loss_at(up) - loss_at(down)) / (2.0 * h)
        assert analytic[i] == pytest.approx(numeric, rel=1e-5, abs=1e-10)


class TestInit:
    def test_deterministic(self):
        a = nguyen_widrow_init(1, 2, 1, Htan(), seed=42)
        b = nguyen_widrow_init(1, 2, 1, Htan(), seed=42)
        for name in ("W1", "b1", "W2", "b2"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_different_seeds_differ(self):
        a = nguyen_widrow_init(1, 2, 1, Htan(), seed=0)
        b = nguyen_widrow_init(1, 2, 1, Htan(), seed=1)
        assert not np.array_equal(a.W1, b.W1)

    def test_hidden_row_norm_one_input(self):
        model = nguyen_widrow_init(1, 2, 1, Htan(), seed=3)
        norms = np.linalg.norm(model.W1, axis=1)
        assert np.max(np.abs(norms - 1.4)) <= 1e-12  # 0.7 * 2**(1/1)

    def test_hidden_row_norm_heart_shape(self):
        model = nguyen_widrow_init(13, 2, 1, Htan(), seed=3)
        beta = 0.7 * 2.0 ** (1.0 / 13.0)
        norms = np.linalg.norm(model.W1, axis=1)
        assert np.max(np.abs(norms - beta)) <= 1e-12

    def test_bias_and_output_ranges(self):
        model = nguyen_widrow_init(4, 8, 3, Htan(), seed=9)
        beta = 0.7 * 8.0 ** (1.0 / 4.0)
        assert np.all(np.abs(model.b1) <= beta)
        assert np.all(np.abs(model.W2) <= 0.5)
        assert np.all(np.abs(model.b2) <= 0.5)

    def test_bad_dimensions_rejected(self):
        for dims, message in [((0, 2, 1), "n_in must be >= 1, got 0"), ((-1, 2, 1), "n_in must be >= 1, got -1"),
                              ((1, 0, 1), "n_hidden must be >= 1, got 0"), ((1, 2, 0), "n_out must be >= 1, got 0")]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                nguyen_widrow_init(*dims, Htan(), seed=0)
            with pytest.raises(ValueError, match=f"^{message}$"):
                MlpModel(*dims, np.zeros(1), Htan())


class TestForward:
    def test_zero_model_outputs_zero(self):
        for kind in (Htan(), ModHtan()):
            model = MlpModel(2, 3, 1, np.zeros(13), kind)
            y, _ = forward(model, np.random.default_rng(0).normal(size=(4, 2)))
            assert np.array_equal(y, np.zeros((4, 1)))

    def test_hand_built_111(self):
        y, cache = forward(make_111(), np.array([[1.0]]))
        assert y[0, 0] == pytest.approx(math.tanh(1.0), rel=1e-12)
        assert cache.z1[0, 0] == 1.0

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(11)
        model = nguyen_widrow_init(2, 2, 1, Htan(), seed=5)
        X = rng.normal(size=(5, 2))
        y, _ = forward(model, X)
        for s in range(5):
            hidden = []
            for j in range(2):
                z = model.b1[j]
                for i in range(2):
                    z += model.W1[j, i] * X[s, i]
                hidden.append(math.tanh(z))
            want = model.b2[0]
            for j in range(2):
                want += model.W2[0, j] * hidden[j]
            assert abs(y[s, 0] - want) <= 1e-12

    def test_wrong_input_column_count_rejected(self):
        with pytest.raises(ValueError, match="^expected 1 input columns, got 2$"):
            forward(make_111(), np.zeros((3, 2)))

    def test_saturating_activation_does_not_stall(self):
        model = make_111(w1=1e6)
        y, _ = forward(model, np.array([[1.0]]))
        assert y[0, 0] == 1.0

    def test_non_finite_preactivation_raises(self):
        model = make_111(w1=1e308)
        with pytest.raises(StallError):
            forward(model, np.array([[10.0]]))

    @pytest.mark.parametrize(
        "kind, x, message",
        [
            # x_norm = -0.98039 / 0.01961 ~ -49.99, inside the clamp; with a = 101 the base of
            # rnf_exp(-2 * x_norm ~ 99.99) is ~ 1e4, and its 101st power overflows
            (ModHtan(offset_mode=FixedOffset(1.0), rnf=RnfParams(a=101), euler_mode="direct"), -0.98039,
             "rnf_exp result exceeds"),
            # x = -1 gives x_norm ~ -20 under the default offset, and 1 - 2 * x_norm ~ 41 >= a = 30
            (ModHtan(rnf=RnfParams(a=30), euler_mode="direct"), -1.0, "1 \\+ x must stay strictly below a = 30"),
        ],
        ids=["overflow", "domain"],
    )
    def test_direct_modhtan_overflow_is_a_stall(self, kind, x, message):
        model = make_111(kind=kind)
        with pytest.raises(StallError, match=f"^hidden activations: {message}"):
            forward(model, np.array([[x], [0.5]]))

    def test_modhtan_offset_lands_in_cache(self):
        model = MlpModel(1, 2, 1, [1.0, 2.0, 0.0, 0.0, 1.0, 1.0, 0.0], ModHtan())  # W1, b1, W2, b2
        _, cache = forward(model, np.array([[1.0], [-2.0]]))
        # max |z1| over the batch is 4
        assert cache.offset_1 == pytest.approx(1.05 * 4.0 + 1e-6, rel=1e-15)

    @pytest.mark.parametrize("offset_mode, offset_calls", [(AdaptiveOffset(), 1), (FixedOffset(2.0), 0)],
                             ids=["adaptive", "fixed"])
    def test_activate_calls_the_modhtan_module_globals(self, offset_mode, offset_calls, monkeypatch):
        # the benchmark's per-layer trace times these two by patching the module globals
        model = nguyen_widrow_init(2, 3, 1, ModHtan(offset_mode=offset_mode), seed=0)
        calls = {"modhtan": [], "adaptive_offset": []}
        for name in calls:
            def recorded(*args, _name=name, _original=getattr(activations, name)):
                calls[_name].append(args)
                return _original(*args)
            monkeypatch.setattr(activations, name, recorded)
        _, cache = forward(model, np.random.default_rng(2).normal(size=(4, 2)))
        assert len(calls["modhtan"]) == 1
        # the adaptive offset takes the batch's exact min and max and the model's AdaptiveOffset
        assert calls["adaptive_offset"] == [(cache.z1.min(), cache.z1.max(), offset_mode)] * offset_calls


class TestGradient:
    def test_zero_residual_zero_grads(self):
        model = nguyen_widrow_init(2, 3, 2, Htan(), seed=7)
        X = np.random.default_rng(1).normal(size=(6, 2))
        y, cache = forward(model, X)
        grads = gradient(model, X, y, cache)
        assert np.max(np.abs(grads)) == 0.0

    def test_hand_chain_rule_output_weight(self):
        model = make_111()
        X = np.array([[1.0]])
        T = np.array([[0.0]])
        y, cache = forward(model, X)
        grads = gradient(model, X, T, cache)
        # dL/dw2 = residual * h = tanh(1)**2 for the half-mean-square loss
        # flat order W1, b1, W2, b2: W2[0, 0] is entry 2, b2[0] entry 3
        assert grads[2] == pytest.approx(math.tanh(1.0) ** 2, rel=1e-12)
        assert grads[3] == pytest.approx(math.tanh(1.0), rel=1e-12)

    @pytest.mark.parametrize(
        "kind", [SoftStep(), Htan(), Elu(alpha=1.0)], ids=["softstep", "htan", "elu"]
    )
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(23)
        model = nguyen_widrow_init(2, 2, 1, kind, seed=23)
        X = rng.normal(size=(10, 2))
        T = rng.normal(size=(10, 1))
        _, cache = forward(model, X)
        assert_matches_finite_differences(gradient(model, X, T, cache), model, X, T)


class TestJacobian:
    def test_zero_residual_vector(self):
        model = nguyen_widrow_init(2, 2, 1, Htan(), seed=3)
        X = np.random.default_rng(4).normal(size=(5, 2))
        y, cache = forward(model, X)
        _, e = jacobian(model, X, y, cache)
        assert np.array_equal(e, np.zeros(5))

    def test_multi_output_gradient_matches_finite_differences(self):
        model = nguyen_widrow_init(3, 4, 2, Htan(), seed=8)
        rng = np.random.default_rng(8)
        X = rng.normal(size=(7, 3))
        T = rng.normal(size=(7, 2))
        _, cache = forward(model, X)
        J, e = jacobian(model, X, T, cache)
        assert J.shape == (7 * 2, n_params(model))
        assert_matches_finite_differences(J.T @ e / e.size, model, X, T)

    def test_hand_chain_rule_single_sample(self):
        model = make_111(w1=0.8, b1=0.1, w2=-1.2, b2=0.3)
        X = np.array([[0.5]])
        T = np.array([[1.0]])
        _, cache = forward(model, X)
        J, e = jacobian(model, X, T, cache)
        z = 0.8 * 0.5 + 0.1
        h = math.tanh(z)
        g = 1.0 - h * h
        assert e[0] == pytest.approx(-1.2 * h + 0.3 - 1.0, rel=1e-12)
        # parameter order: W1, b1, W2, b2
        want = [-1.2 * g * 0.5, -1.2 * g, h, 1.0]
        assert np.allclose(J[0], want, rtol=1e-12, atol=0.0)


class TestParamVector:
    def test_pack_unpack_round_trip(self):
        model = nguyen_widrow_init(2, 3, 2, Htan(), seed=1)
        theta = model.theta.copy()
        assert theta.shape == (n_params(model),)
        again = with_params(model, theta)
        for name in ("W1", "b1", "W2", "b2"):
            assert np.array_equal(getattr(again, name), getattr(model, name))

    def test_weight_arrays_are_views_of_theta(self):
        theta = np.arange(13.0)  # (2, 3, 1): W1 6, b1 3, W2 3, b2 1
        model = MlpModel(2, 3, 1, theta, Htan())
        assert model.theta is theta  # a float64 vector is held, not copied
        assert np.array_equal(np.concatenate([model.W1.ravel(), model.b1, model.W2.ravel(), model.b2]), theta)
        assert model.W1.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
        theta += 1.0
        assert model.b2.tolist() == [13.0]
        # replacing the kind re-cuts views of the same vector
        again = dataclasses.replace(model, hidden_kind=ModHtan())
        assert again.theta is theta and isinstance(again.hidden_kind, ModHtan)
        for name in ("W1", "b1", "W2", "b2"):
            assert np.shares_memory(getattr(model, name), theta)
            assert np.shares_memory(getattr(again, name), theta)

    def test_shape_mismatch_rejected(self):
        for theta in (np.zeros(8), np.zeros((9, 1))):  # (2, 2, 1) has 9 parameters
            with pytest.raises(ValueError, match=rf"^theta must have shape \(9,\), got {re.escape(str(theta.shape))}$"):
                MlpModel(2, 2, 1, theta, Htan())
        model = nguyen_widrow_init(2, 2, 1, Htan(), seed=1)
        with pytest.raises(ValueError):
            with_params(model, np.zeros(n_params(model) - 1))
