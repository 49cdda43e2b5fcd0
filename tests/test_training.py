"""Trainers: gradient descent with momentum, Levenberg-Marquardt, metrics,
stall handling."""

import warnings

import numpy as np
import pytest

from modhtan import training
from modhtan.activations import Elu, Htan, ModHtan, SoftStep, adaptive_offset
from modhtan.datasets import SplitSpec, gen_quadratic, load_heart, make_heart_fixture, split
from modhtan.network import (
    MlpModel,
    forward,
    jacobian,
    nguyen_widrow_init,
    with_params,
)
from modhtan.training import (
    _SYRK_MIN_PARAMS,
    GdmConfig,
    LmConfig,
    _normal_matrix,
    classification_accuracy,
    history_to_csv,
    mse,
    train_gdm,
    train_lm,
)


def zero_model(n_in=1, n_hidden=2, kind=Htan()):
    return MlpModel(n_in, n_hidden, np.zeros((n_in + 1) * n_hidden + n_hidden + 1), kind)


class TestMetrics:
    def test_mse_zero_for_equal(self):
        assert mse(np.ones((3, 2)), np.ones((3, 2))) == 0.0

    def test_mse_hand_values(self):
        assert mse([1.0, 1.0], [0.0, 0.0]) == 1.0
        assert mse([0.1, -0.2], [0.0, 0.0]) == pytest.approx(0.025, rel=1e-15)

    def test_accuracy_perfect_and_zero(self):
        assert classification_accuracy([0.9, 0.1], [1.0, 0.0]) == 100.0
        assert classification_accuracy([0.9, 0.1], [0.0, 1.0]) == 0.0

    def test_accuracy_threshold_at_half(self):
        assert classification_accuracy([0.5], [1.0]) == 100.0

    def test_accuracy_table_granularity(self):
        # 38 correct out of 54
        scores = [1.0] * 38 + [0.0] * 16
        labels = [1.0] * 54
        assert classification_accuracy(scores, labels) == pytest.approx(
            70.37037037037037, abs=1e-12
        )

    def test_accuracy_empty_rejected(self):
        with pytest.raises(ValueError):
            classification_accuracy([], [])


class TestGdmStall:
    @pytest.mark.parametrize("epochs", [50, 6])
    def test_parameter_overflow_is_a_stall(self, epochs):
        # modhtan keeps the loss finite while lr 1e30 overflows the weights,
        # so only the check on the updated parameters catches it
        data = gen_quadratic(40)
        model = nguyen_widrow_init(1, 2, ModHtan(), seed=0)
        _, history = train_gdm(model, data.X, data.T, GdmConfig(learning_rate=1e30, epochs=epochs))
        assert history.termination == "stall"
        assert history.stall_events == [(5, "parameters contain non-finite values")]
        assert len(history.loss) == len(history.epoch_time_s) == 6
        assert np.isfinite(history.loss).all()

    def test_output_overflow_is_a_stall_without_a_warning(self):
        # the first step leaves finite weights whose outputs overflow
        data = gen_quadratic(40)
        model = nguyen_widrow_init(1, 2, Elu(), seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, history = train_gdm(model, data.X, data.T, GdmConfig(learning_rate=1e306, momentum=0.0, epochs=3))
        assert history.stall_events == [(1, "outputs contain non-finite values")]

    def test_saturated_hidden_layer_is_not_a_stall(self):
        model = MlpModel(1, 1, [1e6, 0.0, 1.0, 0.0], Htan())
        _, history = train_gdm(model, np.array([[1.0]]), np.zeros((1, 1)), GdmConfig(epochs=5))
        assert history.termination == "epochs"
        assert history.stall_events == []


def overflowing_model():
    # finite weights whose outputs square past the float range: the first loss is inf
    return MlpModel(1, 2, [1.0, 0.5, 0.0, 0.0, 1e200, 1e200, 0.0], Htan())  # W1, b1, W2, b2


class TestNonFiniteStart:
    """Both trainers stall on a non-finite starting loss, before any Jacobian."""

    def _lm_stalls_at_once(self, model, X, T):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fitted, history = train_lm(model, X, T)
        assert fitted is model
        assert history.termination == "stall"
        assert history.stall_events == [(0, "training loss is non-finite")]
        assert history.loss == history.epoch_time_s == history.mu == []

    def test_lm_overflowing_loss(self):
        ds = gen_quadratic(16)
        self._lm_stalls_at_once(overflowing_model(), ds.X, ds.T)

    def test_lm_nan_target(self):
        ds = gen_quadratic(16)
        T = ds.T.copy()
        T[3, 0] = np.nan
        self._lm_stalls_at_once(nguyen_widrow_init(1, 2, Htan(), seed=0), ds.X, T)

    def test_gdm_overflowing_loss(self):
        ds = gen_quadratic(16)
        _, history = train_gdm(overflowing_model(), ds.X, ds.T)
        assert history.termination == "stall"
        assert history.stall_events == [(0, "training loss is non-finite")]
        assert history.loss == [np.inf]
        assert len(history.epoch_time_s) == 1


class TestGdm:
    def test_zero_residual_is_a_fixed_point(self):
        model = zero_model()
        X = np.array([[0.5], [-0.5]])
        T = np.zeros((2, 1))  # zero model already fits zero targets
        trained, history = train_gdm(model, X, T, GdmConfig(epochs=10))
        assert history.loss == [0.0] * 10
        assert np.array_equal(trained.theta, model.theta)

    def test_converges_to_mean_when_only_bias_can_move(self):
        # all-zero weights keep every gradient except b2's at zero, so this
        # is a 1-parameter quadratic problem with optimum at mean(T)
        X = np.linspace(-1.0, 1.0, 8)[:, None]
        T = np.full((8, 1), 0.37)
        trained, history = train_gdm(zero_model(), X, T, GdmConfig(epochs=500))
        assert abs(trained.b2[0] - 0.37) <= 1e-6
        assert history.termination == "epochs"
        assert len(history.loss) == 500

    def test_zero_momentum_equals_plain_gradient_descent(self):
        ds = gen_quadratic(16)
        cfg = GdmConfig(learning_rate=0.05, momentum=0.0, epochs=40)
        start = nguyen_widrow_init(1, 2, Htan(), seed=4)
        trained, _ = train_gdm(start, ds.X, ds.T, cfg)

        theta = start.theta.copy()
        model = start
        for _ in range(cfg.epochs):
            _, cache = forward(model, ds.X)
            J, e = jacobian(model, ds.X, ds.T, cache)
            theta = theta - cfg.learning_rate * (J.T @ e / e.size)
            model = with_params(model, theta)
        assert np.array_equal(trained.theta, theta)

    def test_caller_model_untouched_and_result_owns_its_parameters(self):
        ds = gen_quadratic(32)
        model = nguyen_widrow_init(1, 3, ModHtan(), seed=2)
        before = {name: getattr(model, name).copy() for name in ("W1", "b1", "W2", "b2")}
        fitted, history = train_gdm(model, ds.X, ds.T, GdmConfig(epochs=10))
        assert history.termination == "epochs"
        assert not np.array_equal(fitted.theta, model.theta)
        for name, values in before.items():
            assert getattr(model, name).tobytes() == values.tobytes()
            assert not np.shares_memory(getattr(fitted, name), getattr(model, name))
            assert np.shares_memory(getattr(fitted, name), fitted.theta)

    def test_runs_exactly_epochs(self):
        ds = gen_quadratic(16)
        _, history = train_gdm(nguyen_widrow_init(1, 2, Htan(), seed=0), ds.X, ds.T,
                               GdmConfig(epochs=7))
        assert len(history.loss) == 7
        assert len(history.epoch_time_s) == 7

    def test_one_jacobian_per_epoch_into_one_workspace(self, monkeypatch):
        # the benchmark's per-layer trace times jacobian by patching training's module global
        ds = gen_quadratic(16)
        passed, returned = [], []

        def recorded(*args):
            passed.append(args[4])
            J, e = jacobian(*args)
            returned.append(J)
            return J, e

        monkeypatch.setattr(training, "jacobian", recorded)
        train_gdm(nguyen_widrow_init(1, 2, Htan(), seed=0), ds.X, ds.T, GdmConfig(epochs=7))
        assert len(passed) == 7
        assert passed[0] is None
        assert all(J is returned[0] for J in passed[1:] + returned)

    def test_stall_aborts_with_partial_history(self):
        ds = gen_quadratic(16)
        cfg = GdmConfig(learning_rate=1e30, epochs=50)  # guaranteed blow-up
        _, history = train_gdm(nguyen_widrow_init(1, 2, Elu(), seed=0), ds.X, ds.T, cfg)
        assert history.termination == "stall"
        assert history.stall_events
        assert len(history.loss) < 50

    def test_config_validation(self):
        for learning_rate in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                GdmConfig(learning_rate=learning_rate)
        with pytest.raises(ValueError):
            GdmConfig(momentum=1.0)
        with pytest.raises(ValueError):
            GdmConfig(epochs=0)


class TestLm:
    def test_linear_problem_solved_in_few_epochs(self):
        # ELU hidden units with strictly positive pre-activations make the
        # network an exactly-representable affine map of x
        rng = np.random.default_rng(5)
        X = rng.uniform(0.0, 1.0, size=(40, 1))
        T = 2.0 * X + 1.0
        model = MlpModel(1, 1, [1.0, 5.0, 0.5, 0.0], Elu())
        trained, history = train_lm(model, X, T, LmConfig(epochs=25))
        y, _ = forward(trained, X)
        assert mse(y, T) <= 1e-8

    def test_accepted_steps_never_increase_loss(self):
        ds = gen_quadratic(64)
        model = nguyen_widrow_init(1, 2, Htan(), seed=6)
        _, history = train_lm(model, ds.X, ds.T, LmConfig(epochs=50))
        losses = np.array(history.loss)
        assert np.all(np.diff(losses) <= 0.0)

    def test_huge_damping_reduces_to_gradient_step(self):
        mu = 1e10
        ds = gen_quadratic(32)
        model = nguyen_widrow_init(1, 2, Htan(), seed=2)
        _, cache = forward(model, ds.X)
        J, e = jacobian(model, ds.X, ds.T, cache)
        theta0 = model.theta.copy()
        trained, history = train_lm(
            model, ds.X, ds.T, LmConfig(mu0=mu, mu_max=1e14, epochs=1)
        )
        step = trained.theta - theta0
        # differencing theta quantizes the ~1e-10 step to theta's ulp (~2e-16)
        assert np.allclose(step, -(J.T @ e) / mu, rtol=1e-6, atol=1e-15)

    def test_mu_tracks_accept_reject_cycle(self):
        ds = gen_quadratic(32)
        model = nguyen_widrow_init(1, 2, Htan(), seed=2)
        _, history = train_lm(model, ds.X, ds.T, LmConfig(epochs=5))
        # recorded values are post-accept (already shrunk by mu_dec); this
        # seed rejects 1e-3, 1e-2, 1e-1 in epoch 1 and accepts at 1.0
        assert len(history.mu) == 5
        assert history.mu[0] == pytest.approx(0.1, rel=1e-12)
        assert history.mu[1] == pytest.approx(0.01, rel=1e-12)
        assert history.mu[-1] == pytest.approx(1e-3, rel=1e-9)  # settles at mu0

    def test_grad_tol_termination(self):
        # start at the exact optimum of a trivially solvable problem
        X = np.array([[0.0], [1.0]])
        T = np.zeros((2, 1))
        model = zero_model(n_hidden=1)
        _, history = train_lm(model, X, T, LmConfig(epochs=10))
        assert history.termination == "grad_tol"
        assert history.loss == []

    def test_mu_max_termination_when_no_step_helps(self, monkeypatch):
        # a converged fit: mu decays toward 1e-15, then the last epoch rejects
        # every level on its way up past mu_max
        calls = []

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(training, "forward", counting("forward", forward))
        monkeypatch.setattr(training, "jacobian", counting("jacobian", jacobian))
        ds = gen_quadratic(16)
        model = nguyen_widrow_init(1, 2, SoftStep(), seed=8)
        _, history = train_lm(model, ds.X, ds.T, LmConfig(mu0=1e-12, epochs=200))
        assert history.termination == "mu_max"
        assert len(history.loss) < 200
        last_epoch = calls[len(calls) - calls[::-1].index("jacobian"):]  # after the epoch's one jacobian
        # 31 is LmConfig's derived bound at the default mu_inc and mu_max
        assert 20 < last_epoch.count("forward") <= 31

    def test_each_jacobian_sees_the_offset_of_its_own_forward(self, monkeypatch):
        # the workspace follows every candidate forward, offset_1 too, not only its arrays
        kind, caches = ModHtan(), []

        def recorded(model, X, T, cache, out):
            caches.append((cache.offset_1, cache.z1.min(), cache.z1.max()))
            return jacobian(model, X, T, cache, out)

        monkeypatch.setattr(training, "jacobian", recorded)
        ds = gen_quadratic(400)
        train_lm(nguyen_widrow_init(1, 3, kind, seed=0), ds.X, ds.T, LmConfig(epochs=10))
        assert len(caches) == 10
        assert len({offset for offset, _, _ in caches}) > 1  # the adaptive offset moves with z1
        for offset, lo, hi in caches:
            assert offset == adaptive_offset(lo, hi)

    def test_converged_heart_fit_runs_every_epoch(self, tmp_path):
        # htan on this fixture drives mu to the floor; one epoch then rejects
        # 17 levels before a step helps, and the fit goes on
        seed = 1001008
        make_heart_fixture(tmp_path / "heart.dat", seed=seed)
        train, _ = split(load_heart(tmp_path / "heart.dat"), SplitSpec(seed=seed))
        model = nguyen_widrow_init(13, 2, Htan(), seed=seed)
        _, history = train_lm(model, train.X, train.T, LmConfig())
        assert history.termination == "epochs"
        assert len(history.loss) == 500
        assert min(history.mu) == training._MU_MIN

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LmConfig(mu0=0.0)
        for mu_inc in (1.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                LmConfig(mu_inc=mu_inc)
        with pytest.raises(ValueError):
            LmConfig(mu_dec=1.5)
        with pytest.raises(ValueError):
            LmConfig(mu_max=1e-9)
        with pytest.raises(ValueError, match="^mu_max must be finite and exceed mu0$"):
            LmConfig(mu0=1.0, mu_max=1.0)  # the ceiling must lie strictly above the start
        with pytest.raises(ValueError, match="^epochs must be >= 1$"):
            LmConfig(epochs=0)
        for mu_max in (np.inf, np.nan):  # a finite ceiling stops an overflowed mu before it is solved
            with pytest.raises(ValueError):
                LmConfig(mu_max=mu_max)
        # an epoch may try the mu levels from 1e-20 up to mu_max: at most 1000
        with pytest.raises(ValueError, match=r"^mu_inc 1\.01 lets an epoch try 6944 candidates, over 1000$"):
            LmConfig(mu_inc=1.01)
        with pytest.raises(ValueError, match="try 1022 candidates"):
            LmConfig(mu_inc=1.07)
        LmConfig(mu_inc=1.075)  # 957 candidates


class TestNormalMatrix:
    """J^T J for the LM step: numpy's product (BLAS syrk) from
    _SYRK_MIN_PARAMS columns on, a gemm against a copy of J below that."""

    N = 5000  # the synthetic set's sample count

    def _J(self, P):
        return np.random.default_rng(P).standard_normal((self.N, P))

    @pytest.mark.parametrize("P", [_SYRK_MIN_PARAMS, 31, 151])
    def test_wide_is_numpys_product_bytewise(self, P):
        J = self._J(P)
        before = J.tobytes()
        out = np.empty((P, P))
        assert _normal_matrix(J, out) is out
        assert out.tobytes() == np.matmul(J.T, J).tobytes()
        assert J.tobytes() == before

    @pytest.mark.parametrize("P", [1, 2, 7, 13, _SYRK_MIN_PARAMS - 1])
    def test_narrow_is_symmetric_and_within_the_dot_product_bound(self, P):
        J = self._J(P)
        before = J.tobytes()
        out = np.full((P, P), np.nan)
        assert _normal_matrix(J, out) is out
        assert J.tobytes() == before
        assert np.array_equal(out, out.T)
        Jl = J.astype(np.longdouble)
        exact = Jl.T @ Jl
        # A dot product of length N in floating point is off by at most
        # N * u * sum|a_k * b_k| (Higham, Accuracy and Stability, 3.1), and
        # sum|a_k * b_k| <= |a| * |b|.  Doubled for the reference's own
        # rounding where np.longdouble is plain double.
        norms = np.sqrt(np.diag(exact).astype(float))
        bound = 2.0 * self.N * (np.finfo(float).eps / 2.0) * np.outer(norms, norms)
        assert np.all(np.abs((out - exact).astype(float)) <= bound)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).nmant < 63,
        reason="np.longdouble is not extended precision on this platform, so it cannot be the reference",
    )
    @pytest.mark.parametrize("P", [7, 13])
    def test_narrow_sample_minor_is_at_syrk_accuracy(self, P):
        # On the sample-minor J that jacobian returns, the gemm forms J^T J
        # about as accurately as syrk: 4.3e-16 and 4.6e-16 of |J_i||J_j| on
        # these two J with OpenBLAS 0.3.31, against 3.0e-15 and 4.8e-15 when
        # the same J is C-ordered.
        J = np.asfortranarray(self._J(P))
        out = np.empty((P, P))
        _normal_matrix(J, out)
        Jl = J.astype(np.longdouble)
        exact = Jl.T @ Jl
        norms = np.sqrt(np.diag(exact).astype(float))
        assert np.max(np.abs((out - exact).astype(float)) / np.outer(norms, norms)) <= 1.5e-15


class TestHistoryExport:
    def test_csv_layout(self, tmp_path):
        ds = gen_quadratic(16)
        _, history = train_gdm(nguyen_widrow_init(1, 2, Htan(), seed=0), ds.X, ds.T,
                               GdmConfig(epochs=3))
        path = tmp_path / "history.csv"
        history_to_csv(history, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,loss,epoch_time_s"
        assert len(lines) == 4
        assert lines[1].startswith("0,")
