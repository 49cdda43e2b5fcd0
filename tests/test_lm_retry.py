"""The LM retry loop against the one-solve-per-candidate loop it replaces.

`oracle_train_lm` below is that loop, kept as the reference: a fresh
parameter vector and model per candidate and one `np.linalg.solve` per
damping level.  `train_lm` solves the same way but writes each candidate
into the theta of one of two per-fit models, which swap when it is
accepted.  That must not change a bit: loss and damping histories,
termination, stall events and final parameters are compared exactly, on an
activation x shape x seed matrix and on problems that force each way an
epoch can end.  Both loops form J^T J with the same `_normal_matrix`, whose
product changes its bits with J's width and length.
`c_ordered_layers` keeps the row-major layer code as the reference for the
sample-minor z1, h, g and J of `forward` and `jacobian`.
"""

import numpy as np
import pytest

import modhtan.training as training
from modhtan.activations import AdaptiveOffset, Elu, FixedOffset, Htan, ModHtan, SoftStep, activate
from modhtan.datasets import gen_quadratic
from modhtan.network import (
    MlpModel,
    StallError,
    forward,
    jacobian,
    n_params,
    nguyen_widrow_init,
    with_params,
)
from modhtan.training import LmConfig, TrainHistory, _normal_matrix, mse, train_lm


def oracle_train_lm(model, X, T, cfg=LmConfig(), forward=forward):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    T = np.atleast_2d(np.asarray(T, dtype=float))
    history = TrainHistory()
    theta = model.theta.copy()
    mu = cfg.mu0
    identity = np.eye(n_params(model))
    try:
        _, cache = forward(model, X)
        loss = mse(cache.y, T)
        if not np.isfinite(loss):
            raise StallError("training loss is non-finite")
    except StallError as exc:
        history.stall_events.append((0, str(exc)))
        history.termination = "stall"
        return model, history
    workspace = cache
    J = damped = None
    for epoch in range(cfg.epochs):
        J, e = jacobian(model, X, T, cache, J)
        gradient = J.T @ e
        if np.linalg.norm(gradient) < training._GRAD_TOL:
            history.termination = "grad_tol"
            break
        normal = _normal_matrix(J, np.empty((J.shape[1],) * 2))
        accepted = False
        while True:
            damped = np.multiply(identity, mu, out=damped)
            damped += normal
            try:
                delta = np.linalg.solve(damped, -gradient)
            except np.linalg.LinAlgError:
                delta = None
            if delta is not None and np.isfinite(delta).all():
                candidate_theta = theta + delta
                candidate = with_params(model, candidate_theta)
                try:
                    _, candidate_cache = forward(candidate, X, workspace)
                    candidate_loss = mse(candidate_cache.y, T)
                except StallError:
                    candidate_loss = np.inf
                if np.isfinite(candidate_loss) and candidate_loss < loss:
                    theta, model, cache, loss = candidate_theta, candidate, candidate_cache, candidate_loss
                    mu = max(mu * cfg.mu_dec, training._MU_MIN)
                    accepted = True
                    break
            mu = mu * cfg.mu_inc
            if mu > cfg.mu_max:
                history.termination = "mu_max"
                break
        history.loss.append(loss)
        if not accepted:
            break
        history.mu.append(mu)
    return model, history


def _outcome(fitted, history):
    return (history.loss, history.mu, history.termination, history.stall_events, fitted.theta.tobytes())


def assert_matches_oracle(model, X, T, cfg):
    expected = _outcome(*oracle_train_lm(model, X, T, cfg))
    got = _outcome(*train_lm(model, X, T, cfg))
    assert got == expected
    return got


KINDS = {
    "softstep": SoftStep(),
    "htan": Htan(),
    "elu": Elu(),
    "modhtan-adaptive": ModHtan(offset_mode=AdaptiveOffset()),
    "modhtan-fixed": ModHtan(offset_mode=FixedOffset(2.0)),
    "modhtan-direct": ModHtan(euler_mode="direct"),
}


def _problem(shape, kind, seed):
    n_in, n_hidden, n_out = shape
    rng = np.random.default_rng(100 + seed)
    if n_in == 1 and n_out == 1:
        data = gen_quadratic(120)
        X, T = data.X, data.T
    else:
        X = rng.uniform(-1.0, 1.0, size=(90, n_in))
        T = np.stack([np.sin(2.0 * X[:, o % n_in]) * X[:, -1] for o in range(n_out)], axis=1)
    return nguyen_widrow_init(n_in, n_hidden, n_out, kind, seed=seed), X, T


SHAPES = {"13-2-1": (13, 2, 1), "1-2-1": (1, 2, 1), "1-50-1": (1, 50, 1), "3-4-2": (3, 4, 2)}


class TestOracleMatrix:
    @pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
    @pytest.mark.parametrize("kind", KINDS.values(), ids=KINDS.keys())
    def test_histories_and_parameters_bytewise(self, kind, shape):
        epochs = 8 if shape[1] == 50 else 40
        for seed in range(3):
            model, X, T = _problem(shape, kind, seed)
            assert_matches_oracle(model, X, T, LmConfig(epochs=epochs))

    @pytest.mark.parametrize("kind", [Htan(), KINDS["modhtan-adaptive"]], ids=["htan", "modhtan-adaptive"])
    def test_synthetic_set_size(self, kind):
        # N = 5000, P = 7: the shape where J^T J goes to gemm and its bits
        # differ from numpy's J.T @ J
        data = gen_quadratic(5000)
        for seed in range(2):
            model = nguyen_widrow_init(1, 2, 1, kind, seed=seed)
            assert_matches_oracle(model, data.X, data.T, LmConfig(epochs=60))


def c_ordered_layers(model, X):
    """z1, h, g and J as the C-ordered forward and jacobian computed them:
    the same products and sums, into row-major arrays."""
    if model.n_in == 1:
        z1 = np.multiply(X, model.W1.T)
        z1 += model.b1 + 0.0
    else:
        z1 = np.matmul(X, model.W1.T) + model.b1
    h, g, _ = activate(model.hidden_kind, z1)
    samples, n_out, n_hidden = len(X), model.n_out, model.n_hidden
    rows = np.zeros((samples, n_out, n_params(model)))
    b1_at = n_hidden * model.n_in
    w2_at = b1_at + n_hidden
    d_b1 = rows[:, :, b1_at:w2_at]
    np.multiply(model.W2, g[:, None, :], d_b1)
    d_w1 = rows[:, :, :b1_at].reshape(samples, n_out, n_hidden, -1)
    np.multiply(d_b1[:, :, :, None], X[:, None, None, :], d_w1)
    for o in range(n_out):
        rows[:, o, w2_at + o * n_hidden:w2_at + (o + 1) * n_hidden] = h
        rows[:, o, w2_at + n_out * n_hidden + o] = 1.0
    return z1, h, g, rows.reshape(samples * n_out, -1)


class TestSampleMinorLayers:
    """forward and jacobian store z1, h, g and J sample-minor; each entry
    keeps the bytes of the C-ordered layers."""

    @pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
    @pytest.mark.parametrize("kind", KINDS.values(), ids=KINDS.keys())
    def test_layers_bytewise_equal_the_c_ordered_forms(self, kind, shape):
        model, X, T = _problem(shape, kind, 0)
        _, cache = forward(model, X)
        J, _ = jacobian(model, X, T, cache)
        for name, got, expected in zip(("z1", "h", "g", "J"), (cache.z1, cache.h, cache.g, J),
                                       c_ordered_layers(model, X)):
            assert got.flags.f_contiguous and expected.flags.c_contiguous, name
            assert got.tobytes() == expected.tobytes(), name


class TestEpochEndings:
    """Each way an epoch or a fit ends, forced and compared with the oracle."""

    def test_mu_max_drops_the_second_solution(self):
        # mu0 * mu_inc is already past mu_max, so the first rejection ends the
        # fit without a second solve
        model, X, T = _problem((13, 2, 1), Htan(), 0)
        loss, mu, termination, *_ = assert_matches_oracle(model, X, T, LmConfig(mu_max=5e-3, epochs=200))
        assert termination == "mu_max"
        assert len(loss) == 1 and mu == []

    def test_first_candidate_accepted(self):
        # an epoch that ends at mu * mu_dec took its first candidate, the one
        # solve at mu
        model, X, T = _problem((1, 2, 1), Htan(), 0)
        cfg = LmConfig(epochs=40)
        _, mu, *_ = assert_matches_oracle(model, X, T, cfg)
        assert any(after == before * cfg.mu_dec for before, after in zip(mu, mu[1:]))

    def test_accepted_streak_stops_at_the_mu_floor(self):
        # each acceptance divides mu by 1e9, so from mu0 = 1e-3 the third
        # accepted epoch would take mu below _MU_MIN
        model, X, T = _problem((1, 50, 1), KINDS["modhtan-adaptive"], 1)
        _, mu, *_ = assert_matches_oracle(model, X, T, LmConfig(mu_dec=1e-9, epochs=10))
        assert min(mu) == training._MU_MIN
        assert mu.count(training._MU_MIN) > 1

    def test_singular_damped_matrix_grows_mu(self):
        # two identical hidden units give J two equal columns; a damping far
        # below the ulp of J^T J leaves the damped matrix exactly singular
        model = MlpModel(1, 2, 1, [0.8, 0.8, 0.1, 0.1, 0.4, 0.4, 0.0], Htan())  # W1, b1, W2, b2
        data = gen_quadratic(50)
        cfg = LmConfig(mu0=1e-30, epochs=20)
        _, cache = forward(model, data.X)
        J, _ = jacobian(model, data.X, data.T, cache)
        damped = J.T @ J + cfg.mu0 * np.eye(n_params(model))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(damped, np.ones(n_params(model)))
        _, mu, *_ = assert_matches_oracle(model, data.X, data.T, cfg)
        assert mu and mu[0] > 1e3 * cfg.mu0  # the singular levels were rejected

    @pytest.mark.parametrize("shape", [(13, 2, 1), (1, 50, 1)], ids=["13-2-1", "1-50-1"])
    @pytest.mark.parametrize("kind", [KINDS["htan"], KINDS["modhtan-adaptive"]], ids=["htan", "modhtan-adaptive"])
    def test_many_rejections_per_epoch_on_the_syrk_path(self, monkeypatch, kind, shape):
        # mu_inc = 2 rejects several candidates per epoch; each one's damped
        # diagonal must be J^T J's plus that candidate's mu alone
        calls = []

        def counting(model, X, out=None):
            calls.append(None)
            return forward(model, X, out)

        model, X, T = _problem(shape, kind, 0)
        assert n_params(model) >= training._SYRK_MIN_PARAMS
        cfg = LmConfig(mu_inc=2.0, epochs=15)
        expected = _outcome(*oracle_train_lm(model, X, T, cfg))
        monkeypatch.setattr(training, "forward", counting)
        loss, *_ = got = _outcome(*train_lm(model, X, T, cfg))
        assert got == expected
        assert len(loss) == cfg.epochs
        assert len(calls) - 1 > 3 * len(loss)  # candidates: every forward after the fit's first

    def test_overflowing_second_level_is_dropped_quietly(self):
        # mu0 * mu_inc overflows to inf, past the finite mu_max: a rejection
        # ends the fit before inf * 0 is formed, so no warning leaks
        model, X, T = _problem((13, 2, 1), Htan(), 0)
        cfg = LmConfig(mu0=1e9, mu_inc=1e300, mu_max=1e10, epochs=3)
        loss, *_ = assert_matches_oracle(model, X, T, cfg)
        assert len(loss) == 3

    @pytest.mark.parametrize("target", [np.inf, np.nan], ids=["overflow", "nan"])
    def test_non_finite_start_is_a_stall(self, target):
        # the oracle applies train_lm's starting rule: a non-finite first loss
        # stalls the fit before its first Jacobian
        model, X, T = _problem((3, 4, 2), Htan(), 0)
        T = T.copy()
        T[5, 1] = target
        loss, mu, termination, events, _ = assert_matches_oracle(model, X, T, LmConfig(epochs=10))
        assert (loss, mu, termination, events) == ([], [], "stall", [(0, "training loss is non-finite")])

    @pytest.mark.parametrize("stalls", [(1,), (1, 2), (3, 6)], ids=["first", "pair", "later"])
    def test_stalled_candidate_is_rejected(self, monkeypatch, stalls):
        def stalling():
            calls = []

            def fake(model, X, out=None):
                calls.append(None)
                if len(calls) - 1 in stalls:  # call 0 is the fit's first forward
                    raise StallError("hidden pre-activations contain non-finite values")
                return forward(model, X, out)

            return fake, calls

        model, X, T = _problem((13, 2, 1), Htan(), 1)
        cfg = LmConfig(epochs=10)
        oracle_forward, oracle_calls = stalling()
        expected = _outcome(*oracle_train_lm(model, X, T, cfg, forward=oracle_forward))
        patched, calls = stalling()
        monkeypatch.setattr(training, "forward", patched)
        assert _outcome(*train_lm(model, X, T, cfg)) == expected
        assert len(calls) == len(oracle_calls) > max(stalls)


class TestParameterSlots:
    def test_caller_model_untouched_and_result_owns_its_parameters(self):
        model, X, T = _problem((3, 4, 2), ModHtan(), 2)
        before = {name: getattr(model, name).copy() for name in ("W1", "b1", "W2", "b2")}
        fitted, history = train_lm(model, X, T, LmConfig(epochs=15))
        assert len(history.mu) > 1
        for name, values in before.items():
            assert getattr(model, name).tobytes() == values.tobytes()
            assert not np.shares_memory(getattr(fitted, name), getattr(model, name))
        # one P-vector of its own, not a view of a larger buffer
        assert fitted.b1.base.shape == (n_params(model),)
        snapshot = fitted.theta.tobytes()
        train_lm(fitted, X, T, LmConfig(epochs=5))
        assert fitted.theta.tobytes() == snapshot

    @pytest.mark.parametrize("epochs", [1, 40])
    def test_two_models_per_fit_whatever_the_candidate_count(self, monkeypatch, epochs):
        def counting(calls, fn):
            def wrapped(*args, **kwargs):
                calls.append(None)
                return fn(*args, **kwargs)

            return wrapped

        built, forwards = [], []
        monkeypatch.setattr(training, "with_params", counting(built, with_params))
        monkeypatch.setattr(training, "forward", counting(forwards, forward))
        # the default schedule rejects about one candidate per epoch here
        model, X, T = _problem((1, 2, 1), Htan(), 0)
        _, history = train_lm(model, X, T, LmConfig(epochs=epochs))
        assert len(history.mu) == epochs
        assert len(forwards) - 1 > epochs  # candidates: every forward after the fit's first
        assert len(built) == 2

    def test_no_accepted_step_returns_the_callers_model(self):
        X = np.array([[0.0], [1.0]])
        T = np.zeros((2, 1))
        model = MlpModel(1, 1, 1, np.zeros(4), Htan())
        fitted, history = train_lm(model, X, T, LmConfig(epochs=10))
        assert history.termination == "grad_tol"
        assert fitted is model

