"""Full-batch trainers: gradient descent with momentum and Levenberg-Marquardt.

Both trainers minimize half the mean squared error per output entry, record a
per-epoch loss and wall-time history, and stop by one rule: a stalled forward,
a non-finite loss or non-finite parameters is recorded as one stall event.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .network import MlpModel, StallError, forward, jacobian, with_params


_MU_MIN = 1e-20  # floor of an accepted step's decayed mu: from 0, mu * mu_inc would never grow
_GRAD_TOL = 1e-12  # a gradient norm below this ends an LM fit
_MAX_CANDIDATES = 1000  # most candidates LmConfig lets one epoch try before mu passes mu_max
_SYRK_MIN_PARAMS = 16  # numpy sends J.T @ J to BLAS syrk; below this width a gemm against a copy is faster


@dataclass(frozen=True)
class GdmConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    epochs: int = 500

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass(frozen=True)
class LmConfig:
    mu0: float = 1e-3
    mu_inc: float = 10.0
    mu_dec: float = 0.1
    mu_max: float = 1e10
    epochs: int = 500

    def __post_init__(self):
        if not self.mu0 > 0:
            raise ValueError("mu0 must be positive")
        if not 1 < self.mu_inc < np.inf:
            raise ValueError("mu_inc must be finite and > 1")
        if not 0 < self.mu_dec < 1:
            raise ValueError("mu_dec must be in (0, 1)")
        if not self.mu0 < self.mu_max < np.inf:  # an overflowed mu then ends the fit before a solve
            raise ValueError("mu_max must be finite and exceed mu0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        # candidates one epoch can try: the mu levels from its lowest start up to mu_max (31 at the defaults)
        bound = 1 + int(np.ceil((np.log(self.mu_max) - np.log(min(self.mu0, _MU_MIN))) / np.log(self.mu_inc)))
        if bound > _MAX_CANDIDATES:
            raise ValueError(f"mu_inc {self.mu_inc!r} lets an epoch try {bound} candidates, over {_MAX_CANDIDATES}")


@dataclass
class TrainHistory:
    loss: list[float] = field(default_factory=list)
    epoch_time_s: list[float] = field(default_factory=list)
    stall_events: list[tuple[int, str]] = field(default_factory=list)
    mu: list[float] = field(default_factory=list)  # damping after each accepted LM epoch
    termination: str = "epochs"  # "epochs", "stall"; LM also "mu_max" or "grad_tol"


def mse(Y, T) -> float:
    """Mean of (y - t)**2 over all entries."""
    Y = np.asarray(Y, dtype=float)
    T = np.asarray(T, dtype=float)
    with np.errstate(over="ignore"):  # diverging models report inf, not a warning
        d = Y - T
        d *= d
        return float(np.add.reduce(d, axis=None) / d.size)  # np.mean's sum and divide


def classification_accuracy(Y, labels) -> float:
    """Percent of scores on the right side of 0.5 against 0/1 labels."""
    Y = np.asarray(Y, dtype=float).ravel()
    labels = np.asarray(labels, dtype=float).ravel()
    if Y.size == 0:
        raise ValueError("accuracy of an empty prediction set is undefined")
    predicted = (Y >= 0.5).astype(float)
    return float(100.0 * np.mean(predicted == labels))


def train_gdm(model: MlpModel, X, T, cfg: GdmConfig = GdmConfig()) -> tuple[MlpModel, TrainHistory]:
    """Full-batch gradient descent with momentum.

    Update: v <- momentum * v - lr * grad; theta <- theta + v, with grad =
    J^T e / e.size from the per-fit Jacobian J, for cfg.epochs epochs unless a
    stall ends the fit: a stalled forward, a non-finite loss or parameters.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    T = np.atleast_2d(np.asarray(T, dtype=float))
    history = TrainHistory()
    model = with_params(model, model.theta.copy())  # the fit's own theta, updated in place
    velocity = np.zeros_like(model.theta)
    J = cache = None  # per-fit buffers: every forward after the first writes into the first cache
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        try:
            _, cache = forward(model, X, cache)
            history.loss.append(mse(cache.y, T))
            if not np.isfinite(history.loss[-1]):
                raise StallError("training loss is non-finite")
            J, e = jacobian(model, X, T, cache, J)
            grad = J.T @ e / e.size
            with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is the stall below
                velocity = cfg.momentum * velocity - cfg.learning_rate * grad
                model.theta += velocity
            if not np.isfinite(model.theta).all():
                raise StallError("parameters contain non-finite values")
        except StallError as exc:
            history.stall_events.append((epoch, str(exc)))
            history.termination = "stall"
            break
        finally:
            if len(history.epoch_time_s) < len(history.loss):  # a stalled forward records neither
                history.epoch_time_s.append(time.perf_counter() - t0)
    return model, history


def train_lm(model: MlpModel, X, T, cfg: LmConfig = LmConfig()) -> tuple[MlpModel, TrainHistory]:
    """Levenberg-Marquardt with adaptive damping.

    Per epoch, solve (J^T J + mu I) delta = -J^T e and try the step.  A
    candidate is rejected in one place: its loss stays inf unless the solve,
    the finite-step check and the forward succeed, and a loss not below the
    current one grows mu by mu_inc (at most LmConfig's candidate bound per
    epoch); a lower one is accepted and shrinks mu by mu_dec, to _MU_MIN.
    Stalls follow train_gdm's rule, and the starting loss is checked too.
    history.termination is "epochs", "mu_max", "grad_tol" (|J^T e| <
    _GRAD_TOL) or "stall".  Dense: up to a few thousand parameters.  The
    caller's model is returned when no step was accepted, and never written.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    T = np.atleast_2d(np.asarray(T, dtype=float))
    history = TrainHistory()
    mu = cfg.mu0
    P = model.theta.size
    try:
        _, workspace = forward(model, X)
        loss = mse(workspace.y, T)
        if not np.isfinite(loss):  # every later loss is below it, so finite too
            raise StallError("training loss is non-finite")
    except StallError as exc:
        history.stall_events.append((0, str(exc)))
        history.termination = "stall"
        return model, history
    # Per-fit buffers.  Every candidate forward writes into the workspace's
    # arrays and replaces the workspace with the cache it returns, so at the
    # top of an epoch it holds the current model's forward, offset_1 too: the
    # accepted candidate's was the last one written.  A step is written
    # into candidate's theta, and accepting it swaps candidate and current.
    # normal holds J^T J, and before each solve its diagonal is rewritten as
    # J^T J's diagonal plus mu; np.linalg.solve never writes its operand.
    current = with_params(model, model.theta.copy())
    candidate = with_params(model, np.empty(P))
    J, normal = None, np.empty((P, P))
    diagonal = normal.reshape(-1)[:: P + 1]  # a view; normal.flat[...] would copy
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        J, e = jacobian(current, X, T, workspace, J)
        gradient = J.T @ e
        if np.linalg.norm(gradient) < _GRAD_TOL:
            history.termination = "grad_tol"
            break
        _normal_matrix(J, normal)
        jtj_diagonal = diagonal.copy()
        rhs = -gradient
        while True:
            np.add(jtj_diagonal, mu, out=diagonal)
            candidate_loss = np.inf  # unless the solve, the step and the forward all succeed
            try:
                delta = np.linalg.solve(normal, rhs)
                if np.isfinite(delta).all():
                    np.add(current.theta, delta, out=candidate.theta)
                    _, workspace = forward(candidate, X, workspace)
                    candidate_loss = mse(workspace.y, T)
            except (np.linalg.LinAlgError, StallError):  # a singular level or a stalled forward
                pass
            if candidate_loss < loss:
                current, candidate, loss = candidate, current, candidate_loss
                mu = max(mu * cfg.mu_dec, _MU_MIN)
                break
            mu = mu * cfg.mu_inc
            if mu > cfg.mu_max:
                history.termination = "mu_max"
                break
        history.loss.append(loss)
        history.epoch_time_s.append(time.perf_counter() - t0)
        if history.termination == "mu_max":
            break
        history.mu.append(mu)
    return (current if history.mu else model), history


def _normal_matrix(J, out):
    """J^T J into out, by gemm against a copy of J in J's own layout below
    _SYRK_MIN_PARAMS columns; the two products differ in their last bits."""
    if J.shape[1] >= _SYRK_MIN_PARAMS:
        return np.matmul(J.T, J, out=out)
    return np.matmul(J.T, np.copy(J), out=out)


def history_to_csv(history: TrainHistory, path) -> None:
    """Training curve as CSV with columns epoch,loss,epoch_time_s."""
    lines = ["epoch,loss,epoch_time_s"]
    for epoch, (loss, dt) in enumerate(zip(history.loss, history.epoch_time_s)):
        lines.append(f"{epoch},{loss!r},{dt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
