"""Full-batch trainers: gradient descent with momentum and Levenberg-Marquardt.

Both trainers minimize half the mean squared error per output entry, record a
per-epoch loss and wall-time history, and abort with a recorded stall event
when parameters or activations leave the finite range.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .network import (
    MlpModel,
    StallError,
    forward,
    jacobian,
    n_params,
    pack_params,
    with_params,
)


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
    grad_tol: float = 1e-12
    max_retries: int = 20  # damping increases allowed within one epoch

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


@dataclass
class TrainHistory:
    loss: list[float] = field(default_factory=list)
    epoch_time_s: list[float] = field(default_factory=list)
    stall_events: list[tuple[int, str]] = field(default_factory=list)
    mu: list[float] = field(default_factory=list)  # damping after each accepted LM epoch
    termination: str = "epochs"


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
    J^T e / e.size from the per-fit residual Jacobian J.  Runs exactly
    cfg.epochs epochs unless a stall aborts training early.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    T = np.atleast_2d(np.asarray(T, dtype=float))
    history = TrainHistory()
    theta = pack_params(model)
    velocity = np.zeros_like(theta)
    J = cache = None  # per-fit buffers: every forward after the first writes into the first cache
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        try:
            _, cache = forward(model, X, cache)
        except StallError as exc:
            history.stall_events.append((epoch, str(exc)))
            history.termination = "stall"
            break
        loss = mse(cache.y, T)
        history.loss.append(loss)
        if not np.isfinite(loss):
            history.epoch_time_s.append(time.perf_counter() - t0)
            history.stall_events.append((epoch, "training loss is non-finite"))
            history.termination = "stall"
            break
        J, e = jacobian(model, X, T, cache, J)
        grad = J.T @ e / e.size
        with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is the stall below
            velocity = cfg.momentum * velocity - cfg.learning_rate * grad
            theta = theta + velocity
        model = with_params(model, theta)
        history.epoch_time_s.append(time.perf_counter() - t0)
        if not np.isfinite(theta).all():
            history.stall_events.append((epoch, "parameters contain non-finite values"))
            history.termination = "stall"
            break
    return model, history


def train_lm(model: MlpModel, X, T, cfg: LmConfig = LmConfig()) -> tuple[MlpModel, TrainHistory]:
    """Levenberg-Marquardt with adaptive damping.

    Per epoch, solve (J^T J + mu I) delta = -J^T e and evaluate the step: an
    accepted step (loss strictly decreased) shrinks mu by mu_dec, a rejected
    one grows it by mu_inc and retries within the epoch.  Training stops at
    cfg.epochs, when mu exceeds mu_max, when the gradient norm drops below
    grad_tol, or after max_retries rejections in one epoch.  Intended for
    dense normal equations, i.e. up to a few thousand parameters.  The
    caller's model is never written; it is returned when no step was
    accepted, and otherwise the returned model owns its parameters.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    T = np.atleast_2d(np.asarray(T, dtype=float))
    history = TrainHistory()
    mu = cfg.mu0
    P = n_params(model)
    try:
        _, cache = forward(model, X)
    except StallError as exc:
        history.stall_events.append((0, str(exc)))
        history.termination = "stall"
        return model, history
    # Per-fit buffers.  Every candidate forward writes into the first cache's
    # arrays: the current cache is dead once the epoch's J is built, and an
    # accepted candidate's cache is the workspace itself.  The parameters
    # live in two slots, each with a model of views: a candidate is written
    # into the slot not in use, and accepting it swaps the index.
    workspace = cache
    slots = np.empty((2, P))
    slots[0] = pack_params(model)
    models = [with_params(model, slot) for slot in slots]
    cur = 0
    J = J_copy = normal = None
    damped = np.empty((P, P))
    loss = mse(cache.y, T)
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        J, e = jacobian(models[cur], X, T, cache, J)
        if J_copy is None:  # laid out as jacobian's J; never written when J^T J goes to syrk
            J_copy = np.empty_like(J)
        gradient = J.T @ e
        if np.linalg.norm(gradient) < cfg.grad_tol:
            history.termination = "grad_tol"
            break
        normal = _normal_matrix(J, J_copy, normal)
        rhs = -gradient
        accepted = False
        retries = 0
        while True:
            np.copyto(damped, normal)
            damped.flat[:: P + 1] += mu  # the diagonal
            try:
                delta = np.linalg.solve(damped, rhs)
            except np.linalg.LinAlgError:  # a singular level is a rejected step
                delta = None
            if delta is not None and np.isfinite(delta).all():
                other = 1 - cur
                np.add(slots[cur], delta, out=slots[other])
                try:
                    _, candidate_cache = forward(models[other], X, workspace)
                    candidate_loss = mse(candidate_cache.y, T)
                except StallError:
                    candidate_loss = np.inf
                if np.isfinite(candidate_loss) and candidate_loss < loss:
                    cur, cache, loss = other, candidate_cache, candidate_loss
                    mu = mu * cfg.mu_dec
                    accepted = True
                    break
            mu = mu * cfg.mu_inc
            retries += 1
            if mu > cfg.mu_max:
                history.termination = "mu_max"
                break
            if retries >= cfg.max_retries:
                history.termination = "no_improvement"
                break
        history.loss.append(loss)
        history.epoch_time_s.append(time.perf_counter() - t0)
        if not accepted:
            break
        history.mu.append(mu)
    if not history.mu:
        return model, history
    return with_params(model, slots[cur].copy()), history


_SYRK_MIN_PARAMS = 16  # numpy sends J.T @ J to BLAS syrk; below this width a gemm against a copy is faster


def _normal_matrix(J, J_copy, out):
    """J^T J into out, by gemm against J_copy (a buffer shaped like J) below
    _SYRK_MIN_PARAMS columns; the two products differ in their last bits."""
    if J.shape[1] >= _SYRK_MIN_PARAMS:
        return np.matmul(J.T, J, out=out)
    np.copyto(J_copy, J)
    return np.matmul(J.T, J_copy, out=out)


def history_to_csv(history: TrainHistory, path) -> None:
    """Training curve as CSV with columns epoch,loss,epoch_time_s."""
    lines = ["epoch,loss,epoch_time_s"]
    for epoch, (loss, dt) in enumerate(zip(history.loss, history.epoch_time_s)):
        lines.append(f"{epoch},{loss!r},{dt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
