"""One-hidden-layer feed-forward network with one linear output unit.

A model holds one parameter vector theta; W1, b1, W2 and b2 are views of it,
in that order with W1 row-major, as are J's columns.  The Jacobian is the
network's only derivative: the training loss is half the mean squared error
over the samples, so its gradient is J^T e / e.size.

Per-sample arrays are sample-minor (F-ordered): z1, h, g and J keep their
[sample, unit] and [sample, parameter] indexing, with each hidden unit's and
each parameter's column one contiguous run.  The outputs y stay C-ordered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .activations import ActivationKind, activate


class StallError(RuntimeError):
    """A forward pass produced non-finite intermediates."""


@dataclass
class MlpModel:
    n_in: int
    n_hidden: int
    theta: np.ndarray  # every parameter; a float64 array is held, not copied
    hidden_kind: ActivationKind
    W1: np.ndarray = field(init=False)  # n_hidden x n_in
    b1: np.ndarray = field(init=False)  # n_hidden
    W2: np.ndarray = field(init=False)  # 1 x n_hidden
    b2: np.ndarray = field(init=False)  # 1

    def __post_init__(self):
        shapes = _shapes(self.n_in, self.n_hidden)
        starts = np.cumsum([0] + [math.prod(shape) for shape in shapes.values()]).tolist()
        self.theta = np.asarray(self.theta, dtype=float)
        if self.theta.shape != (starts[-1],):
            raise ValueError(f"theta must have shape ({starts[-1]},), got {self.theta.shape}")
        for name, shape, start, end in zip(shapes, shapes.values(), starts, starts[1:]):
            setattr(self, name, self.theta[start:end].reshape(shape))  # a view


def _shapes(n_in: int, n_hidden: int) -> dict[str, tuple[int, ...]]:
    """The parameter layout: theta's arrays in order, each row-major; a dimension below 1 is a ValueError."""
    for name, value in (("n_in", n_in), ("n_hidden", n_hidden)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    return {"W1": (n_hidden, n_in), "b1": (n_hidden,), "W2": (1, n_hidden), "b2": (1,)}


@dataclass
class ForwardCache:
    z1: np.ndarray        # hidden pre-activations, samples x n_hidden, F-ordered
    h: np.ndarray         # hidden activations, laid out as z1
    g: np.ndarray         # hidden gradients (elementwise, at z1), laid out as z1
    y: np.ndarray         # outputs, samples x 1, C-ordered
    offset_1: float | None  # modhtan offset used for this batch, else None


def n_params(model: MlpModel) -> int:
    return model.theta.size


def with_params(model: MlpModel, theta: np.ndarray) -> MlpModel:
    """Model of model's shape and kind whose weight arrays are views of theta."""
    return MlpModel(model.n_in, model.n_hidden, theta, model.hidden_kind)


def nguyen_widrow_init(n_in: int, n_hidden: int, hidden_kind: ActivationKind, seed: int) -> MlpModel:
    """Layer initialization that spreads hidden units over the input range.

    Hidden weights are drawn uniform in [-1, 1] and each unit's row is
    rescaled to norm beta = 0.7 * n_hidden**(1/n_in); hidden biases are
    uniform in [-beta, beta].  The linear output layer is uniform in
    [-0.5, 0.5].  Deterministic for a given seed.
    """
    _shapes(n_in, n_hidden)  # rejects a dimension below 1
    rng = np.random.default_rng(seed)
    beta = 0.7 * n_hidden ** (1.0 / n_in)
    W1 = rng.uniform(-1.0, 1.0, size=(n_hidden, n_in))
    W1 = beta * W1 / np.linalg.norm(W1, axis=1, keepdims=True)
    b1 = rng.uniform(-beta, beta, size=n_hidden)
    W2 = rng.uniform(-0.5, 0.5, size=(1, n_hidden))
    b2 = rng.uniform(-0.5, 0.5, size=1)
    return MlpModel(n_in, n_hidden, np.concatenate([W1.ravel(), b1, W2.ravel(), b2]), hidden_kind)


def forward(model: MlpModel, X, out: ForwardCache | None = None) -> tuple[np.ndarray, ForwardCache]:
    """Batch forward pass; raises StallError on non-finite intermediates.

    out, when given, is a workspace: a ForwardCache of the same model shape
    and sample count whose arrays receive z1, h, g and y in place of fresh
    ones.  The returned cache then shares those arrays, so the next forward
    into the same workspace overwrites it.  A workspace left half-written by
    a StallError can be passed again.  Fresh z1, h and g are F-ordered, a
    fresh y is C-ordered.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.n_in:
        raise ValueError(f"expected {model.n_in} input columns, got {X.shape[1]}")
    z1, h, g, y = (None,) * 4 if out is None else (out.z1, out.h, out.g, out.y)
    if z1 is None:
        z1 = np.empty((len(X), model.n_hidden), order="F")  # h and g follow through empty_like
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite turns into StallError
        if model.n_in == 1:
            # a broadcast product beats numpy's one-column gemm; b1 + 0.0 (never
            # -0.0) sums its -0.0 products to gemm's +0.0, bit for bit
            z1, b1 = np.multiply(X, model.W1.T, z1), model.b1 + 0.0
        else:
            z1, b1 = np.matmul(X, model.W1.T, out=z1), model.b1
        np.add(z1, b1, z1)
        if not np.isfinite(z1).all():
            raise StallError("hidden pre-activations contain non-finite values")
        h, g, offset = activate(model.hidden_kind, z1, None if out is None else (h, g))
        y = np.matmul(h, model.W2.T, out=y)
        np.add(y, model.b2, y)
    if not np.isfinite(y).all():
        raise StallError("outputs contain non-finite values")
    return y, ForwardCache(z1=z1, h=h, g=g, y=y, offset_1=offset)


def jacobian(model: MlpModel, X, T, cache: ForwardCache, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Residual Jacobian J and residual vector e = (y - t) flattened.

    X and T are the 2-D float arrays the cache was computed from.  J has one
    row per sample and one column per parameter in theta's order; J^T e /
    e.size is the training loss's gradient.  J is F-ordered, each column
    contiguous.  out, when given, is a J from an earlier call for the same
    model shape and sample count: its b2 column of ones is kept, the rest
    rewritten.
    """
    b1_at, w2_at = model.W1.size, model.W1.size + model.n_hidden
    shape = (X.shape[0], model.theta.size)
    J = out
    if J is None:
        J = np.empty(shape, order="F")
        J[:, -1] = 1.0  # d y / d b2
    elif J.shape != shape or not J.flags.f_contiguous:
        raise ValueError(f"out must be an F-contiguous array of shape {shape}")
    # d y / d b1_h = W2[0, h] * g[s, h]; d y / d W1[h, i] = that times X[s, i]
    d_b1 = np.multiply(model.W2, cache.g, J[:, b1_at:w2_at])
    d_w1 = J[:, :b1_at].reshape(X.shape[0], model.n_hidden, model.n_in)  # a view: J is F-ordered
    np.multiply(d_b1[:, :, None], X[:, None, :], d_w1)
    np.positive(cache.h, J[:, w2_at:-1])  # d y / d W2[0, h] = h[s, h], a copy
    e = (cache.y - T).ravel()
    return J, e
