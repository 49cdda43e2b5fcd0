"""Activation functions and their gradients.

Four squashing units: the logistic soft-step, the hyperbolic tangent (htan),
the exponential linear unit (elu), and modhtan, by default tanh(x_norm * ln E)
of the normalized input x_norm = x / (x + offset_1), E being a cached
rational-power approximation of e.  activate computes the values and
gradients of any of them over a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Union

import numpy as np

from .rnf import euler_constant, rnf_exp

# The adaptive offset (1 + _DELTA) * max|x| + _KAPPA: headroom factor and floor
_DELTA = 0.05
_KAPPA = 1e-6


EULER_MODES = ("constant", "direct")


@dataclass(frozen=True)
class SoftStep:
    name: ClassVar[str] = "softstep"


@dataclass(frozen=True)
class Htan:
    name: ClassVar[str] = "htan"


@dataclass(frozen=True)
class Elu:
    name: ClassVar[str] = "elu"


@dataclass(frozen=True)
class ModHtan:
    """The normalized hyperbolic tangent and its configuration.

    fixed_offset, set in code only (no flag builds one), replaces the
    per-batch adaptive offset_1; it must be positive and finite.
    euler_mode picks between the tanh form with the cached Euler
    approximation's log as slope ("constant") and evaluating the
    rational-power formula per input ("direct").
    """

    fixed_offset: float | None = None
    euler_mode: str = "constant"
    name: ClassVar[str] = "modhtan"

    def __post_init__(self):
        if self.fixed_offset is not None and not 0 < self.fixed_offset < math.inf:
            raise ValueError(f"fixed offset_1 must be positive and finite, got {self.fixed_offset}")
        if self.euler_mode not in EULER_MODES:
            raise ValueError(f"euler_mode must be one of {EULER_MODES}, got {self.euler_mode!r}")


ActivationKind = Union[SoftStep, Htan, Elu, ModHtan]

KINDS = {cls.name: cls for cls in (SoftStep, Htan, Elu, ModHtan)}
ACTIVATION_NAMES = tuple(KINDS)


# Each kernel writes its values to v and their gradients to g through ufunc
# out= arguments, so that a caller holding buffers (network.forward with a
# workspace) allocates nothing; g may serve as scratch before the gradients
# land there.  Their results match the expression forms in
# tests/test_kernels.py bit for bit, except htan and constant-mode modhtan:
# tanh forms, held to accuracy.


def soft_step(xs, v, g):
    """Logistic sigmoid f = 1 / (1 + exp(-x)), saturating at 0 and 1; g = (1 - f) * f.

    Computed as exp(min(x, 0)) / (1 + exp(-|x|)): for x >= 0 the numerator
    is exactly 1 and for x < 0 it is exp(-|x|), so neither exp overflows.
    """
    np.abs(xs, g)
    np.negative(g, g)
    np.exp(g, g)
    np.add(g, 1.0, g)
    np.minimum(xs, 0.0, out=v)
    np.exp(v, v)
    np.divide(v, g, v)
    np.subtract(1.0, v, g)
    np.multiply(g, v, g)


def htan(xs, v, g):
    """Hyperbolic tangent f = 2 / (1 + exp(-2x)) - 1 = tanh(x), saturating at -1 and 1; g = 1 - f**2.

    One np.tanh pass; exactly odd, so x = -0.0 maps to -0.0.
    """
    np.tanh(xs, v)
    np.multiply(v, v, g)
    np.subtract(1.0, g, g)


def elu(xs, v, g):
    """f = x for x > 0, exp(x) - 1 for x <= 0; g = 1 for x > 0, f + 1
    for x <= 0, vanishing as f -> -1.

    Computed without a mask as expm1(min(x, 0)) + max(x, -0.0): for
    x > 0 that is 0.0 + x, and for x <= 0 the negative branch plus -0.0,
    which leaves every value, -0.0 included, unchanged.  g is min(f + 1, 1):
    f + 1 is at least 1 for x > 0 and at most 1 for x <= 0.
    """
    np.minimum(xs, 0.0, out=v)
    np.expm1(v, v)
    np.maximum(xs, -0.0, out=g)
    np.add(v, g, v)
    np.add(v, 1.0, g)
    np.minimum(g, 1.0, out=g)


def adaptive_offset(lo, hi) -> float:
    """(1 + _DELTA) * max|x| + _KAPPA over a batch with minimum lo and maximum hi.

    Exceeds every |x| in the batch, so x + offset > 0 and the normalized
    input keeps the sign of x.
    """
    if lo > hi:  # an empty batch's reductions return their initial values
        raise ValueError("adaptive offset needs a non-empty batch")
    if not (math.isfinite(hi) and math.isfinite(lo)):  # NaN or infinite when some entry is
        raise ValueError("adaptive offset needs finite batch entries")
    # Python float arithmetic: an inf offset near float max is handled downstream
    return (1.0 + _DELTA) * float(max(hi, -lo)) + _KAPPA


def _normalized_input(xs, kind: ModHtan, x_norm, scratch) -> float:
    """Write the normalized input x / (x + offset) of xs to x_norm; return offset_1.

    offset is the batch's adaptive offset_1, or kind's fixed offset_1 floored,
    entry by entry, by that entry's own adaptive offset (1 + _DELTA) * |x| +
    _KAPPA, held in scratch.  Either way each x + offset is at least
    _DELTA * |x| + _KAPPA, so x_norm has the sign of x and lies in
    (-1/_DELTA, 1/(2 + _DELTA)).  A denominator that overflows (both addends
    huge and positive) is rewritten as 1 / (1 + offset / x).  Where the offset
    itself overflowed (past |x| ~ 1.712e308), offset / x is taken as
    (1 + _DELTA) * (m / x) + _KAPPA / x, m being the batch's max|x| for the
    adaptive offset or the entry's own |x| for a floor.
    """
    lo, hi = xs.min(initial=np.inf), xs.max(initial=-np.inf)  # the one pass over the batch for both
    # an offset overflows to inf past |x| ~ 1.7e308; an infinite entry (a fixed offset lets it in) gives NaN,
    # and an x = 0 in an overflowed batch divides its m by zero, to x_norm = 1 / (1 + inf) = 0 with x's sign
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if kind.fixed_offset is None:
            offset_1 = offset = offset_hi = adaptive_offset(lo, hi)
        else:  # the floor never binds on a frozen adaptive offset: no entry's own offset exceeds the batch's
            offset_1 = kind.fixed_offset
            offset = np.add(np.multiply(np.abs(xs, scratch), 1.0 + _DELTA, scratch), _KAPPA, scratch)
            np.maximum(offset, offset_1, out=offset)
            offset_hi = max((1.0 + _DELTA) * max(hi, -lo) + _KAPPA, offset_1)  # as rounding is monotone
        den = np.add(xs, offset, x_norm)  # may overflow to inf for huge batches; handled below
        # no den overflowed when hi + offset_hi, at least den's max, is below inf; a NaN bound takes the rewrite
        overflowed = None if hi + offset_hi < np.inf else np.isinf(den)
        np.divide(xs, den, x_norm)
        if overflowed is not None and overflowed.any():
            safe = np.where(overflowed, xs, 1.0)
            ratio = offset / safe
            m = max(hi, -lo) if kind.fixed_offset is None else np.abs(safe)  # whose (1 + _DELTA) * m overflowed
            ratio = np.where(np.isinf(ratio), (1.0 + _DELTA) * (m / safe) + _KAPPA / safe, ratio)
            np.copyto(x_norm, 1.0 / (1.0 + ratio), where=overflowed)
    return offset_1


def modhtan(xs, kind: ModHtan, v, g) -> float:
    """f = 2 / (1 + E**(-2 * x_norm)) - 1 with x_norm = x / (x + offset_1); g = 1 - f**2.

    Returns offset_1, fixed or adaptive to this batch.  E is the cached
    rational-power approximation of e.  With c = ln E this is
    tanh(c * x_norm), the form "constant" mode computes: one np.tanh pass,
    accurate near f = 0, -0.0 kept.  "direct" mode evaluates the rational
    formula at -2 * x_norm, within (-1, 2 / _DELTA), per input.  Outputs
    stay above -1: rounding lands on -1 once x_norm passes ~-19, which would
    zero the 1 - f**2 gradient.  x_norm < 1/(2 + _DELTA) keeps them below
    tanh(c / (2 + _DELTA)) ~ 0.4525 in either mode, so no upper bound binds.
    """
    offset_1 = _normalized_input(xs, kind, v, g)
    if kind.euler_mode == "constant":
        np.multiply(v, math.log(euler_constant()), v)
        np.tanh(v, v)
    else:
        np.add(rnf_exp(np.multiply(v, -2.0, v)), 1.0, v)
        np.subtract(np.divide(2.0, v, v), 1.0, v)
    np.maximum(v, math.nextafter(-1.0, 0.0), out=v)
    # a surrogate, not the derivative of modhtan: 1 - f**2 leaves out the d(x_norm)/dx factor
    np.multiply(v, v, g)
    np.subtract(1.0, g, g)
    return offset_1


class BatchActivation(NamedTuple):
    values: np.ndarray
    grads: np.ndarray
    offset_1: float | None  # offset used by modhtan on this batch, else None


def activate(kind: ActivationKind, batch, out=None) -> BatchActivation:
    """Elementwise values and gradients over a batch.

    out, when given, is a (values, grads) pair of float arrays shaped like
    the batch; the results are written there instead of to fresh arrays.
    The result carries modhtan's offset_1, fixed or adaptive to this batch.
    """
    xs = np.asarray(batch, dtype=float)
    values, grads = (np.empty_like(xs), np.empty_like(xs)) if out is None else out
    offset = None
    if isinstance(kind, SoftStep):
        soft_step(xs, values, grads)
    elif isinstance(kind, Htan):
        htan(xs, values, grads)
    elif isinstance(kind, Elu):
        elu(xs, values, grads)
    elif isinstance(kind, ModHtan):
        offset = modhtan(xs, kind, values, grads)
    else:
        raise TypeError(f"unknown activation kind: {kind!r}")
    return BatchActivation(values, grads, offset)
