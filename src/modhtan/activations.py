"""Activation functions and their gradients.

Four squashing units: the logistic soft-step, the hyperbolic tangent (htan),
the exponential linear unit (elu), and modhtan, by default tanh(x_norm * ln E)
of the normalized input x_norm = x / (x + offset_1), E being a cached
rational-power approximation of e.  activate computes the values and
gradients of any of them over a batch.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Mapping
from dataclasses import dataclass, fields
from typing import Any, ClassVar, NamedTuple, Union

import numpy as np

from .rnf import RnfParams, euler_constant, rnf_exp

_TINY = sys.float_info.min  # smallest normal double; below this the x + offset_1 denominator counts as singular
# Bound on |x_norm|.  Any bound from ~19 to ~354 gives the same output bytes: below ~19 it truncates
# the function before tanh rounds to +-1; past ~354.9, E**(2 * |x_norm|) overflows in direct mode.
_X_NORM_CLAMP = 50.0


@dataclass(frozen=True)
class FixedOffset:
    """Constant normalization offset; must be nonzero and finite."""

    offset_1: float

    def __post_init__(self):
        if self.offset_1 == 0 or not math.isfinite(self.offset_1):
            raise ValueError(f"fixed offset_1 must be nonzero and finite, got {self.offset_1}")


@dataclass(frozen=True)
class AdaptiveOffset:
    """Per-batch offset (1 + delta) * max|x| + kappa, always exceeding max|x|."""

    delta: float = 0.05
    kappa: float = 1e-6

    def __post_init__(self):
        if not 0 <= self.delta < math.inf:
            raise ValueError(f"delta must be >= 0 and finite, got {self.delta}")
        if not 0 < self.kappa < math.inf:
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")


EULER_MODES = ("constant", "direct")


@dataclass(frozen=True)
class SoftStep:
    name: ClassVar[str] = "softstep"


@dataclass(frozen=True)
class Htan:
    name: ClassVar[str] = "htan"


@dataclass(frozen=True)
class Elu:
    """Exponential linear unit; alpha scales its negative branch alpha * (exp(x) - 1)."""

    alpha: float = 1.0
    name: ClassVar[str] = "elu"

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")


@dataclass(frozen=True)
class ModHtan:
    """The normalized hyperbolic tangent and its configuration.

    euler_mode picks between the tanh form with the cached Euler
    approximation's log as slope ("constant") and evaluating the
    rational-power formula per input ("direct").
    """

    offset_mode: FixedOffset | AdaptiveOffset = AdaptiveOffset()
    rnf: RnfParams = RnfParams()
    euler_mode: str = "constant"
    name: ClassVar[str] = "modhtan"

    def __post_init__(self):
        if self.euler_mode not in EULER_MODES:
            raise ValueError(f"euler_mode must be one of {EULER_MODES}, got {self.euler_mode!r}")
        e = euler_constant(self.rnf)  # an RnfDomainError is a ValueError already
        if e <= 1:  # the base (a-1)/(a-2) may round to 1, and ln E = 0 flattens the curve
            raise ValueError(f"modhtan needs an Euler constant E > 1; {self.rnf} gives E = {e}")
        exact = self.rnf.a * math.log1p(1.0 / (self.rnf.a - 2.0))  # ln E before the base (a-1)/(a-2) rounds
        if abs(math.log(e) - exact) > 1e-3 * exact:
            raise ValueError(f"{self.rnf} rounds modhtan's ln E = {exact} to {math.log(e)}")


ActivationKind = Union[SoftStep, Htan, Elu, ModHtan]

KINDS = {cls.name: cls for cls in (SoftStep, Htan, Elu, ModHtan)}
ACTIVATION_NAMES = tuple(KINDS)


class Param(NamedTuple):
    """One activation parameter: its key, CLI flag and the dataclass field it fills.

    Numbers are parsed with `type`.  A `choices` field is given as the text
    that maps to its value; where that value is a class (the offset mode),
    the text selects which dataclass is built.
    """

    key: str
    flag: str
    owner: type
    field: str
    help: str
    type: Callable[[Any], Any] = float
    choices: Mapping[str, Any] | None = None

    def parse(self, text):
        try:
            return self.type(text) if self.choices is None else self.choices[text]
        except (KeyError, TypeError, ValueError):
            expected = f"one of {tuple(self.choices)}" if self.choices else self.type.__name__
            raise ValueError(f"{self.key}: expected {expected}, got {text!r}") from None

    @property
    def default(self) -> str | None:
        """The dataclass default as text: its repr, or the choice that maps to it; None for a field without one."""
        default = getattr(self.owner, self.field, None)  # dataclasses keep defaults on the class
        if default is None:
            return None
        if self.choices is None:
            return repr(default)
        return next(text for text, choice in self.choices.items() if choice in (default, type(default)))


# The one place activation parameters are declared: the CLI flags and their
# help defaults come from these rows, and kind_from_fields reads their keys.
PARAMS = (
    Param("elu_alpha", "alpha", Elu, "alpha", "elu scale"),
    Param("modhtan_offset_mode", "offset-mode", ModHtan, "offset_mode",
          "modhtan offset_1 source", choices={"adaptive": AdaptiveOffset, "fixed": FixedOffset}),
    Param("modhtan_offset_value", "offset", FixedOffset, "offset_1",
          "offset_1 when --offset-mode fixed"),
    Param("modhtan_offset_delta", "delta", AdaptiveOffset, "delta",
          "adaptive offset headroom factor"),
    Param("modhtan_offset_kappa", "kappa", AdaptiveOffset, "kappa", "adaptive offset floor"),
    Param("modhtan_euler_mode", "euler-mode", ModHtan, "euler_mode",
          "tanh with slope ln E of the cached Euler constant, or the rational formula per input",
          choices={mode: mode for mode in EULER_MODES}),
    Param("rnf_a", "rnf-a", RnfParams, "a", "rational-power exponent a", type=int),
)

_PARAM_AT = {(p.owner, p.field): p for p in PARAMS}


def kind_from_fields(values: Mapping[str, Any], label=lambda p: p.key) -> ActivationKind:
    """The kind values["hidden_kind"] names, its fields parsed from the rows of values keyed by Param.key.

    A row the kind needs that is missing from values, or does not parse, is
    a ValueError; label(param) names a missing row.  Other keys are ignored.
    """
    if "hidden_kind" not in values:
        raise ValueError("missing hidden_kind")
    if (name := values["hidden_kind"]) not in KINDS:
        raise ValueError(f"hidden_kind: expected one of {ACTIVATION_NAMES}, got {name!r}")
    return _build(KINDS[name], values, label)


def _build(cls: type, values: Mapping[str, Any], label):
    kwargs = {}
    for f in fields(cls):
        p = _PARAM_AT.get((cls, f.name))
        if p is None:  # a nested parameter group such as ModHtan.rnf
            value = type(f.default)
        elif p.key not in values:
            raise ValueError(f"missing {label(p)}")
        else:
            value = p.parse(values[p.key])
        kwargs[f.name] = _build(value, values, label) if isinstance(value, type) else value
    return cls(**kwargs)


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


def elu(xs, kind: Elu, v, g):
    """f = x for x > 0, alpha * (exp(x) - 1) for x <= 0; g = 1 for x > 0, f + alpha
    for x <= 0, vanishing as f -> -alpha.

    Computed without a mask as alpha * expm1(min(x, 0)) + max(x, -0.0): for
    x > 0 that is 0.0 + x, and for x <= 0 the negative branch plus -0.0,
    which leaves every value, -0.0 included, unchanged.
    """
    np.minimum(xs, 0.0, out=v)
    np.expm1(v, v)
    np.multiply(v, kind.alpha, v)
    np.maximum(xs, -0.0, out=g)
    np.add(v, g, v)
    np.add(v, kind.alpha, g)
    # putmask copies an array that is not C-contiguous; g.T is, for a sample-minor g or a 1-D grid
    np.putmask(g.T, xs.T > 0, 1.0)


def adaptive_offset(lo, hi, mode: AdaptiveOffset) -> float:
    """(1 + delta) * max|x| + kappa over a batch with minimum lo and maximum hi.

    Exceeds every |x| in the batch, so x + offset > 0 and the normalized
    input keeps the sign of x.
    """
    if lo > hi:  # an empty batch's reductions return their initial values
        raise ValueError("adaptive offset needs a non-empty batch")
    if not (math.isfinite(hi) and math.isfinite(lo)):  # NaN or infinite when some entry is
        raise ValueError("adaptive offset needs finite batch entries")
    # Python float arithmetic: an inf offset near float max is handled downstream
    return (1.0 + mode.delta) * float(max(hi, -lo)) + mode.kappa


def _normalized_input(xs, x_lo, x_hi, offset_1, clamp, x_norm):
    """The normalized input x / (x + offset_1) of xs, whose minimum and maximum are
    x_lo and x_hi, clamped to [-clamp, clamp], written to x_norm and returned.

    A zero or denormal denominator is replaced by sign(x) * clamp (0 at
    x = 0); a denominator that overflows (both addends huge and positive) is
    rewritten as 1 / (1 + offset_1 / x).
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        den = np.add(xs, offset_1, x_norm)  # may overflow to inf for huge batches; handled below
        lo, hi = x_lo + offset_1, x_hi + offset_1  # den's min and max: rounding is monotone
        # no guard is needed when every den is finite and on one side of zero,
        # at least _TINY away from it; a NaN bound fails these tests
        guarded = not ((lo >= _TINY or hi <= -_TINY) and -np.inf < lo and hi < np.inf)
        # nor a clamp when max|x| / min|den|, never below a rounded |x / den|, is within it
        clamped = guarded or not max(-x_lo, x_hi) / min(abs(lo), abs(hi)) <= clamp
        if guarded:
            overflowed = np.isinf(den)
            singular = np.abs(den) < _TINY
        np.divide(xs, den, x_norm)
    if guarded and np.any(overflowed):
        safe = np.where(overflowed, xs, 1.0)
        np.copyto(x_norm, 1.0 / (1.0 + offset_1 / safe), where=overflowed)
    if guarded and np.any(singular):
        guard = np.where(xs == 0.0, 0.0, np.copysign(clamp, xs))
        np.copyto(x_norm, guard, where=singular)
    return x_norm.clip(-clamp, clamp, out=x_norm) if clamped else x_norm


def modhtan(xs, kind: ModHtan, v, g) -> float:
    """f = 2 / (1 + E**(-2 * x_norm)) - 1 with x_norm = x / (x + offset_1); g = 1 - f**2.

    Returns offset_1, fixed or adaptive to this batch.  E is the cached
    rational-power approximation of e.  With c = ln E this is
    tanh(c * x_norm), the form "constant" mode computes: one np.tanh pass,
    accurate near f = 0, -0.0 kept.  "direct" mode evaluates the rational
    formula at -2 * x_norm per input.  Outputs stay strictly inside
    (-1, 1): rounding lands on a bound once |x_norm| passes ~19, which
    would zero the 1 - f**2 gradient.
    """
    lo, hi = xs.min(initial=np.inf), xs.max(initial=-np.inf)  # the one pass over the batch for both
    mode = kind.offset_mode
    offset_1 = adaptive_offset(lo, hi, mode) if isinstance(mode, AdaptiveOffset) else mode.offset_1
    _normalized_input(xs, lo, hi, offset_1, _X_NORM_CLAMP, v)
    if kind.euler_mode == "constant":
        np.multiply(v, math.log(euler_constant(kind.rnf)), v)
        np.tanh(v, v)
    else:
        np.add(rnf_exp(np.multiply(v, -2.0, v), kind.rnf), 1.0, v)
        np.subtract(np.divide(2.0, v, v), 1.0, v)
    v.clip(math.nextafter(-1.0, 0.0), math.nextafter(1.0, 0.0), out=v)
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
        elu(xs, kind, values, grads)
    elif isinstance(kind, ModHtan):
        offset = modhtan(xs, kind, values, grads)
    else:
        raise TypeError(f"unknown activation kind: {kind!r}")
    return BatchActivation(values, grads, offset)
