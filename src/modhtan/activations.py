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
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, ClassVar, NamedTuple, Union

import numpy as np

from .rnf import RnfParams, euler_constant, rnf_exp

_TINY = sys.float_info.min  # smallest normal double; below this the x + offset_1 denominator counts as singular


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


OffsetMode = Union[FixedOffset, AdaptiveOffset]

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

    k_o is the squashing numerator; 2 is the unique value for which a branch
    with zeroed input contributes exactly k_o/2 - 1 = 0.  x_norm_clamp bounds
    the normalized input; 50 is far past saturation.  center_normalize=False
    keeps the raw x (instead of x/(x+offset_1)) wherever |x| <= x_cutoff
    (typical cutoff 10 to 100); x_cutoff acts only when center_normalize is
    off.  euler_mode picks between the tanh form with the cached Euler
    approximation's log as slope ("constant") and evaluating the
    rational-power formula per input ("direct").
    """

    k_o: float = 2.0
    x_cutoff: float = 10.0
    offset_mode: OffsetMode = AdaptiveOffset()
    rnf: RnfParams = RnfParams()
    x_norm_clamp: float = 50.0
    center_normalize: bool = True
    euler_mode: str = "constant"
    name: ClassVar[str] = "modhtan"

    def __post_init__(self):
        if not 0 < self.k_o < math.inf:
            raise ValueError(f"k_o must be positive and finite, got {self.k_o}")
        if not self.x_cutoff > 0:
            raise ValueError(f"x_cutoff must be positive, got {self.x_cutoff}")
        if not self.x_norm_clamp > 0:
            raise ValueError(f"x_norm_clamp must be positive, got {self.x_norm_clamp}")
        if self.euler_mode not in EULER_MODES:
            raise ValueError(f"euler_mode must be one of {EULER_MODES}, got {self.euler_mode!r}")
        try:
            e = euler_constant(self.rnf)  # an RnfDomainError is a ValueError already
        except OverflowError:
            e = math.inf
        if not 1 < e < math.inf:  # ln E <= 0 flattens or mirrors the curve
            raise ValueError(f"modhtan needs a finite Euler constant E > 1; {self.rnf} gives E = {e}")


ActivationKind = Union[SoftStep, Htan, Elu, ModHtan]

KINDS = {cls.name: cls for cls in (SoftStep, Htan, Elu, ModHtan)}
ACTIVATION_NAMES = tuple(KINDS)


def parse_activation(name: str) -> ActivationKind:
    """Activation kind with default parameters, by name."""
    if name not in KINDS:
        raise ValueError(f"unknown activation {name!r}; expected one of {ACTIVATION_NAMES}")
    return KINDS[name]()


class Param(NamedTuple):
    """One activation parameter: model-file key, CLI flag (None for file-only
    fields) and the dataclass field it fills.

    Numbers are parsed with `type` and written with repr.  A `choices` field
    is written as the text that maps to its value; where that value is a
    class (the offset mode), the text selects which dataclass is built.
    """

    key: str
    flag: str | None
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

    def format(self, value) -> str:
        if self.choices is None:
            return repr(value)
        return next(text for text, choice in self.choices.items() if choice in (value, type(value)))

    @property
    def default(self) -> str | None:
        """The dataclass default as text; None for a field without one."""
        default = getattr(self.owner, self.field, None)  # dataclasses keep defaults on the class
        return None if default is None else self.format(default)


# The one place activation parameters are declared: the CLI flags and the
# model-file keys both come from these rows, listed in model-file order.
PARAMS = (
    Param("elu_alpha", "alpha", Elu, "alpha", "elu scale"),
    Param("modhtan_k_o", "k", ModHtan, "k_o", "modhtan squashing numerator"),
    Param("modhtan_x_cutoff", "cutoff", ModHtan, "x_cutoff",
          "inputs with |x| <= cutoff stay raw when --center-normalize off"),
    Param("modhtan_offset_mode", "offset-mode", ModHtan, "offset_mode",
          "modhtan offset_1 source", choices={"adaptive": AdaptiveOffset, "fixed": FixedOffset}),
    Param("modhtan_offset_value", "offset", FixedOffset, "offset_1",
          "offset_1 when --offset-mode fixed"),
    Param("modhtan_offset_delta", "delta", AdaptiveOffset, "delta",
          "adaptive offset headroom factor"),
    Param("modhtan_offset_kappa", "kappa", AdaptiveOffset, "kappa", "adaptive offset floor"),
    Param("modhtan_x_norm_clamp", "clamp", ModHtan, "x_norm_clamp",
          "normalized-input clamp"),
    Param("modhtan_center_normalize", "center-normalize", ModHtan, "center_normalize",
          "normalize the central region too", choices={"on": True, "off": False}),
    Param("modhtan_euler_mode", "euler-mode", ModHtan, "euler_mode",
          "tanh with slope ln E of the cached Euler constant, or the rational formula per input",
          choices={mode: mode for mode in EULER_MODES}),
    Param("rnf_a", "rnf-a", RnfParams, "a", "rational-power exponent a", type=int),
    Param("rnf_n", None, RnfParams, "n", "rational-power numerator shift"),
    Param("rnf_m", None, RnfParams, "m", "rational-power denominator shift"),
)

_PARAM_AT = {(p.owner, p.field): p for p in PARAMS}


def _groups(obj):
    """obj and every dataclass nested in it."""
    yield obj
    for f in fields(obj):
        if is_dataclass(value := getattr(obj, f.name)):
            yield from _groups(value)


def kind_to_fields(kind: ActivationKind) -> dict[str, str]:
    """Model-file fields of an activation kind: its name, then its table rows."""
    groups = {type(g): g for g in _groups(kind)}
    out = {"hidden_kind": kind.name}
    for p in PARAMS:
        if p.owner in groups:
            out[p.key] = p.format(getattr(groups[p.owner], p.field))
    return out


def kind_from_fields(values: Mapping[str, Any], label=lambda p: p.key) -> ActivationKind:
    """Inverse of kind_to_fields.

    A row the kind needs that is missing from values, or does not parse, is
    a ValueError; label(param) names a missing row.
    """
    if "hidden_kind" not in values:
        raise ValueError("missing hidden_kind")
    return _build(type(parse_activation(values["hidden_kind"])), values, label)


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
    # putmask copies an array that is not C-contiguous: mask a sample-minor g through g.T
    g_c, xs_c = (g.T, xs.T) if g.flags.f_contiguous else (g, xs)
    np.putmask(g_c, xs_c > 0, 1.0)


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


def _normalized_input(xs, x_lo, x_hi, offset_1, x_cutoff, clamp, center_normalize, x_norm):
    """The normalized input x / (x + offset_1) of xs, whose minimum and maximum are
    x_lo and x_hi, clamped to [-clamp, clamp], written to x_norm and returned.

    A zero or denormal denominator is replaced by sign(x) * clamp (0 at
    x = 0); a denominator that overflows (both addends huge and positive) is
    rewritten as 1 / (1 + offset_1 / x).  With center_normalize off, inputs
    with |x| <= x_cutoff pass through raw.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        den = np.add(xs, offset_1, x_norm)  # may overflow to inf for huge batches; handled below
        lo, hi = x_lo + offset_1, x_hi + offset_1  # den's min and max: rounding is monotone
        # no guard is needed when every den is finite and on one side of zero,
        # at least _TINY away from it; a NaN bound fails these tests
        guarded = not ((lo >= _TINY or hi <= -_TINY) and -np.inf < lo and hi < np.inf)
        # nor a clamp on centred inputs when max|x| / min|den|, never below a
        # rounded |x / den|, is within it
        clamped = guarded or not center_normalize or not max(-x_lo, x_hi) / min(abs(lo), abs(hi)) <= clamp
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
    if not center_normalize:
        np.copyto(x_norm, xs, where=np.abs(xs) <= x_cutoff)
    return _clip(x_norm, -clamp, clamp) if clamped else x_norm


def _clip(v, lo, hi):
    """np.clip(v, lo, hi) in place, for nonzero bounds.

    Same values as np.clip, NaN included (with nonzero bounds no tie between
    signed zeros arises), at a fraction of its call cost on small arrays.
    """
    np.maximum(v, lo, out=v)
    return np.minimum(v, hi, out=v)


def modhtan(xs, kind: ModHtan, v, g) -> float:
    """f = k_o / (1 + E**(-2 * x_norm)) - 1 with x_norm = x / (x + offset_1); g = 1 - f**2.

    Returns offset_1, fixed or adaptive to this batch.  E is the cached
    rational-power approximation of e.  With c = ln E this is (k_o/2) *
    tanh(c * x_norm) + k_o/2 - 1, the form "constant" mode computes: one
    np.tanh pass at k_o = 2, accurate near f = 0, -0.0 kept.
    "direct" mode evaluates the rational formula at -2 * x_norm per input.
    Outputs stay strictly inside (-1, k_o - 1): rounding lands on a bound
    once |x_norm| passes ~19, which would zero the 1 - f**2 gradient.
    """
    lo, hi = xs.min(initial=np.inf), xs.max(initial=-np.inf)  # the one pass over the batch for both
    mode = kind.offset_mode
    offset_1 = adaptive_offset(lo, hi, mode) if isinstance(mode, AdaptiveOffset) else mode.offset_1
    _normalized_input(xs, lo, hi, offset_1, kind.x_cutoff, kind.x_norm_clamp, kind.center_normalize, v)
    if kind.euler_mode == "constant":
        np.multiply(v, math.log(euler_constant(kind.rnf)), v)
        np.tanh(v, v)
        if kind.k_o != 2.0:
            np.add(np.multiply(v, kind.k_o / 2.0, v), kind.k_o / 2.0 - 1.0, v)
    else:
        np.add(rnf_exp(np.multiply(v, -2.0, v), kind.rnf), 1.0, v)
        np.subtract(np.divide(kind.k_o, v, v), 1.0, v)
    _clip(v, math.nextafter(-1.0, 0.0), math.nextafter(kind.k_o - 1.0, -math.inf))
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
