"""Rational-power approximation of the exponential function.

exp(x) is approximated by ((a - n) / (a - (m + x)))**a with a large integer
calibration constant ``a``.  The a-fold power is evaluated by binary
exponentiation, so one call costs about 2*log2(a) multiplications instead of
the range reduction plus polynomial evaluation of a library exp.  With the
default a = 10**7 the relative error stays below 5e-5 on [-20, 20] and below
2e-6 on [-2, 2]; the leading error term grows like (x + x**2/2) / a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "RnfDomainError",
    "RnfParams",
    "DEFAULT_RNF_PARAMS",
    "rnf_exp",
    "euler_constant",
    "ErrorProfileRow",
    "approx_error_profile",
]


class RnfDomainError(ValueError):
    """Input falls outside the domain of the rational-power approximation."""


@dataclass(frozen=True)
class RnfParams:
    """Calibration constants of the approximation ((a-n)/(a-(m+x)))**a.

    ``a`` must be an integer >= 2; larger values trade a handful of extra
    multiplications for accuracy.  ``n`` and ``m`` shift the numerator and
    denominator respectively.
    """

    a: int = 10_000_000
    n: float = 1.0
    m: float = 1.0

    def __post_init__(self):
        if isinstance(self.a, bool) or not isinstance(self.a, (int, np.integer)):
            raise TypeError(f"calibration constant a must be an integer, got {self.a!r}")
        if self.a < 2:
            raise ValueError(f"calibration constant a must be >= 2, got {self.a}")


DEFAULT_RNF_PARAMS = RnfParams()


_POW_BLOCK = 65_536  # elements per in-place block; its working set stays in cache


def _ipow(base, exponent: int):
    """base**exponent for integer exponent >= 0 by square-and-multiply.

    Works elementwise when ``base`` is an ndarray with at least one
    dimension: the base is copied once and squared in place, block by block,
    so every element sees the same multiplications in the same order as the
    scalar loop.  All intermediates stay in native double precision.
    """
    if np.ndim(base) == 0:
        result = 1.0
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result
    squares = np.array(base, order="C").reshape(-1)
    result = np.ones_like(squares)
    for start in range(0, squares.size, _POW_BLOCK):
        b = squares[start:start + _POW_BLOCK]
        r = result[start:start + _POW_BLOCK]
        e = exponent
        while e:
            if e & 1:
                r *= b
            e >>= 1
            if e:
                b *= b
    return result.reshape(np.shape(base))


def rnf_exp(x, params: RnfParams = DEFAULT_RNF_PARAMS):
    """Approximate exp(x) as ((a-n)/(a-(m+x)))**a.

    Accepts a scalar or an ndarray (elementwise).  Requires m + x < a so the
    denominator stays positive, and a positive base overall.  Raises
    OverflowError when the result leaves the double range (x beyond ~709.7
    with defaults); very negative x underflows to 0.0 like a library exp.
    """
    a, n, m = params.a, params.n, params.m
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise RnfDomainError("x must be finite")
    if np.any(m + xs >= a):
        raise RnfDomainError(f"m + x must stay strictly below a = {a}")
    base = (a - n) / (a - (m + xs))
    if np.any(base <= 0.0):
        raise RnfDomainError("base (a - n)/(a - (m + x)) must be positive")
    with np.errstate(over="ignore"):
        out = _ipow(base, a)
    if np.any(np.isinf(out)):
        raise OverflowError("rnf_exp result exceeds the double-precision range")
    if np.ndim(x) == 0:
        return float(out)
    return out


@lru_cache(maxsize=None)
def euler_constant(params: RnfParams = DEFAULT_RNF_PARAMS) -> float:
    """The approximation evaluated at x = 1, i.e. the base used in place of e.

    Cached per parameter set; lru_cache gives the thread-safe one-time
    initialization.
    """
    return rnf_exp(1.0, params)


@dataclass(frozen=True)
class ErrorProfileRow:
    x: float
    rnf_value: float
    reference_value: float
    relative_error: float
    error: str | None = None


def approx_error_profile(xs, params: RnfParams = DEFAULT_RNF_PARAMS) -> list[ErrorProfileRow]:
    """Per-input accuracy of rnf_exp against math.exp, in input order.

    Domain and overflow failures are recorded in the row instead of raised.
    """
    rows = []
    for x in xs:
        x = float(x)
        try:
            approx = rnf_exp(x, params)
            ref = math.exp(x)
            if ref == 0.0:
                rel = 0.0 if approx == 0.0 else math.inf
            else:
                rel = abs(approx - ref) / abs(ref)
            rows.append(ErrorProfileRow(x, approx, ref, rel))
        except (RnfDomainError, OverflowError) as exc:
            rows.append(ErrorProfileRow(x, math.nan, math.nan, math.nan, error=str(exc)))
    return rows
