"""Rational-power approximation of the exponential function.

exp(x) is approximated by ((a - 1) / (a - 1 - x))**a with a large integer
calibration constant ``a``.  The a-fold power is evaluated by binary
exponentiation, so one call costs about 2*log2(a) multiplications instead of
the range reduction plus polynomial evaluation of a library exp.  With the
default a = 10**7 the relative error stays below 5e-5 on [-20, 20] and below
2e-6 on [-2, 2]; the leading error term grows like (x + x**2/2) / a.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class RnfDomainError(ValueError):
    """Input falls outside the domain of the rational-power approximation."""


@dataclass(frozen=True)
class RnfParams:
    """Calibration constant of the approximation ((a-1)/(a-1-x))**a.

    ``a`` must be an integer from 2 to the largest double; larger values
    trade a handful of extra multiplications for accuracy.
    """

    a: int = 10_000_000

    def __post_init__(self):
        if isinstance(self.a, bool) or not isinstance(self.a, (int, np.integer)):
            raise TypeError(f"calibration constant a must be an integer, got {self.a!r}")
        if not 2 <= self.a <= sys.float_info.max:  # the formula's arithmetic is in doubles
            raise ValueError(f"calibration constant a must be >= 2 and at most the largest double, got {self.a}")


DEFAULT_RNF_PARAMS = RnfParams()


_POW_BLOCK = 65_536  # elements per in-place block; its working set stays in cache


def _ipow(base, exponent: int):
    """Elementwise base**exponent for integer exponent >= 0 by square-and-multiply.

    The base is copied once and squared in place, block by block, so every
    element sees the same multiplications in the same order as a scalar
    loop.  All intermediates stay in native double precision; the result is
    an array of the base's shape, 0-d for a scalar base.
    """
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
    """Approximate exp(x) as ((a-1)/(a-1-x))**a.

    Accepts a scalar or an ndarray (elementwise).  Requires 1 + x < a, which
    keeps the denominator, and with a >= 2 the base, positive.  Raises
    OverflowError when the result leaves the double range (x beyond ~709.7
    with defaults); very negative x underflows to 0.0 like a library exp.
    """
    a = params.a
    xs = np.asarray(x, dtype=float)
    if xs.size:
        # NaN and inf reach min/max; 1 + x rounds nondecreasing in x, so its largest value is at max
        lo, hi = xs.min(), xs.max()
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise RnfDomainError("x must be finite")
        if 1.0 + hi >= a:
            raise RnfDomainError(f"1 + x must stay strictly below a = {a}")
    base = (a - 1.0) / (a - (1.0 + xs))
    with np.errstate(over="ignore"):
        out = _ipow(base, a)
    if np.max(out, initial=0.0) == math.inf:
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

