"""Host-speed normalisation of the benchmark's timings.

The reference machine is a 2-vCPU guest on a shared host.  Its speed drifts
in phases that last from seconds to minutes, by up to 2x for identical work,
and the program's epochs slow by the same factor as any other numpy/Python
work running next to them.  A run of 20 s often sits inside one phase, so
medians within a run cannot remove the drift; dividing it out can.

Next to the timed calls the benchmark times a fixed reference task that uses
no modhtan code: small numpy matmuls, tanh, a 10x10 solve, concatenation
and some dict/list work, the same kind of operations an LM epoch is made of.
Each timing is multiplied by ``REFERENCE_S / reference task time``, taken
as the mean over the measurements just before and just after it, i.e.
reported as it would read on the host in its fast phase.  A change to the
program moves the scaled timings exactly as it moves the raw ones; a change
of host phase moves both the program and the reference task and cancels.
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_S = 0.036  # the reference task on the reference machine, fast phase
REMEASURE_S = 0.5  # calls closer together than this share one measurement

_rng = np.random.default_rng(0)
_SMALL_X = _rng.normal(size=(216, 13))
_SMALL_W = _rng.normal(size=(13, 10))
_EYE = np.eye(10)
_RHS = _rng.normal(size=10)
_LONG_X = _rng.normal(size=(5000, 1))
_LONG_W = _rng.normal(size=(1, 2))


def reference_task_s() -> float:
    """Wall time of the fixed reference task (about 36 ms on a quiet host)."""
    t0 = time.perf_counter()
    for i in range(150):
        a = np.tanh(_SMALL_X @ _SMALL_W)
        np.linalg.solve(a.T @ a + _EYE, _RHS)
        z = np.tanh(_LONG_X @ _LONG_W)
        j = np.concatenate([z, z * _LONG_X, z], axis=1)
        j.T @ j
        record = {"i": i, "v": [i, i + 1]}
        sum(record["v"])
    return time.perf_counter() - t0


class HostSpeed:
    """Reference-task measurements taken between timed calls.

    ``mark()`` before each timed call, ``close()`` after the last one; then
    ``factor(i)`` scales the timings of the call that got mark ``i`` by the
    mean factor of the measurements just before and just after it.
    """

    def __init__(self):
        self.factors: list[float] = []  # REFERENCE_S / reference task time
        self._measured_at = -math.inf

    def _measure(self) -> None:
        self.factors.append(REFERENCE_S / reference_task_s())
        self._measured_at = time.perf_counter()

    def mark(self) -> int:
        """Index of the measurement in force for the call about to start; a
        new one is taken unless the last is less than REMEASURE_S old."""
        if time.perf_counter() - self._measured_at >= REMEASURE_S:
            self._measure()
        return len(self.factors) - 1

    def close(self) -> None:
        self._measure()

    def factor(self, mark: int) -> float:
        return (self.factors[mark] + self.factors[mark + 1]) / 2
