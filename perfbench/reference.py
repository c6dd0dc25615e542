"""A fixed reference computation, timed between experiments to track the
host's speed.

The benchmark host's speed drifts by up to 2x within minutes, so raw
experiment times from runs minutes apart are not comparable. Each experiment
is timed against the reference bursts run just before and just after it, and
the ratio is reported in units of one burst (``ref``). The reference is
independent of strainflow and mixes the kinds of work the program does:
scalar numpy calls in a Python loop (level-set bisection), stage arithmetic on
a short vector (an explicit Runge-Kutta step) and Python float arithmetic
with a heap (adaptive quadrature). It must never change: a change would
rescale every ``ref`` metric.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

REPS = 28  # about 0.1 s per burst on an unloaded host

_CUBIC = np.array([1.0, 0.0, -1.0, 0.0])
_STAGES = [
    np.array([0.2]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]


def _work() -> float:
    acc = 0.0
    for c in (-0.3, 0.1, 0.35):  # bisection, one numpy call per step
        lo, hi = 1.0 / np.sqrt(3.0), 3.0
        for _ in range(45):
            mid = 0.5 * (lo + hi)
            if float(np.polyval(_CUBIC, np.array([mid]))[0]) > c:
                hi = mid
            else:
                lo = mid
        acc += lo
    y = np.linspace(-1.5, 2.5, 64)  # Runge-Kutta stages on a 64-vector
    k = np.empty((7, 64))
    for _ in range(12):
        k[0] = np.mean(y ** 3 - y) - (y ** 3 - y)
        for s, a in enumerate(_STAGES, start=1):
            ys = y + 0.01 * (a @ k[:s])
            k[s] = np.mean(ys ** 3 - ys) - (ys ** 3 - ys)
        y = y + 0.01 * (_STAGES[-1] @ k[:6])
    acc += float(y[0])
    heap = [(-1.0, 0.0, 1.0)]  # bisect the widest weighted panel, as quadrature does
    for _ in range(150):
        _, a, b = heapq.heappop(heap)
        m = 0.5 * (a + b)
        for x0, x1 in ((a, m), (m, b)):
            heapq.heappush(heap, (-(x1 - x0) * abs(x0 * x0 - x1), x0, x1))
    return acc + len(heap)


def burst() -> float:
    """Seconds taken by one reference burst."""
    t0 = time.perf_counter()
    for _ in range(REPS):
        _work()
    return time.perf_counter() - t0
