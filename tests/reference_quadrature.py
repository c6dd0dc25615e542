"""The quadratures the single adaptive kernel replaced, kept verbatim as
references: the globally adaptive heap quadrature (summed error estimates
against ``tol``, with a panel budget that returns the unconverged total),
the doubling antiderivative table behind ``F_functional``, and the improper
integral that called the kernel once per doubling segment (the oracle for
the escape times, which are now tabulated from infinity).
"""

from __future__ import annotations

import heapq

import numpy as np

from strainflow.errors import IntegrabilityError
from strainflow.numerics import _GL_NODES, _GL_WEIGHTS, quad_adaptive
from strainflow.stress_models import POSITIVE, StressModel


def _panel(f, a: float, b: float) -> float:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(np.dot(_GL_WEIGHTS, f(mid + half * _GL_NODES)))


def heap_quad_adaptive(f, a: float, b: float, tol: float = 1e-10, max_panels: int = 4096) -> float:
    """Integrate ``f`` over (a, b) to absolute tolerance ``tol``.

    Globally adaptive interval halving on 5-point Gauss panels: the panel
    with the largest error estimate is split until the summed estimates meet
    the tolerance. The global budget keeps work bounded even when roundoff
    noise in ``f`` makes local tolerances unreachable. ``f`` must accept
    numpy arrays; endpoints are never evaluated, so integrable endpoint
    singularities are fine.
    """
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0

    def make(a0: float, b0: float, whole: float):
        m = 0.5 * (a0 + b0)
        left = _panel(f, a0, m)
        right = _panel(f, m, b0)
        halves = left + right
        err = abs(halves - whole)
        if not np.isfinite(halves):
            err = float("inf")
        value = halves + (halves - whole) / 1023.0  # Richardson, order-10 rule
        splittable = (b0 - a0) > 1e-15 * max(abs(a0), abs(b0)) + 1e-300
        return err, a0, b0, m, left, right, value, splittable

    counter = 0
    heap = []  # refinable panels, worst first
    err_sum = 0.0
    total = 0.0

    def push(nd):
        nonlocal counter, err_sum, total
        total += nd[6]
        err_sum += nd[0] if np.isfinite(nd[0]) else 0.0
        if nd[7] and np.isfinite(nd[0]):
            heapq.heappush(heap, (-nd[0], counter, nd))
        elif not np.isfinite(nd[6]):
            raise IntegrabilityError(
                f"integrand not finite and not resolvable on ({nd[1]!r}, {nd[2]!r})"
            )
        counter += 1

    push(make(a, b, _panel(f, a, b)))
    n_panels = 1
    while heap and n_panels < max_panels and err_sum > tol:
        neg_err, _, nd = heapq.heappop(heap)
        err, a0, b0, m, left, right, value, _ = nd
        if not np.isfinite(value):
            raise IntegrabilityError(f"integrand not finite on ({a0!r}, {b0!r})")
        total -= value
        err_sum -= err
        push(make(a0, m, left))
        push(make(m, b0, right))
        n_panels += 1
    return sign * total


class CumulativeAntiderivative:
    """Phi(p) = int_1^p F(sigma(z)) dz on a panel table, refined globally by
    doubling until the table stabilizes, then queried in vectorized batches."""

    def __init__(self, model: StressModel, F, lo: float, hi: float, tol: float = 1e-10):
        self.model = model
        self.F = F
        lo = min(lo, 1.0)
        hi = max(hi, 1.0)
        pad = 1e-6 * (hi - lo + 1.0)
        self.lo, self.hi = lo - pad if model.domain != POSITIVE else max(lo * 0.5, lo - pad), hi + pad
        n = 1024
        prev = None
        for _ in range(8):
            nodes, cum = self._build(n)
            if prev is not None:
                shared = cum[::2]
                if np.max(np.abs(shared - prev[1])) <= tol:
                    break
            prev = (nodes, cum)
            n *= 2
        self.nodes, self.cum = nodes, cum
        self.offset = self._raw(np.array([1.0]))[0]

    def _build(self, n: int):
        nodes = np.linspace(self.lo, self.hi, n + 1)
        mid = 0.5 * (nodes[1:] + nodes[:-1])
        half = 0.5 * (nodes[1:] - nodes[:-1])
        z = mid[:, None] + half[:, None] * _GL_NODES[None, :]
        vals = self.F(np.asarray(self.model.sigma(z), dtype=float))
        panels = half * (vals @ _GL_WEIGHTS)
        return nodes, np.concatenate([[0.0], np.cumsum(panels)])

    def _raw(self, p: np.ndarray) -> np.ndarray:
        p = np.clip(p, self.nodes[0], self.nodes[-1])
        j = np.clip(np.searchsorted(self.nodes, p) - 1, 0, len(self.nodes) - 2)
        a = self.nodes[j]
        mid = 0.5 * (a + p)
        half = 0.5 * (p - a)
        z = mid[..., None] + half[..., None] * _GL_NODES
        vals = self.F(np.asarray(self.model.sigma(z), dtype=float))
        return self.cum[j] + half * (vals @ _GL_WEIGHTS)

    def __call__(self, p) -> np.ndarray:
        return self._raw(np.asarray(p, dtype=float)) - self.offset


def sequential_quad_to_infinity(
    f,
    a: float,
    tol: float = 1e-9,
    max_segments: int = 64,
    ratio_cap: float = 0.8,
) -> float:
    """Integrate ``f`` over (a, infinity).

    Sums ``quad_adaptive`` integrals over geometrically doubling segments,
    each to ``tol``/16 per kept panel, and closes the remainder with a
    geometric-series extrapolation of the last segment. The Cauchy test for
    convergence is that segment sums decay with a stable ratio below
    ``ratio_cap``; when they refuse to decay the integral is declared
    divergent.
    """
    seg_len = max(1.0, abs(a))
    lo = float(a)
    total = 0.0
    seg_values: list[float] = []
    for _ in range(max_segments):
        hi = lo + seg_len
        part = quad_adaptive(f, lo, hi, tol=tol / 16.0)
        seg_values.append(part)
        total += part
        if len(seg_values) >= 2:
            prev, cur = abs(seg_values[-2]), abs(seg_values[-1])
            ratio = cur / prev if prev > 0 else 0.0
            if cur <= tol / 4.0 and ratio <= ratio_cap:
                return total + seg_values[-1] * ratio / (1.0 - ratio)
            if len(seg_values) >= 5:
                recent = [abs(v) for v in seg_values[-4:]]
                ratios = [
                    recent[i + 1] / recent[i] if recent[i] > 0 else 0.0
                    for i in range(3)
                ]
                if min(ratios) > ratio_cap:
                    raise IntegrabilityError(
                        "tail segments of the improper integral do not decay "
                        f"(recent ratios {ratios}); integral treated as divergent"
                    )
        lo = hi
        seg_len *= 2.0
    raise IntegrabilityError(
        "improper integral did not converge within the segment budget"
    )
