"""The sampled model structure that the exact construction replaced, kept
verbatim as a reference: lambda as the minimum of sigma' over nested sample
grids (with the unbounded-below test that raised ``EstimationError``), and
the critical points as the sign changes of sigma' on an 8193-point window
grid, refined in one batched bisection. Both can miss features narrower than
their grids; the exact structure must agree with them wherever they see one.
"""

from __future__ import annotations

import numpy as np

from strainflow.errors import ModelInconsistencyError, StrainflowError
from strainflow.numerics import bisect_root
from strainflow.stress_models import LAMBDA_SAFETY, MAX_BRANCHES, POSITIVE, StressModel

LAMBDA_GRID = 1025  # points of the coarsest grid estimate_lambda samples sigma' on
LAMBDA_REFINEMENTS = 3  # nested grid doublings after the coarsest
CRITICAL_GRID = 8193  # window points scanned for sign changes of sigma'


class EstimationError(StrainflowError):
    """A numerically estimated model constant did not saturate under refinement."""


def estimate_lambda(model: StressModel) -> float:
    """Convexity defect lambda = max(0, -inf sigma') over the window.

    The infimum is taken on nested sample grids; if refining the grid keeps
    driving the minimum down by non-shrinking amounts the derivative is
    treated as unbounded below and estimation fails. The result carries a 5%
    safety inflation.
    """
    mins = []
    n = LAMBDA_GRID
    lo, hi = model.eval_window
    for k in range(LAMBDA_REFINEMENTS + 1):
        if model.domain == POSITIVE:
            # successive grids also reach closer to the singular end
            reach = max(lo, abs(hi) * 10.0 ** (-3.0 * (k + 1)))
            grid = np.geomspace(reach, hi, n)
        else:
            grid = np.linspace(lo, hi, n)
        vals = np.asarray(model.sigma_prime(grid), dtype=float)
        vals = vals[np.isfinite(vals)]
        if len(vals) == 0:
            raise EstimationError("sigma' not evaluable on the window")
        mins.append(float(np.min(vals)))
        n = 2 * n - 1  # nested refinement
    drops = [mins[i] - mins[i + 1] for i in range(len(mins) - 1)]
    scale = max(1.0, abs(mins[-1]))
    if (
        drops[-1] > 1e-6 * scale
        and all(d > 0 for d in drops)
        and drops[-1] >= 0.9 * drops[-2]
    ):
        raise EstimationError(
            "sigma' keeps decreasing under grid refinement; "
            "unbounded below on the window"
        )
    return max(0.0, -mins[-1]) * LAMBDA_SAFETY if mins[-1] < 0 else 0.0


def _critical_points_impl(model: StressModel) -> tuple[np.ndarray, np.ndarray]:
    grid = model.grid(CRITICAL_GRID)
    dvals = np.asarray(model.sigma_prime(grid), dtype=float)
    a, b = dvals[:-1], dvals[1:]
    finite = np.isfinite(a) & np.isfinite(b)
    # a run of exact zeros of sigma' counts once, at its first sample
    touch = finite & (a == 0.0) & np.concatenate([[True], dvals[:-2] != 0.0])
    cross = finite & (a != 0.0) & (b != 0.0) & ((a > 0.0) != (b > 0.0))
    crossings = bisect_root(model.sigma_prime, grid[:-1][cross], grid[1:][cross], xtol=1e-12)
    zs = np.sort(np.concatenate([grid[:-1][touch], crossings]))
    if len(zs) > MAX_BRANCHES:
        raise ModelInconsistencyError("too many critical points to tabulate")
    cs = model.sigma(zs) if len(zs) else np.array([])
    return zs, np.asarray(cs, dtype=float)
