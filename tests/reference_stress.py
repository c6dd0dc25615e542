"""The sampled model structure that the exact construction replaced, kept
verbatim as a reference: lambda as the minimum of sigma' over nested sample
grids (with the unbounded-below test that raised ``EstimationError``), and
the critical points as the sign changes of sigma' on an 8193-point window
grid, refined in one batched bisection. Both can miss features narrower than
their grids; the exact structure must agree with them wherever they see one.
The batched bisection that refines them is kept verbatim as well, as
``numerics.bisect_root`` was before it took Newton steps, so that this
reference does not move with the solver, and so is the window grid they
sample (``window_grid``, once ``StressModel.grid``).
"""

from __future__ import annotations

import numpy as np

from strainflow.errors import (
    BracketError,
    IterationBudgetError,
    ModelInconsistencyError,
    StrainflowError,
)
from strainflow.stress_models import LAMBDA_SAFETY, MAX_BRANCHES, POSITIVE, StressModel

LAMBDA_GRID = 1025  # points of the coarsest grid estimate_lambda samples sigma' on
LAMBDA_REFINEMENTS = 3  # nested grid doublings after the coarsest
CRITICAL_GRID = 8193  # window points scanned for sign changes of sigma'


_BISECT_MAX_ITER = 200  # halvings per bisect_root call


def bisect_root(f, lo, hi, xtol: float = 1e-12):
    """Roots of ``f`` on sign-changing brackets [lo, hi].

    ``lo`` and ``hi`` may be arrays (broadcast together), and ``f`` then acts
    componentwise on arrays of that shape. Each component stops where a
    scalar bisection of its bracket stops and returns that bisection's root:
    on an exact zero of ``f``, or at the bracket midpoint once
    hi - lo <= xtol * max(1, |lo|, |hi|). Scalar brackets give a float.

    Signs are compared directly, never through products, which would
    underflow to zero for subnormal function values and corrupt the bracket.
    Raises BracketError on a bracket without a sign change and
    IterationBudgetError when a bracket is still open after
    _BISECT_MAX_ITER halvings.
    """
    lo, hi = (np.array(x, dtype=float) for x in np.broadcast_arrays(lo, hi))
    flo = np.asarray(f(lo), dtype=float)
    fhi = np.asarray(f(hi), dtype=float)
    live = (flo != 0.0) & (fhi != 0.0)
    lo_pos = flo > 0.0  # every later lo keeps this sign
    bad = live & (lo_pos == (fhi > 0.0))
    if np.any(bad):
        i = np.flatnonzero(bad)[0]
        raise BracketError(f"no sign change on [{lo.flat[i]!r}, {hi.flat[i]!r}]")
    # an exact zero closes its bracket onto that point; the midpoint is then exact
    hi = np.where(flo == 0.0, lo, hi)
    lo = np.where((flo != 0.0) & (fhi == 0.0), hi, lo)
    for _ in range(_BISECT_MAX_ITER):
        if not np.any(live):
            break
        mid = 0.5 * (lo + hi)
        fm = np.asarray(f(mid), dtype=float)
        same = (fm > 0.0) == lo_pos
        lo = np.where(live & ((fm == 0.0) | same), mid, lo)
        hi = np.where(live & ((fm == 0.0) | ~same), mid, hi)
        live = live & ~(hi - lo <= xtol * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi))))
    if np.any(live):
        raise IterationBudgetError(
            f"bisection left {int(np.count_nonzero(live))} bracket(s) open "
            f"after {_BISECT_MAX_ITER} halvings"
        )
    out = 0.5 * (lo + hi)
    return float(out) if out.ndim == 0 else out


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


def window_grid(model: StressModel, n: int) -> np.ndarray:
    """Sample grid over the evaluation window (log-spaced near 0 when
    the domain is positive-only, so singular behaviour is visible)."""
    lo, hi = model.eval_window
    if model.domain == POSITIVE:
        lo = max(lo, 1e-300)
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def _critical_points_impl(model: StressModel) -> tuple[np.ndarray, np.ndarray]:
    grid = window_grid(model, CRITICAL_GRID)
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
