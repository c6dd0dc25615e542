"""Traction-free problem: the flow decouples into pointwise ODEs dp/dt = -sigma(p).

Each material point evolves independently, so the field solver integrates
every sample as one rk45 ensemble, one member per sample, which also
integrates the weighted dissipation from its stages; the held flow's
trajectory builder turns the records into diagnostics, and the pointwise
solver is the one-sample case. Strains starting at exactly zero outside the
domain follow the travel-time relation int_0^p -dz/sigma(z) = t (exact where
the explicit stepper would be hopeless), inverted in batch, until they reach
0.999 of the smallest root at the hand-off time; the ensemble is split
there, and one zero-strain member joins it for the rest of the run, its
column copied to every zero sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import time_from_zero_curve
from .displacement import ZERO_FLOOR, _diagnostics
from .errors import DomainError, HypothesisError
from .numerics import rk45
from .state import Trajectory
from .stress_models import POSITIVE, StressModel, eval_W

EQUILIBRIUM_TOL = 1e-8  # residual |sigma| below which a limit counts as a root
BOOTSTRAP_FRACTION = 0.999  # hand-off from the travel-time relation to the ODE, times p_minus


@dataclass(frozen=True)
class PointwiseSolution:
    p0: float
    method: str  # "stiff-ode" | "quadrature-inversion" | "rest-point"
    times: np.ndarray
    values: np.ndarray
    limit_root: float | None  # nearest root of sigma, None when unresolved

    @property
    def final(self) -> float:
        return float(self.values[-1])


def _flow(model: StressModel, samples: np.ndarray, t_grid: np.ndarray, weights: np.ndarray,
          rtol: float, atol: float) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Values (records x samples) of dp/dt = -sigma(p) from each sample, the
    weighted dissipation int_0^t sum_i w_i sigma(p_i)^2 at the records, and
    the accepted and rejected rk45 steps summed over the stepper calls.

    The samples share rk45 calls as an ensemble of one-dimensional members;
    the flow is decoupled, so only the step sizes couple them, and rk45's
    per-member error norm holds each sample to ``rtol``/``atol``; the
    dissipation is integrated from the stages. Without a zero strain outside
    the domain that is one call. With one, the others run up to the hand-off
    time t_boot of ``_zero_start`` and then, joined by one zero-strain member
    started at its hand-off strain and weighted by the zero samples' summed
    weight, on to the end; that member's column is copied to every zero
    sample. Before t_boot each zero sample is a gradient flow of W alone, so
    it has dissipated W(ZERO_FLOOR) - W(p(t)), counted from the floored
    start its energy records.
    """
    if samples.ndim != 1 or len(samples) == 0:
        raise ValueError("p0_samples must be a non-empty 1-d array")
    if np.any(samples < 0):
        raise DomainError("all samples must be nonnegative")
    if t_grid[0] != 0.0:
        raise ValueError("the record grid must start at t = 0")

    f = lambda y: -np.asarray(model.sigma(y), dtype=float)
    guard = None
    if model.domain == POSITIVE:
        guard = lambda y_old, y_new: np.minimum.reduce(y_new, None) > 0.0
    runs = []

    def step(y0, grid, w):
        runs.append(rk45(f, y0[:, None], grid, rtol=rtol, atol=atol, accept_state=guard,
                         stage_rate=lambda k: (k * k).reshape(7, -1) @ w))
        return runs[-1].states[:, :, 0], runs[-1].aux_integral

    boot = (samples == 0.0) & (model.domain == POSITIVE)
    if not np.any(boot):
        values, diss = step(samples, t_grid, weights)
    else:
        values = np.empty((len(t_grid), len(samples)))
        t_boot, early, p_start = _zero_start(model, t_grid)
        head, rest = t_grid <= t_boot, t_grid > t_boot
        n_head = np.count_nonzero(head)
        values[np.ix_(head, boot)] = early[:, None]
        w_zero = float(np.sum(weights[boot]))
        energy = eval_W(model, np.append(np.maximum(early, ZERO_FLOOR), p_start))
        spent = w_zero * (energy[0] - energy)  # early[0] = 0, so energy[0] = W(ZERO_FLOOR)
        diss = np.empty(len(t_grid))
        diss[head] = spent[:-1]
        members, w_members = samples[~boot], weights[~boot]
        if len(members):
            # the hand-off time closes the grid once, even when it is a record
            states, aux = step(members, np.append(t_grid[t_grid < t_boot], t_boot), w_members)
            values[np.ix_(head, ~boot)] = states[:n_head]
            diss[head] += aux[:n_head]
            members = states[-1]
            spent[-1] += aux[-1]
        if np.any(rest):
            states, aux = step(np.append(members, p_start), np.append(t_boot, t_grid[rest]),
                               np.append(w_members, w_zero))
            values[np.ix_(rest, ~boot)] = states[1:, :-1]
            values[np.ix_(rest, boot)] = states[1:, -1:]
            diss[rest] = spent[-1] + aux[1:]
    return values, diss, sum(r.n_steps for r in runs), sum(r.n_rejected for r in runs)


def _zero_start(model, t_grid) -> tuple[float, np.ndarray, float]:
    """The hand-off time t_boot (capped at the last record), the zero-strain
    trajectory on the records up to it and the strain at it, from the
    travel-time relation inverted until the strain reaches
    BOOTSTRAP_FRACTION of the smallest root p_minus. The inversion stays
    accurate that far, and the stepper never sees the steep start, where
    dp/dt ~ -sigma(p) is large and the tolerance relative to p small."""
    curve, p_minus = time_from_zero_curve(model)
    t_boot = min(curve.value(BOOTSTRAP_FRACTION * p_minus), float(t_grid[-1]))
    early = t_grid[(t_grid > 0.0) & (t_grid <= t_boot)]
    inv = curve.invert(np.append(early, t_boot))
    if inv[-1] <= 0.0:
        raise HypothesisError(
            "travel-time relation from zero strain is not solvable; "
            "the stress does not blow down fast enough at zero"
        )
    return t_boot, np.concatenate([[0.0], inv[:-1]]), float(inv[-1])


def _limit_roots(model: StressModel, finals: np.ndarray) -> np.ndarray:
    """Nearest root of sigma for each final value whose residual |sigma| is
    below EQUILIBRIUM_TOL, NaN where the limit is unresolved."""
    resolved = np.abs(np.asarray(model.sigma(finals), dtype=float)) < EQUILIBRIUM_TOL
    roots = model.roots_of_sigma
    if len(roots) == 0:
        return np.full(len(finals), np.nan)
    nearest = roots[np.argmin(np.abs(roots[None, :] - finals[:, None]), axis=1)]
    return np.where(resolved, nearest, np.nan)


def solve_pointwise(
    model: StressModel,
    p0: float,
    t_grid,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> PointwiseSolution:
    """Solve dp/dt = -sigma(p), p(0) = p0 >= 0, recording on ``t_grid``: the
    one-sample case of ``solve_field``."""
    t_grid = np.asarray(t_grid, dtype=float)
    values = _flow(model, np.array([float(p0)]), t_grid, np.ones(1), rtol, atol)[0][:, 0]
    if p0 != 0.0:
        method = "stiff-ode"
    elif model.domain == POSITIVE:
        method = "quadrature-inversion"
    else:
        method = "rest-point" if float(model.sigma(np.array([0.0]))[0]) == 0.0 else "stiff-ode"
    root = _limit_roots(model, values[-1:])[0]
    return PointwiseSolution(
        p0=p0,
        method=method,
        times=t_grid,
        values=values,
        limit_root=None if np.isnan(root) else float(root),
    )


def solve_field(
    model: StressModel,
    p0_samples,
    t_grid,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    weights: np.ndarray | None = None,
) -> tuple[Trajectory, np.ndarray]:
    """Solve the decoupled flow for a sampled field; returns the trajectory
    and the classified limit field (limit roots, or the final value where the
    limit is unresolved). ``weights`` are the samples' material fractions,
    which weight the stress mean, energy and dissipation (equal by default)."""
    samples = np.asarray(p0_samples, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    n = len(samples)
    weights = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, dtype=float)
    values, diss, n_steps, n_rejected = _flow(model, samples, t_grid, weights, rtol, atol)
    meta = {"kind": "mixed", "model": model.spec, "n_steps": n_steps, "n_rejected": n_rejected}
    traj = _diagnostics(model, t_grid, values, weights, diss, meta, held=False)
    roots = _limit_roots(model, values[-1])
    return traj, np.where(np.isnan(roots), values[-1], roots)


def reconstruct_y(p_values) -> np.ndarray:
    """Deformation from a strain field sampled on a uniform grid over [0, 1]:
    cumulative trapezoid with y(0) = 0."""
    p = np.asarray(p_values, dtype=float)
    if p.ndim != 1 or len(p) < 2:
        raise ValueError("need at least two samples on the unit interval")
    dx = 1.0 / (len(p) - 1)
    y = np.empty_like(p)
    y[0] = 0.0
    np.cumsum(0.5 * dx * (p[1:] + p[:-1]), out=y[1:])
    return y
