"""Long-time diagnostics: equilibrium sets, decay monitors, conserved-limit
functionals, phase fractions, and the nondegeneracy checks that decide
whether the mean stress can keep oscillating forever.

Limits at infinite time are estimated by a trailing-window statistic: the
mean over the last tenth of the recorded times, with the window's spread
reported as the uncertainty.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDataError,
    HypothesisError,
    ModelInconsistencyError,
    NotConvergedError,
    StrainflowError,
)
from .numerics import CumulativeCurve, trailing_stats, trailing_window
from .state import Trajectory
from .stress_models import (
    StressModel,
    find_branches,
    level_breakpoints,
    near_critical_value,
    roots_at,
    sorted_once,
    stress_range,
)

TRAILING_FRAC = 0.1
RHS_SETTLED = 1e-8
F_TOL = 1e-10  # quadrature tolerance per kept panel of F_functional
NC3_GRID = 101  # stress levels of the branch-mean table
NC3_MARGIN = 1e-4  # share of the bistable band left out at each critical value


# -- equilibrium enumeration ---------------------------------------------------


@dataclass(frozen=True)
class EquilibriumDescription:
    stress_level: float
    branch_values: tuple[float, ...]
    fractions: tuple[float, ...]
    mean: float


def equilibria_enumerate(model: StressModel, mu: float):
    """Decide whether the constant state is the only equilibrium with mean mu.

    Levels whose outermost roots straddle mu form one interval between
    breakpoints (``level_breakpoints``, sigma(mu)), a point only at sigma(mu):
    roots_at at sigma(mu) and at each gap's midpoint decides. Critical values
    are breakpoints (once if shared), never masked: a level near one is
    solved. A root within 1e-9 * max(1, |mu|) of mu is mu. An example
    (outermost pair, lever-rule fractions) off its level by over 1e-10 *
    max(1, |c|, |p sigma'(p)|), or under 1e-9 * max(1, |p|) wide, raises
    ModelInconsistencyError. A constant sigma's one level holds the window.
    """
    c_lo, c_hi = stress_range(model)
    if c_lo == c_hi:
        levels = np.array([c_lo])
        first, last = (np.array([end]) for end in model.eval_window)
    else:
        lo, hi = model.eval_window
        at_mu = np.asarray(model.sigma(np.array([mu] if lo < mu < hi else [])), dtype=float)
        breaks = sorted_once(np.concatenate([level_breakpoints(model), at_mu]))
        levels = sorted_once(np.concatenate([0.5 * (breaks[:-1] + breaks[1:]), at_mu]))
        roots = roots_at(model, levels)
        roots[np.abs(roots - mu) <= 1e-9 * max(1.0, abs(mu))] = np.nan
        first = np.fmin.reduce(roots, axis=1)  # outermost roots; NaN for none
        last = np.fmax.reduce(roots, axis=1)
    ok = (first < mu) & (mu < last)  # implies at least two roots
    c, pair = levels[ok], np.stack([first[ok], last[ok]])
    scale = np.maximum(np.maximum(1.0, np.abs(c)), np.abs(pair * model.sigma_prime(pair)))
    if np.any(np.abs(model.sigma(pair) - c) > 1e-10 * scale) or np.any(
            pair[1] - pair[0] <= 1e-9 * np.max(np.abs(pair), axis=0, initial=1.0)):
        raise ModelInconsistencyError(f"equilibrium pairs {pair.T.tolist()} at levels "
                                      f"{c.tolist()} fail the residual or separation check")
    s = (pair[1] - mu) / (pair[1] - pair[0])
    found = [EquilibriumDescription(c_k, (p, q), (s_k, 1.0 - s_k), s_k * p + (1.0 - s_k) * q)
             for c_k, p, q, s_k in zip(c.tolist(), *pair.tolist(), s.tolist())]
    return ("UNIQUE" if not found else "NON-UNIQUE"), found


# -- decay of the velocity ------------------------------------------------------


def convergence_monitor(traj: Trajectory) -> tuple[np.ndarray, bool]:
    """Weighted velocity norm along the records and a settled flag.

    The flag needs the final norm under 1e-8 and the last tenth of the series
    nonincreasing up to 1e-10 noise.
    """
    series = np.sqrt(traj.dissipation)
    tail = series[trailing_window(traj.times, TRAILING_FRAC)]
    monotone = bool(np.all(np.diff(tail) <= 1e-10)) if len(tail) > 1 else True
    return series, bool(series[-1] < RHS_SETTLED and monotone)


# -- integral functionals of the stress -----------------------------------------


@dataclass(frozen=True)
class FunctionalSeries:
    times: np.ndarray
    series: np.ndarray
    limit: float
    spread: float
    monotone_expected: bool
    monotone_ok: bool


def F_functional(model: StressModel, traj: Trajectory, F, F_prime=None) -> FunctionalSeries:
    """Series t -> sum_i w_i int_1^{p_i(t)} F(sigma(z)) dz and its trailing
    limit. The antiderivative is a cumulative curve from 1 tabulated over
    [min(p, 1), max(p, 1)], ``F_TOL`` bounding each kept quadrature panel.
    When F is nondecreasing on the attained stress range the series is
    checked for monotone decay (within ten times ``F_TOL``)."""
    vals = traj.values
    nodes = np.unique(np.linspace(min(np.min(vals), 1.0), max(np.max(vals), 1.0), 129))
    integrand = lambda z: F(np.asarray(model.sigma(z), dtype=float))
    phi = CumulativeCurve(integrand, nodes, tol=F_TOL, x0=1.0)
    series = phi.value(vals) @ traj.weights
    limit, spread = trailing_stats(traj.times, series, TRAILING_FRAC)
    monotone_expected = False
    if F_prime is not None:
        sig = np.asarray(model.sigma(vals), dtype=float)
        s_lo, s_hi = float(np.min(sig)), float(np.max(sig))
        probe = np.linspace(s_lo, s_hi, 513)
        monotone_expected = bool(np.min(F_prime(probe)) >= -1e-12)
    monotone_ok = bool(np.all(np.diff(series) <= 10.0 * F_TOL)) if monotone_expected else True
    return FunctionalSeries(
        times=traj.times,
        series=series,
        limit=limit,
        spread=spread,
        monotone_expected=monotone_expected,
        monotone_ok=monotone_ok,
    )


# -- cubic stabilization identities ---------------------------------------------


@dataclass(frozen=True)
class CubicInvariantsReport:
    K1: float
    K2: float
    K1_spread: float
    K2_spread: float
    measured_sigma_bar: float
    measured_spread: float
    predicted_roots: tuple[float, ...]
    discriminant: float
    residual: float
    identity_value: float


def _require_cubic(model: StressModel) -> None:
    probe = np.linspace(0.25, 2.0, 8)
    if np.max(np.abs(model.sigma(probe) - (probe ** 3 - probe))) > 1e-12:
        raise ValueError("this diagnostic is specific to the stress law p^3 - p")


def cubic_invariants(model: StressModel, traj: Trajectory,
                     c_spread_tol: float = 1e-4) -> CubicInvariantsReport:
    """Internal-consistency check between two independently computed limits.

    Trailing limits K1 of w-mean(p^7/7 - 2 p^5/5 + p^3/3) and K2 of
    w-mean(sigma(p) p - p^2) pin the limiting stress level through

        mu s^2 + (8/3 + 4 K2) s + (8/3) mu - 35 K1 = 0,

    whose roots are compared against the measured stress-mean limit.
    """
    _require_cubic(model)
    mu = float(traj.mass()[0])
    if abs(mu) < 1e-12:
        raise DegenerateDataError(
            "mean strain is zero: the identity loses its leading term"
        )
    c_limit, c_spread = trailing_stats(traj.times, traj.stress_mean, TRAILING_FRAC)
    if c_spread >= c_spread_tol:
        raise NotConvergedError(
            f"stress mean still moves (trailing spread {c_spread:.2e}); "
            "integrate longer before extracting limits"
        )
    # the K1 and K2 terms of the trailing records only, in full-size arrays:
    # a BLAS product over fewer rows can group its sums differently
    rows = trailing_window(traj.times, TRAILING_FRAC)
    p = traj.values[rows]
    k1_terms, k2_terms = np.zeros_like(traj.values), np.zeros_like(traj.values)
    k1_terms[rows] = p ** 7 / 7.0 - 0.4 * p ** 5 + p ** 3 / 3.0
    k2_terms[rows] = np.asarray(model.sigma(p), dtype=float) * p - p ** 2
    K1, K1_spread = trailing_stats(traj.times, k1_terms @ traj.weights, TRAILING_FRAC)
    K2, K2_spread = trailing_stats(traj.times, k2_terms @ traj.weights, TRAILING_FRAC)

    B = 8.0 / 3.0 + 4.0 * K2
    C = 8.0 / 3.0 * mu - 35.0 * K1
    disc = B * B - 4.0 * mu * C
    identity_value = mu * c_limit ** 2 + B * c_limit + C
    if disc >= 0.0:
        r = np.sqrt(disc)
        roots = ((-B - r) / (2.0 * mu), (-B + r) / (2.0 * mu))
        residual = float(min(abs(c_limit - roots[0]), abs(c_limit - roots[1])))
    else:
        roots = ()
        residual = float("inf")
    return CubicInvariantsReport(
        K1=K1, K2=K2, K1_spread=K1_spread, K2_spread=K2_spread,
        measured_sigma_bar=c_limit, measured_spread=c_spread,
        predicted_roots=roots, discriminant=disc, residual=residual,
        identity_value=float(identity_value),
    )


# -- phase fractions -------------------------------------------------------------


@dataclass(frozen=True)
class FractionsHistory:
    times: np.ndarray
    fractions: np.ndarray      # (n_records, n_slots); NaN where c(t) is ambiguous
    residual: np.ndarray       # 1 - sum of fractions
    n_slots: int


def volume_fractions(model: StressModel, traj: Trajectory) -> FractionsHistory:
    """Mass fractions near each stress branch at the running stress mean,
    record by record (see ``_level_fractions``)."""
    fractions, residual = _level_fractions(model, traj.stress_mean, traj.values, traj.weights)
    return FractionsHistory(times=traj.times, fractions=fractions,
                            residual=residual, n_slots=fractions.shape[1])


def _level_fractions(model: StressModel, levels: np.ndarray, values: np.ndarray,
                     weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fractions (levels x branch slots) of the mass of each row of
    ``values`` near each root of sigma = that row's level, and their
    residuals 1 - sum.

    The band is a quarter of the smallest gap between adjacent branch values,
    so bands never overlap. Levels within tolerance of a critical value get
    NaN rows (branch identity is ambiguous there) and a warning.
    """
    zs, _ = model.critical_data
    n_slots = len(zs) + 1
    near = near_critical_value(model, levels)
    if np.any(near):
        warnings.warn(
            "stress mean touches a critical value; branch fractions "
            "are ambiguous at some records",
            RuntimeWarning,
        )
    roots = roots_at(model, levels)  # column j is branch slot j
    roots[near] = np.nan
    # rows are nondecreasing, so the running max is the previous root
    gaps = roots[:, 1:] - np.fmax.accumulate(roots, axis=1)[:, :-1]
    eps = 0.25 * np.fmin.reduce(gaps, axis=1, initial=np.inf)
    fractions = np.empty((len(levels), n_slots))
    for j in range(n_slots):
        sel = np.abs(values - roots[:, j, None]) < eps[:, None]
        # a row sum, not a BLAS product, whose rounding depends on the row's
        # place in the matrix: a level's fractions do not depend on the others
        fractions[:, j] = np.add.reduce(np.where(sel, weights, 0.0), axis=1)
    fractions[np.all(np.isnan(roots), axis=1)] = np.nan
    return fractions, 1.0 - fractions.sum(axis=1)


# -- nondegeneracy checks ---------------------------------------------------------


@dataclass(frozen=True)
class BranchMeanReport:
    nondegenerate: bool
    c_grid: np.ndarray
    branch_mean: np.ndarray


def nc3_check(model: StressModel, mu: float) -> BranchMeanReport:
    """For a cubic-like stress (exactly two critical points), tabulate the
    mean of the three branches across the bistable band; the flow cannot
    oscillate forever when this mean misses mu somewhere."""
    zs, crit_vals = model.critical_data
    if len(zs) != 2 or not (crit_vals[1] < crit_vals[0]):
        raise HypothesisError(
            "branch-mean check needs a cubic-like stress with exactly two "
            "critical points"
        )
    c_minus, c_plus = float(crit_vals[1]), float(crit_vals[0])
    span = c_plus - c_minus
    grid = np.linspace(c_minus + NC3_MARGIN * span, c_plus - NC3_MARGIN * span, NC3_GRID)
    roots = roots_at(model, grid)
    counts = np.count_nonzero(~np.isnan(roots), axis=1)
    if np.any(counts != 3):
        i = np.flatnonzero(counts != 3)[0]
        raise HypothesisError(
            f"expected three branches at stress level {grid[i]}, found {counts[i]}"
        )
    means = np.mean(roots, axis=1)
    return BranchMeanReport(bool(np.max(np.abs(means - mu)) > 1e-8), grid, means)


@dataclass(frozen=True)
class GramReport:
    independent: bool
    min_eigenvalue: float
    condition: float
    trace: float


def gram_independence(vectors: np.ndarray) -> GramReport:
    """Gram-matrix independence verdict for sampled function vectors."""
    V = np.asarray(vectors, dtype=float)
    gram = V @ V.T / V.shape[1]
    eig = np.linalg.eigvalsh(gram)
    trace = float(np.trace(gram))
    min_eig = float(eig[0])
    cond = float(eig[-1] / eig[0]) if eig[0] > 0 else float("inf")
    return GramReport(
        independent=bool(min_eig > 1e-10 * trace),
        min_eigenvalue=min_eig,
        condition=cond,
        trace=trace,
    )


def nc_linear_independence(model: StressModel, c_interval, n_grid: int = 33) -> GramReport:
    """Sample the branch derivatives 1/sigma'(p_i(c)) on the interval and test
    their linear independence through the Gram spectrum."""
    bs = find_branches(model, c_interval, nc=n_grid)
    return gram_independence(1.0 / np.asarray(model.sigma_prime(bs.branches), dtype=float))


# -- assembled report --------------------------------------------------------------


@dataclass
class AsymptoticsReport:
    c_limit: float
    c_spread: float
    rhs_norm_final: float
    settled: bool
    K1: float | None = None
    K2: float | None = None
    predicted_sigma_bar: tuple[float, ...] | None = None
    measured_sigma_bar: float | None = None
    sigma_bar_residual: float | None = None
    fractions_final: list[float] | None = None
    fractions_residual_final: float | None = None
    nc3_nondegenerate: bool | None = None
    nc_gram_condition: float | None = None
    nc_gram_min_eigenvalue: float | None = None

    def to_dict(self) -> dict:
        return {
            k: (list(v) if isinstance(v, tuple) else v)
            for k, v in self.__dict__.items()
        }


def asymptotics_report(model: StressModel, traj: Trajectory) -> AsymptoticsReport:
    """One-call summary used by the command-line pipeline."""
    c_limit, c_spread = trailing_stats(traj.times, traj.stress_mean, TRAILING_FRAC)
    series, settled = convergence_monitor(traj)
    report = AsymptoticsReport(
        c_limit=c_limit,
        c_spread=c_spread,
        rhs_norm_final=float(series[-1]),
        settled=settled,
    )
    zs, crit_vals = model.critical_data
    mu = float(traj.mass()[0])
    try:
        cub = cubic_invariants(model, traj)
        report.K1 = cub.K1
        report.K2 = cub.K2
        report.predicted_sigma_bar = cub.predicted_roots
        report.measured_sigma_bar = cub.measured_sigma_bar
        report.sigma_bar_residual = cub.residual
    except (ValueError, DegenerateDataError, NotConvergedError):
        pass
    if len(zs):
        last, residual = _level_fractions(model, traj.stress_mean[-1:], traj.values[-1:],
                                          traj.weights)
        if np.all(np.isfinite(last)):
            report.fractions_final = [float(x) for x in last[0]]
            report.fractions_residual_final = float(residual[0])
    band = None
    if len(zs) == 2:
        try:
            report.nc3_nondegenerate = nc3_check(model, mu).nondegenerate
        except HypothesisError:
            pass
        span = crit_vals[0] - crit_vals[1]
        band, n_grid = (crit_vals[1] + 0.25 * span, crit_vals[0] - 0.25 * span), 17
    elif len(zs) == 0:
        # monotone stress: one branch over any level interval inside the range
        lo, hi = stress_range(model)
        band, n_grid = (lo + 0.4 * (hi - lo), lo + 0.6 * (hi - lo)), 9
    if band is not None:
        try:
            gram = nc_linear_independence(model, band, n_grid=n_grid)
            report.nc_gram_condition = gram.condition
            report.nc_gram_min_eigenvalue = gram.min_eigenvalue
        except StrainflowError:
            pass
    return report
