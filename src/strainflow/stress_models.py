"""Stress laws, stored energies, hypothesis checks and inverse branches.

A :class:`StressModel` bundles a scalar stress law ``sigma`` (vectorized over
numpy arrays) with its derivative, its stored energy, the domain it lives on,
and the handful of constants the bound constructions need. Models are
immutable; every operation here is a pure function of the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    DomainError,
    EstimationError,
    IntegrabilityError,
    InvalidIntervalError,
    ModelInconsistencyError,
)
from .numerics import bisect_root, quad_adaptive, quad_to_infinity

POSITIVE = "positive"
FULL_LINE = "full-line"

LAMBDA_SAFETY = 1.05  # the contraction tests need a valid constant, not a tight one
FD_STEP = 1e-6  # relative central-difference step for the derivative fallback
MAX_BRANCHES = 99
CRITICAL_RTOL = 1e-9  # relative distance at which a stress level counts as critical
LAMBDA_GRID = 1025  # points of the coarsest grid estimate_lambda samples sigma' on
LAMBDA_REFINEMENTS = 3  # nested grid doublings after the coarsest
CRITICAL_GRID = 8193  # window points scanned for sign changes of sigma'


@dataclass(frozen=True)
class StressModel:
    name: str
    sigma: Callable[[np.ndarray], np.ndarray]
    sigma_prime: Callable[[np.ndarray], np.ndarray] | None = None
    domain: str = POSITIVE
    theta: float | None = None
    lambda_: float | None = None
    eval_window: tuple[float, float] = (1e-8, 10.0)
    closed_form_energy: Callable[[np.ndarray], np.ndarray] | None = None
    analytic: bool = True
    spec: dict = field(default_factory=dict)  # registry name + params, round-trips configs

    def __post_init__(self):
        if self.domain not in (POSITIVE, FULL_LINE):
            raise ValueError(f"unknown domain kind {self.domain!r}")
        if self.domain == POSITIVE and self.eval_window[0] <= 0.0:
            raise ValueError("positive-only models need a positive window start")
        if self.sigma_prime is None:
            object.__setattr__(self, "sigma_prime", _fd_derivative(self.sigma))
        if self.lambda_ is None:
            object.__setattr__(self, "lambda_", estimate_lambda(self))
        if self.lambda_ < 0:
            raise ValueError("lambda must be nonnegative")

    # -- domain handling ---------------------------------------------------

    def in_domain(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if self.domain == POSITIVE:
            return p > 0.0
        return np.isfinite(p)

    def require_in_domain(self, p) -> None:
        if not np.all(self.in_domain(p)):
            raise DomainError(
                f"strain value outside the domain of model {self.name!r}"
            )

    # -- cached structure --------------------------------------------------

    @cached_property
    def critical_data(self) -> tuple[np.ndarray, np.ndarray]:
        return _critical_points_impl(self)

    @cached_property
    def roots_of_sigma(self) -> np.ndarray:
        return roots_at(self, 0.0)

    def grid(self, n: int = 2049) -> np.ndarray:
        """Sample grid over the evaluation window (log-spaced near 0 when
        the domain is positive-only, so singular behaviour is visible)."""
        lo, hi = self.eval_window
        if self.domain == POSITIVE:
            lo = max(lo, 1e-300)
            return np.geomspace(lo, hi, n)
        return np.linspace(lo, hi, n)


def _fd_derivative(sigma):
    def prime(p):
        p = np.asarray(p, dtype=float)
        h = FD_STEP * np.maximum(1.0, np.abs(p))
        return (sigma(p + h) - sigma(p - h)) / (2.0 * h)

    return prime


# -- stored energy ----------------------------------------------------------


def eval_W(model: StressModel, p, force_quadrature: bool = False, tol: float = 1e-10):
    """Stored energy W(p), the antiderivative of sigma vanishing at p = 1.

    Uses the registered closed form when available, otherwise one adaptive
    quadrature from 1 to every p at once, ``tol`` bounding each kept panel.
    """
    model.require_in_domain(p)
    scalar = np.isscalar(p) or np.ndim(p) == 0
    p_arr = np.atleast_1d(np.asarray(p, dtype=float))
    if model.closed_form_energy is not None and not force_quadrature:
        out = np.asarray(model.closed_form_energy(p_arr), dtype=float)
    else:
        out = quad_adaptive(model.sigma, 1.0, p_arr, tol)
    return float(out[0]) if scalar else out


# -- lambda-convexity constant ----------------------------------------------


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


# -- critical points and branches --------------------------------------------


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


def critical_points(model: StressModel) -> tuple[np.ndarray, np.ndarray]:
    """Sign changes of sigma' on the window and the critical values there.

    Sign changes are located on an 8193-point grid and refined together in
    one batched bisection of sigma'. An empty result means sigma is monotone
    on the window. The k critical points split the window into the k + 1
    monotone pieces that index the columns of a :func:`roots_at` table.
    """
    return model.critical_data


def near_critical_value(model: StressModel, c) -> np.ndarray:
    """True where a stress level lies within CRITICAL_RTOL * max(1, |c|) of a
    critical value of sigma, where branches merge and their identity is
    ambiguous. Works elementwise on arrays of levels."""
    c = np.asarray(c, dtype=float)
    _, crit_vals = model.critical_data
    gap = np.abs(c[..., None] - crit_vals)
    return np.any(gap < CRITICAL_RTOL * np.maximum(1.0, np.abs(c))[..., None], axis=-1)


def roots_at(model: StressModel, c) -> np.ndarray:
    """All solutions of sigma(p) = c in the window.

    sigma is monotone on each piece between consecutive critical points (and
    the window ends), so a piece holds at most one root per level. Every
    (level, piece) pair whose ends bracket the level is bisected to 1e-12 in
    a single batched bisection; roots within 1e-9 * max(1, |p|) of the
    previous root of the same level are dropped as duplicates.

    A scalar ``c`` gives that level's roots as a sorted 1-d array. A 1-d
    array of levels gives a NaN-padded table of shape (n_levels, n_pieces):
    column j holds the root on piece j, the branch slot between critical
    points j - 1 and j, and NaN where that piece has no root. Each row is
    nondecreasing left to right once the NaNs are dropped.
    """
    levels = np.atleast_1d(np.asarray(c, dtype=float))
    if levels.ndim != 1:
        raise ValueError("levels must be a scalar or a 1-d array")
    zs, _ = model.critical_data
    lo, hi = model.eval_window
    if model.domain == POSITIVE:
        lo = max(lo, 1e-300)
    pieces = np.concatenate([[lo], zs, [hi]])
    a, b = pieces[:-1], pieces[1:]
    if model.domain == POSITIVE:
        # nudge inward so singular window edges are never evaluated exactly
        a = np.where(a == lo, a + 1e-13 * np.maximum(1.0, np.abs(a)), a)
    fa = np.asarray(model.sigma(a), dtype=float) - levels[:, None]
    fb = np.asarray(model.sigma(b), dtype=float) - levels[:, None]
    finite = np.isfinite(fa) & np.isfinite(fb)
    table = np.where(finite & (fa == 0.0), a, np.nan)
    # signs compared directly: products underflow for subnormal values
    bracket = finite & (fa != 0.0) & (fb != 0.0) & ((fa > 0.0) != (fb > 0.0))
    rows, cols = np.nonzero(bracket)
    table[rows, cols] = bisect_root(
        lambda p: np.asarray(model.sigma(p), dtype=float) - levels[rows],
        a[cols], b[cols], xtol=1e-12,
    )
    last = table[:, -1]
    last[(fb[:, -1] == 0.0) & np.isnan(last)] = hi
    kept = table[:, 0].copy()  # latest root kept in each row, NaN before the first
    for j in range(1, table.shape[1]):  # dedupe roots on shared piece boundaries
        col = table[:, j]
        col[col - kept <= 1e-9 * np.maximum(1.0, np.abs(col))] = np.nan
        kept = np.where(np.isnan(col), kept, col)
    if np.ndim(c) == 0:
        return table[0][~np.isnan(table[0])]
    return table


@dataclass(frozen=True)
class BranchSet:
    """Inverse branches of sigma over a stress interval free of critical values."""

    c_lo: float
    c_hi: float
    c_grid: np.ndarray
    branches: np.ndarray  # shape (2k+1, nc), strictly ordered rows
    signs: tuple[int, ...]
    critical_values: np.ndarray

    @property
    def count(self) -> int:
        return self.branches.shape[0]


def find_branches(model: StressModel, c_interval: tuple[float, float], nc: int = 65) -> BranchSet:
    """Tabulate the inverse branches p_i(c) on ``c_interval``.

    The interval must avoid critical values of sigma (with a small margin);
    the branch count is then constant and odd across the interval.
    """
    c_lo, c_hi = float(c_interval[0]), float(c_interval[1])
    if c_hi < c_lo:
        raise InvalidIntervalError("empty stress interval")
    _, crit_vals = model.critical_data
    margin = 1e-9 * max(1.0, abs(c_lo), abs(c_hi))
    for cv in crit_vals:
        if c_lo - margin <= cv <= c_hi + margin:
            raise InvalidIntervalError(
                f"interval [{c_lo}, {c_hi}] touches the critical value {cv}"
            )
    c_grid = np.linspace(c_lo, c_hi, nc)
    table = roots_at(model, c_grid)
    found = ~np.isnan(table)
    counts = found.sum(axis=1)
    if counts[0] % 2 == 0:
        raise ModelInconsistencyError(
            f"even root count ({counts[0]}) at stress level {c_grid[0]}"
        )
    if counts[0] > MAX_BRANCHES:
        raise ModelInconsistencyError("branch count exceeds the cap")
    if np.any(counts != counts[0]):
        raise ModelInconsistencyError(
            "root count changed inside a supposedly branch-stable interval"
        )
    rows = table[found].reshape(nc, counts[0]).T.copy()
    slopes = np.asarray(model.sigma_prime(rows[:, nc // 2]), dtype=float)
    signs = tuple(1 if d > 0 else -1 for d in slopes)
    return BranchSet(
        c_lo=c_lo,
        c_hi=c_hi,
        c_grid=c_grid,
        branches=rows,
        signs=signs,
        critical_values=np.sort(crit_vals),
    )


# -- hypothesis report -------------------------------------------------------

PASS, FAIL, INDETERMINATE = "PASS", "FAIL", "INDETERMINATE"


@dataclass(frozen=True)
class HypothesisResult:
    status: str
    witness: float | str | None = None

    def __bool__(self) -> bool:
        return self.status == PASS


def check_hypotheses(model: StressModel) -> dict[str, HypothesisResult]:
    """Numerical evidence for the structural hypotheses the theory uses.

    Limit-type statements are probed on the finite window with Cauchy or
    saturation tests and can come back INDETERMINATE when the window is too
    small to decide. Keys:

    - ``lipschitz``            locally Lipschitz stress
    - ``blowup_at_zero``       sigma -> -inf as p -> 0+
    - ``convex_near_zero``     energy convex on (0, theta)
    - ``slope_floor_near_zero``sigma' >= alpha > 0 on (0, theta)
    - ``linear_growth_floor``  sigma(p)/p >= c > 0 for p > 1/theta
    - ``convex_at_infinity``   sigma strictly increasing for large p
    - ``positive_at_infinity`` sigma > 0 for large p
    - ``integrable_tail``      finite improper integral of 1/sigma beyond the
                               largest root
    - ``analytic``             declared real-analytic
    - ``two_critical_points``  cubic-like shape with nondegenerate extrema
    """
    report: dict[str, HypothesisResult] = {}
    lo, hi = model.eval_window

    # lipschitz: finite derivative on compact cores of the domain
    core_lo = max(lo, 1e-6) if model.domain == POSITIVE else lo
    core = (
        np.geomspace(core_lo, hi, 1001)
        if model.domain == POSITIVE
        else np.linspace(lo, hi, 1001)
    )
    dvals = np.asarray(model.sigma_prime(core), dtype=float)
    report["lipschitz"] = (
        HypothesisResult(PASS, float(np.max(np.abs(dvals))))
        if np.all(np.isfinite(dvals))
        else HypothesisResult(FAIL, "nonfinite derivative inside the domain")
    )

    # blowup_at_zero
    if model.domain == FULL_LINE:
        report["blowup_at_zero"] = HypothesisResult(
            FAIL, float(model.sigma(np.array([0.0]))[0])
        )
    else:
        ps = 10.0 ** -np.arange(1, 13, dtype=float)
        vals = np.asarray(model.sigma(ps), dtype=float)
        drops = -np.diff(vals)  # positive when sigma decreases toward 0
        scale = max(1.0, abs(vals[0]))
        if np.all(drops > 0) and drops[-1] > 0.3 * max(np.max(drops[:3]), 1e-12):
            report["blowup_at_zero"] = HypothesisResult(PASS, float(vals[-1]))
        elif abs(drops[-1]) < 1e-6 * scale:
            report["blowup_at_zero"] = HypothesisResult(FAIL, float(vals[-1]))
        else:
            report["blowup_at_zero"] = HypothesisResult(INDETERMINATE, float(vals[-1]))

    # theta-anchored checks
    theta = model.theta
    if theta is None:
        report["convex_near_zero"] = HypothesisResult(INDETERMINATE, "theta not set")
        report["slope_floor_near_zero"] = HypothesisResult(INDETERMINATE, "theta not set")
        report["linear_growth_floor"] = HypothesisResult(INDETERMINATE, "theta not set")
    else:
        near = (
            np.geomspace(max(lo, 1e-12), theta, 801)
            if model.domain == POSITIVE
            else np.linspace(1e-12, theta, 801)
        )
        dnear = np.asarray(model.sigma_prime(near), dtype=float)
        dmin = float(np.min(dnear))
        report["convex_near_zero"] = HypothesisResult(PASS if dmin >= -1e-12 else FAIL, dmin)
        report["slope_floor_near_zero"] = HypothesisResult(PASS if dmin > 0 else FAIL, dmin)
        far = np.geomspace(1.0 / theta, hi, 801)
        ratio = np.asarray(model.sigma(far), dtype=float) / far
        rmin = float(np.min(ratio))
        report["linear_growth_floor"] = HypothesisResult(PASS if rmin > 0 else FAIL, rmin)

    # behaviour at the far end of the window
    tail = np.geomspace(max(0.8 * hi, 1e-6), hi, 201) if hi > 0 else np.array([hi])
    dtail = np.asarray(model.sigma_prime(tail), dtype=float)
    report["convex_at_infinity"] = HypothesisResult(
        PASS if np.min(dtail) > 0 else FAIL, float(np.min(dtail))
    )
    stail = np.asarray(model.sigma(tail), dtype=float)
    report["positive_at_infinity"] = HypothesisResult(
        PASS if np.min(stail) > 0 else FAIL, float(np.min(stail))
    )

    # integrable stress tail beyond the largest root
    try:
        roots = model.roots_of_sigma
        if len(roots) == 0 or not report["positive_at_infinity"]:
            report["integrable_tail"] = HypothesisResult(
                INDETERMINATE, "no root / no positive tail inside the window"
            )
        else:
            p_plus = float(roots[-1])
            value = quad_to_infinity(lambda z: 1.0 / model.sigma(z), p_plus + 1.0, tol=1e-9)
            report["integrable_tail"] = HypothesisResult(PASS, value)
    except IntegrabilityError as exc:
        report["integrable_tail"] = HypothesisResult(FAIL, str(exc))

    report["analytic"] = HypothesisResult(PASS if model.analytic else INDETERMINATE)

    zs, cs = model.critical_data
    if len(zs) == 2 and cs[1] < cs[0]:
        h = 1e-5 * np.maximum(1.0, np.abs(zs))
        second = (
            np.asarray(model.sigma_prime(zs + h), dtype=float)
            - np.asarray(model.sigma_prime(zs - h), dtype=float)
        ) / (2 * h)
        ok = np.all(np.abs(second) > 1e-6)
        report["two_critical_points"] = HypothesisResult(
            PASS if ok else FAIL, float(np.min(np.abs(second)))
        )
    else:
        report["two_critical_points"] = HypothesisResult(FAIL, len(zs))
    return report


# -- registry ----------------------------------------------------------------


def _horner(coeffs: list[float], p):
    """``np.polyval(coeffs, p)``, bit for bit for finite p (its 0 * p + coeffs[0] is exact)."""
    if len(coeffs) < 2:
        return np.full_like(p, coeffs[0] if coeffs else 0.0)
    out = p * coeffs[0] + coeffs[1]
    for c in coeffs[2:]:
        out = out * p + c
    return out


def _poly_sigma(coeffs: np.ndarray, kappa: float):
    coeffs = np.asarray(coeffs, dtype=float)
    c_sig, c_der = coeffs.tolist(), np.polyder(coeffs).tolist()

    def sigma(p):
        p = np.asarray(p, dtype=float)
        out = _horner(c_sig, p)
        if kappa != 0.0:
            out = out - kappa / p
        return out

    def sigma_prime(p):
        p = np.asarray(p, dtype=float)
        out = _horner(c_der, p)
        if kappa != 0.0:
            out = out + kappa / p ** 2
        return out

    anti = np.polyint(coeffs)
    anti_at_1 = np.polyval(anti, 1.0)

    def energy(p):
        p = np.asarray(p, dtype=float)
        out = np.polyval(anti, p) - anti_at_1
        if kappa != 0.0:
            out = out - kappa * np.log(p)
        return out

    return sigma, sigma_prime, energy


_CUBIC = {"a": 1.0, "b": 0.0, "c": -1.0, "d": 0.0}

# The polynomial families are presets of ``poly``: their defaults for its
# parameters, which the caller's parameters override. The cubic presets name
# their coefficients a, b, c, d.
_POLY_PRESETS = {
    "cubic": _CUBIC,
    "shifted-cubic": _CUBIC,
    "singular-cubic": {**_CUBIC, "kappa": 0.5, "theta": 0.5},
    "linear": {"coeffs": [1.0, -1.0], "domain": POSITIVE, "theta": 0.5, "window": (1e-9, 12.0)},
    "hyperbolic": {"coeffs": [1.0, 0.0], "kappa": 1.0, "theta": 0.5, "window": (1e-9, 10.0)},
}


def make_model(name: str, **params) -> StressModel:
    """Build a registered stress model by name.

    Registered families:
      poly            coeffs=[...] highest power first, optional kappa (a
                      -kappa/p term, which puts the law on (0, inf)), domain
                      (full line by default), window and theta
      log             ln p on (0, inf)

    and presets of poly, which take every poly parameter (the cubic presets
    take a, b, c, d in place of coeffs):
      cubic           p^3 - p on the full line
      shifted-cubic   a p^3 + b p^2 + c p + d (full line)
      singular-cubic  a p^3 + b p^2 + c p + d - kappa/p on (0, inf),
                      kappa = 0.5 and theta = 0.5 by default
      linear          p - 1 on (0, inf)
      hyperbolic      p - 1/p on (0, inf): coeffs=[1, 0], kappa=1
    """
    spec = {"name": name, "params": dict(params)}
    if name == "log":
        return StressModel(
            name="log",
            sigma=lambda p: np.log(np.asarray(p, dtype=float)),
            sigma_prime=lambda p: 1.0 / np.asarray(p, dtype=float),
            domain=POSITIVE,
            theta=0.5,
            eval_window=(1e-9, 10.0),
            closed_form_energy=lambda p: p * np.log(p) - p + 1.0,
            spec=spec,
        )
    if name in _POLY_PRESETS:
        params = {**_POLY_PRESETS[name], **params}
        if "a" in _POLY_PRESETS[name]:
            params["coeffs"] = [params[k] for k in "abcd"]
    elif name != "poly":
        raise ValueError(f"unknown model name {name!r}")
    coeffs = np.asarray(params["coeffs"], dtype=float)
    kappa = params.get("kappa", 0.0)
    if name == "singular-cubic" and kappa <= 0:
        raise ValueError("singular-cubic needs kappa > 0")
    domain = POSITIVE if kappa != 0.0 else params.get("domain", FULL_LINE)
    default_window = (1e-8, 10.0) if domain == POSITIVE else (-3.0, 3.0)
    window = tuple(params.get("window", default_window))
    sig, sigp, en = _poly_sigma(coeffs, kappa)
    return StressModel(
        name=name, sigma=sig, sigma_prime=sigp, domain=domain,
        theta=params.get("theta"), eval_window=window,
        closed_form_energy=en, spec=spec,
    )
