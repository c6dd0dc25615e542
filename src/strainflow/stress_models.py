"""Stress laws, stored energies, exact structure and inverse branches.

A :class:`StressModel` bundles a scalar stress law ``sigma`` (vectorized over
numpy arrays) with its derivative, its closed-form stored energy, the domain
it lives on, and its structure on the evaluation window: the convexity defect
lambda, the critical points and values. ``make_model`` computes that structure
once, exactly, from the law's coefficients; callers read it, never sample
sigma for it. Models are immutable; every operation here is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DomainError, InvalidIntervalError, ModelInconsistencyError
# quad_adaptive is unused here: perfbench/spans.py traces it under this module too.
from .numerics import bisect_root, quad_adaptive

POSITIVE = "positive"
FULL_LINE = "full-line"

LAMBDA_SAFETY = 1.05  # the contraction tests need a valid constant, not a tight one
MAX_BRANCHES = 99
CRITICAL_RTOL = 1e-9  # relative distance at which a stress level counts as critical
REAL_ROOT_RTOL = 1e-6  # |imag| up to which a companion-matrix root counts as real
NEWTON_POLISH = 3  # Newton steps that polish each critical point


@dataclass(frozen=True, eq=False)  # compared by identity: the fields hold callables and arrays
class StressModel:
    name: str
    sigma: Callable[[np.ndarray], np.ndarray]
    sigma_prime: Callable[[np.ndarray], np.ndarray]
    lambda_: float
    # the critical points (the ascending sign changes of sigma' inside the
    # window; empty when sigma is monotone there) and the critical values
    # sigma takes there. The k points split the window into the k + 1
    # monotone pieces that index the columns of a roots_at table.
    critical_data: tuple[np.ndarray, np.ndarray]
    # the stored energy W, the antiderivative of sigma vanishing at p = 1
    closed_form_energy: Callable[[np.ndarray], np.ndarray]
    domain: str = POSITIVE
    theta: float | None = None
    eval_window: tuple[float, float] = (1e-8, 10.0)
    spec: dict = field(default_factory=dict)  # registry name + params, round-trips configs

    def __post_init__(self):
        if self.domain not in (POSITIVE, FULL_LINE):
            raise ValueError(f"unknown domain kind {self.domain!r}")
        lo, hi = self.eval_window
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError(f"window {self.eval_window} needs finite ends with lo < hi")
        if self.domain == POSITIVE and lo <= 0.0:
            raise ValueError("positive-only models need a positive window start")
        if self.lambda_ < 0:
            raise ValueError("lambda must be nonnegative")

    # -- domain handling ---------------------------------------------------

    def in_domain(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if self.domain == POSITIVE:
            return p > 0.0
        return np.isfinite(p)

    # -- cached structure --------------------------------------------------

    @cached_property
    def roots_of_sigma(self) -> np.ndarray:
        return roots_at(self, 0.0)


# -- stored energy ----------------------------------------------------------


def eval_W(model: StressModel, p):
    """Stored energy W(p), the antiderivative of sigma vanishing at p = 1,
    from the model's closed form: a float for a scalar p, else an array.
    Raises DomainError when a strain lies outside the model's domain."""
    if not np.all(model.in_domain(p)):
        raise DomainError(f"strain value outside the domain of model {model.name!r}")
    out = model.closed_form_energy(np.atleast_1d(np.asarray(p, dtype=float)))
    return float(out[0]) if np.ndim(p) == 0 else np.asarray(out, dtype=float)


# -- critical points and branches --------------------------------------------


def stress_range(model: StressModel) -> tuple[float, float]:
    """Least and greatest value of sigma on the window: sigma is monotone
    between critical points, so both are taken at a window end or at a
    critical point."""
    ends = np.asarray(model.sigma(np.array(model.eval_window)), dtype=float)
    vals = np.concatenate([ends, model.critical_data[1]])
    return float(np.min(vals)), float(np.max(vals))


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
    (level, piece) pair whose ends bracket the level is solved in a single
    batched ``bisect_root`` call, Newton on sigma' safeguarded by bisection;
    roots within 1e-9 * max(1, |p|) of the previous root of the same level
    are dropped as duplicates.

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
        lambda p, i: np.asarray(model.sigma(p), dtype=float) - levels[rows[i]],
        lambda p, i: model.sigma_prime(p), a[cols], b[cols],
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

    c_grid: np.ndarray
    branches: np.ndarray  # shape (2k+1, nc), strictly ordered rows
    signs: tuple[int, ...]

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
    return BranchSet(c_grid=c_grid, branches=rows, signs=signs)


# -- registry ----------------------------------------------------------------


def _poly_kernel(coeffs, term: str):
    """``p -> np.polyval(coeffs, p) + term``, ``term`` the source of a kappa
    term in p or "", as straight-line code fixed once, bit for bit for finite
    p on the law's domain, signed zeros included: Horner's rule from the first
    nonzero coefficient, without the product by a leading 1 or a sum that
    changes no bit (a sum with -0.0 never does; one with +0.0 turns -0 into
    +0, as a later nonzero sum or ``term`` does too). The first operation
    makes a new array; every later one writes into it, so the input is never
    written or returned."""
    c = [0.0, *(float(x) for x in coeffs)]  # np.polyval's sum starts at +0.0
    nonzero = [i for i, x in enumerate(c) if x != 0.0]
    plus_zero = [i for i, x in enumerate(c) if x == 0.0 and not np.signbit(x)]
    start = nonzero[0] if nonzero else plus_zero[-1]
    last_sum = plus_zero[-1] if not term and plus_zero[-1] > max(nonzero, default=start) else -1
    y, lines = repr(c[start]), []  # the sum so far: a constant, "p" or "out"
    for i in range(start + 1, len(c)):
        if y == "1.0":  # 1 * p is p
            y = "p"
        else:
            lines.append("out *= p" if y == "out" else f"out = p * {y}")
            y = "out"
        if c[i] != 0.0 or i == last_sum:
            lines.append(f"out += {c[i]!r}" if y == "out" else f"out = p + {c[i]!r}")
            y = "out"
    if y != "out":
        lines += ([f"out = {term}", f"out += {y}"] if term else
                  ["out = p * 1.0" if y == "p" else f"out = full_like(p, {y})"])
    elif term:
        lines.append(f"out += {term}")
    scope = {"asarray": np.asarray, "full_like": np.full_like, "log": np.log}
    exec("def kernel(p):\n    p = asarray(p, dtype=float)\n"
         + "".join(f"    {line}\n" for line in lines) + "    return out\n", scope)
    return scope["kernel"]


def _poly_sigma(coeffs: np.ndarray, kappa: float):
    """sigma, sigma' and W of P - kappa/p; W folds -W(1) into its constant,
    which np.polyint makes 0.0, so (sum + 0.0) - W(1) is one exact sum."""
    kappa, anti = float(kappa), np.polyint(coeffs)
    anti[-1] = 0.0 - np.polyval(anti, 1.0)
    return (_poly_kernel(coeffs, f"{-kappa!r} / p" if kappa else ""),
            _poly_kernel(np.polyder(coeffs), f"{kappa!r} / p ** 2" if kappa else ""),
            _poly_kernel(anti, f"{-kappa!r} * log(p)" if kappa else ""))


def _real_roots(q: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Real roots inside (lo, hi) of the polynomial q, ascending, from the
    eigenvalues of its companion matrix. Roots with equal real parts (a
    repeated root, a conjugate pair within REAL_ROOT_RTOL) come back once."""
    r = np.roots(q)
    r = r.real[np.abs(r.imag) <= REAL_ROOT_RTOL * np.maximum(1.0, np.abs(r))]
    r = np.sort(r[(lo < r) & (r < hi)])
    return r[np.diff(r, prepend=-np.inf) > 0.0]  # not np.unique, which imports numpy.ma


def _poly_structure(coeffs: np.ndarray, kappa: float, window, sigma, sigma_prime):
    """lambda and the critical data of sigma = P - kappa/p on the window.

    With the 1/p terms cleared, sigma' = 0 is p^2 P'(p) + kappa = 0 and
    sigma'' = 0 is p^3 P''(p) - 2 kappa = 0 (P' and P'' when kappa = 0).
    A real root of the first is a critical point when sigma' takes opposite
    nonzero signs at the midpoints to its neighbouring candidates, so a root
    of even multiplicity is dropped. Each is then Newton-polished, a step
    kept only when it stays inside that midpoint bracket and lowers the
    residual. sigma' is least at a window end or at a real root of the
    second.
    """
    lo, hi = window
    d1, d2 = np.polyder(coeffs), np.polyder(coeffs, 2)
    q1 = np.polyadd(np.polymul(d1, [1.0, 0.0, 0.0]), [kappa]) if kappa else d1
    q2 = np.polyadd(np.polymul(d2, [1.0, 0.0, 0.0, 0.0]), [-2.0 * kappa]) if kappa else d2
    cand = _real_roots(q1, lo, hi)
    mids = 0.5 * (np.concatenate([[lo], cand]) + np.concatenate([cand, [hi]]))
    sign = np.sign(np.asarray(sigma_prime(mids), dtype=float))
    turn = sign[:-1] * sign[1:] < 0.0
    zs, a, b = cand[turn], mids[:-1][turn], mids[1:][turn]
    dq1 = np.polyder(q1)
    for _ in range(NEWTON_POLISH):
        with np.errstate(divide="ignore", invalid="ignore"):
            step = zs - np.polyval(q1, zs) / np.polyval(dq1, zs)
            better = np.abs(np.polyval(q1, step)) < np.abs(np.polyval(q1, zs))
        zs = np.where(better & (a < step) & (step < b), step, zs)
    if len(zs) > MAX_BRANCHES:
        raise ModelInconsistencyError("too many critical points to tabulate")
    ends_and_flats = np.concatenate([[lo, hi], _real_roots(q2, lo, hi)])
    lam = LAMBDA_SAFETY * max(0.0, -float(np.min(sigma_prime(ends_and_flats))))
    return lam, (zs, np.asarray(sigma(zs), dtype=float))


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
            lambda_=0.0,
            critical_data=(np.empty(0), np.empty(0)),
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
    kappa, theta = params.get("kappa", 0.0), params.get("theta")
    if not np.all(np.isfinite([*coeffs, kappa, 0.0 if theta is None else theta])):
        raise ValueError("coeffs, kappa and theta must be finite")
    if name == "singular-cubic" and kappa <= 0:
        raise ValueError("singular-cubic needs kappa > 0")
    domain = POSITIVE if kappa != 0.0 else params.get("domain", FULL_LINE)
    default_window = (1e-8, 10.0) if domain == POSITIVE else (-3.0, 3.0)
    window = tuple(params.get("window", default_window))
    sig, sigp, en = _poly_sigma(coeffs, kappa)
    lam, critical = _poly_structure(coeffs, kappa, window, sig, sigp)
    return StressModel(
        name=name, sigma=sig, sigma_prime=sigp, lambda_=lam, critical_data=critical,
        domain=domain, theta=theta, eval_window=window, closed_form_energy=en, spec=spec,
    )
