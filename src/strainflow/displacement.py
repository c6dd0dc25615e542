"""The mean-constrained nonlocal flow dp_i/dt = -sigma(p_i) + sum_j w_j sigma(p_j).

Two steppers with independent mechanics cross-validate each other:

* an explicit embedded Runge-Kutta 5(4) pair with PI step control and step
  rejection on domain exit or ordering violation;
* a proximal (implicit Euler) step that solves the stationarity system
  sigma(v_i) + (v_i - p_i)/tau = c under the mass constraint by damped
  Newton on its KKT system, whose diagonal-plus-rank-one matrix gives each
  step and the multiplier c in closed form.

The flow conserves the mean strain exactly (a linear first integral, which
the Runge-Kutta pair keeps and each proximal solve imposes) and dissipates
the stored energy; the diagnostics measure both facts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, DomainError, IterationBudgetError, StrainflowError
from .numerics import rk45
from .state import SimpleState, Trajectory, state_distance
from .stress_models import POSITIVE, StressModel, eval_W

CONVERGENCE_TOL = 1e-8   # weighted velocity norm below which a state counts as settled
ZERO_FLOOR = 1e-12       # strain a traction-free zero is evaluated at on (0, inf)
ORDER_SLACK = 1e-12      # roundoff allowance in the ordering guard
_PROX_MAX_ITER = 100     # Newton steps per proximal step
_PROX_RES_TOL = 1e-14    # relative residual that ends a proximal solve
_PROX_SPREAD_TOL = 1e-10  # relative stationarity spread a roundoff stop must meet
_PROX_MIN_STEP = 2.0 ** -40  # shortest damped Newton step tried
_GRONWALL_RUN = {"rtol": 1e-10, "atol": 1e-13, "n_records": 41}  # integrate settings of both runs
_QUARTIC = np.array([1.0, -5.0, 10.0, -10.0, 5.0])  # the next of five equally spaced points


def _require_strict_domain(model: StressModel, values: np.ndarray) -> None:
    if model.domain == POSITIVE and not np.minimum.reduce(values) > 0.0:
        raise DomainError("the mean-constrained flow needs strictly positive strains")


def _velocity(model: StressModel, weights: np.ndarray, values: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """c - sigma(values), c the weighted mean stress, written into ``out``
    (a new array when it is None)."""
    sig = np.asarray(model.sigma(values), dtype=float)
    return np.subtract(float(np.dot(weights, sig)), sig, out=out)


# -- explicit stepper ---------------------------------------------------------


def _order_permutation(values: np.ndarray) -> np.ndarray:
    return np.argsort(values, kind="stable")


def _ordering_ok(perm: np.ndarray, values: np.ndarray) -> bool:
    v = values[perm]
    drop = float(np.minimum.reduce(v[1:] - v[:-1], initial=np.inf))  # the scale only matters below 0
    return drop >= 0.0 or drop >= -ORDER_SLACK * max(1.0, float(np.maximum.reduce(np.abs(v))))


# -- proximal (implicit Euler) stepper ----------------------------------------


def _check_tau(model: StressModel, tau: float) -> None:
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    lam = model.lambda_
    if lam > 0.0 and tau >= 1.0 / lam:
        raise StrainflowError(
            f"tau = {tau} >= 1/lambda = {1.0 / lam}; the proximal map loses "
            "monotonicity"
        )


def prox_step(model: StressModel, state: SimpleState, tau: float) -> SimpleState:
    """Implicit Euler with a mass multiplier: one minimising-movement step.

    Minimises sum_i w_i [W(v_i) + (v_i - p_i)^2 / 2 tau] under sum_i w_i v_i =
    mu, strictly convex for tau < 1/lambda, by damped Newton on its KKT system
    from v = p (``_prox_solve``). Raises ValueError for tau <= 0,
    StrainflowError for tau >= 1/lambda and DomainError for a strain off the
    law's domain.
    """
    _check_tau(model, tau)
    _require_strict_domain(model, state.values)
    v, _, _ = _prox_solve(model, state.values, state.weights, state.mu, tau, state.values)
    return state.with_values(v)


def _prox_solve(model: StressModel, p: np.ndarray, w: np.ndarray, mu: float, tau: float,
                start: np.ndarray) -> tuple[np.ndarray, int, float]:
    """The proximal point of ``p`` (weights ``w``, mass ``mu``, step ``tau``,
    all checked by the caller) as ``(v, newton_iters, residual)``: the point,
    its sigma' evaluations and the relative residual it was accepted at.

    Damped Newton starts from ``start``, where on (0, inf) each component at
    or below half of p's is replaced by p's: Newton needs more steps the
    further below p a strain starts. With g = sigma(v) + (v - p)/tau and
    d = sigma'(v) + 1/tau > 0, the multiplier is c = sum w g/d / sum w/d and
    the step (c - g)/d keeps the mass. Steps are halved until the point is in
    the domain and the residual res = sum_i w_i (g_i - gbar)^2, gbar =
    sum_j w_j g_j, falls (Armijo), so W is never evaluated.

    A point is accepted on its residual: the solve returns once the relative
    residual sqrt(res) / max(1, |gbar|) <= ``_PROX_RES_TOL``. Its roundoff
    stops (a Newton correction at roundoff, a full step too short for Armijo)
    accept a point only if its relative stationarity spread (max g - min g) /
    max(1, max |g|) is at most ``_PROX_SPREAD_TOL``, and raise StrainflowError
    otherwise, as when sigma' overflows near a singular stress. Raises
    IterationBudgetError after ``_PROX_MAX_ITER`` steps, and StrainflowError
    when no step length lowers a residual off roundoff. The accepted point's
    mass is shifted to ``mu`` exactly.
    """
    sigma, sigma_prime, rate = model.sigma, model.sigma_prime, 1.0 / tau
    positive = model.domain == POSITIVE

    def gradient(v):  # built in an array of its own: sigma(v) may be shared
        g = v - p
        g /= tau
        g += sigma(v)
        return g

    def residual(g):  # res and the relative residual sqrt(res) / max(1, |gbar|)
        gbar = float(np.dot(w, g))
        r = g - gbar
        res = float(np.dot(w, r * r))
        return res, math.sqrt(res) / max(1.0, abs(gbar))

    v = np.where(start > 0.5 * p, start, p) if positive else start
    # near a singular stress sigma' and the residual overflow; the spread test
    # below turns that into an error, so no warning is due. A non-finite
    # trial gives a NaN residual, which Armijo rejects.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        g = gradient(v)
        res, relative = residual(g)
        for k in range(1, _PROX_MAX_ITER + 1):
            d = np.asarray(sigma_prime(v), dtype=float) + rate
            c = float(np.dot(w, g / d)) / float(np.dot(w, 1.0 / d))
            delta = (c - g) / d
            # relative to each strain on (0, inf): near a singular stress at 0
            # a step can be tiny in absolute terms and still double the strain
            scale = v if positive else np.maximum(1.0, np.abs(v))
            size = float(np.maximum.reduce(np.abs(delta) / scale))
            if size <= 1e-15:
                break
            # a full Newton step this short fails the Armijo test only when
            # the residual is at roundoff
            short = size <= 1e-8
            alpha = 1.0
            while alpha >= (1.0 if short else _PROX_MIN_STEP):
                trial = v + alpha * delta
                if not positive or np.minimum.reduce(trial) > 0.0:
                    g_trial = gradient(trial)
                    res_trial, relative_trial = residual(g_trial)
                    if res_trial <= (1.0 - 1e-4 * alpha) * res:
                        break
                alpha *= 0.5
            else:
                if short:
                    break
                raise StrainflowError(
                    f"proximal Newton line search stalled at step size {size:.3g}"
                )
            v, g, res, relative = trial, g_trial, res_trial, relative_trial
            if relative <= _PROX_RES_TOL:
                break
        else:
            raise IterationBudgetError(
                f"proximal Newton solve did not converge in {_PROX_MAX_ITER} steps"
            )
        if not relative <= _PROX_RES_TOL:
            spread = (np.maximum.reduce(g) - np.minimum.reduce(g)) / max(
                1.0, np.maximum.reduce(np.abs(g)))
            if not spread <= _PROX_SPREAD_TOL:
                raise StrainflowError(
                    f"proximal Newton solve stopped at a relative step of {size:.3g} "
                    f"with relative stationarity spread {spread:.3g} > {_PROX_SPREAD_TOL:g}"
                )
    v = v + (mu - float(np.dot(w, v)))  # exact mass
    return v, k, relative


# -- trajectory driver --------------------------------------------------------


def _record_grid(t_final: float, record_every: float | None, n_records: int | None):
    if record_every is not None:
        grid = np.arange(0.0, t_final + 0.5 * record_every, record_every)
        # a last point short of t_final by rounding only is snapped, not doubled
        if t_final - grid[-1] > 1e-9 * record_every:
            grid = np.append(grid, t_final)
        grid[-1] = t_final
        return grid
    n = n_records or 201
    return np.linspace(0.0, t_final, n)


def _diagnostics(model: StressModel, times, values, weights, diss_cum, metadata, *,
                 held: bool) -> Trajectory:
    """The trajectory of a flow from its records; the velocity is c - sigma,
    c the weighted stress mean, when ``held`` and -sigma when traction-free,
    where a zero strain on (0, inf) is evaluated at ZERO_FLOOR."""
    floored = np.maximum(values, ZERO_FLOOR) if not held and model.domain == POSITIVE else values
    sig = np.asarray(model.sigma(floored), dtype=float)
    c = sig @ weights
    vel = -sig + c[:, None] if held else -sig
    with np.errstate(over="ignore"):  # inf near a singular stress, its float value
        diss_rate = (vel ** 2) @ weights
    energy = np.asarray(eval_W(model, floored.ravel()), dtype=float).reshape(sig.shape) @ weights
    return Trajectory(
        times=np.asarray(times, dtype=float),
        values=values,
        weights=weights,
        stress_mean=c,
        energy=energy,
        dissipation=diss_rate,
        dissipation_cum=np.asarray(diss_cum, dtype=float),
        metadata=metadata,
        converged=bool(np.sqrt(diss_rate[-1]) < CONVERGENCE_TOL),
    )


def integrate(
    model: StressModel,
    state0: SimpleState,
    t_final: float,
    stepper: str = "rk45",
    record_every: float | None = None,
    n_records: int | None = None,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    tau: float = 1e-2,
) -> Trajectory:
    """Advance the nonlocal flow to ``t_final`` recording on a uniform grid.

    The proximal stepper takes steps min(tau, time to the next record), each
    checked as ``prox_step`` checks its own, on the run's mass. Each Newton
    solve (``_prox_solve``) starts, after four steps of this length (1e-9
    relative), from the quartic 5 p - 10 p_-1 + 10 p_-2 - 5 p_-3 + p_-4 through
    the last five points (about 1.19 sigma' calls per step on held-prox), else
    from the line p + (dt / dt_prev) (p - p_prev) and on the first step from p:
    the path is smooth in the step index, not in t.

    A StrainflowError from the stepper propagates; its ``exc.partial`` is the
    Trajectory of the records reached, with the solver counters.
    """
    if t_final <= 0.0:
        raise ValueError("t_final must be positive")
    _require_strict_domain(model, state0.values)
    w = state0.weights
    mu = state0.mu
    grid = _record_grid(t_final, record_every, n_records)
    meta = {
        "kind": "displacement",
        "model": model.spec,
        "stepper": stepper,
        "mu": mu,
        "t_final": t_final,
        "rtol": rtol,
        "atol": atol,
        "tau": tau if stepper == "prox" else None,
    }

    if stepper == "rk45":
        perm = _order_permutation(state0.values)

        def accept(y_old, y_new):
            if model.domain == POSITIVE and not np.minimum.reduce(y_new) > 0.0:
                return False
            return _ordering_ok(perm, y_new)

        def trajectory(res):
            meta.update(n_steps=res.n_steps, n_rejected=res.n_rejected)
            return _diagnostics(model, res.times, res.states, w, res.aux_integral, meta, held=True)

        try:
            res = rk45(
                lambda v, out: _velocity(model, w, v, out), state0.values, grid,
                rtol=rtol, atol=atol, accept_state=accept,
                stage_rate=lambda k: (k * k) @ w,
            )
        except StrainflowError as exc:
            exc.partial = trajectory(exc.partial)  # rk45's records reached
            raise
        return trajectory(res)

    if stepper == "prox":
        values = np.empty((len(grid), state0.n))
        diss_cum = np.zeros(len(grid))
        values[0] = p = state0.values
        recent, lengths = [p], []  # the last five points and four step lengths
        total = 0.0
        t = 0.0
        idx = 1
        n_steps = newton_iters = 0
        max_residual = 0.0

        def trajectory():  # of the records reached
            meta.update(newton_iters=newton_iters, max_residual=max_residual, n_steps=n_steps)
            return _diagnostics(model, grid[:idx], values[:idx], w, diss_cum[:idx], meta, held=True)

        try:
            while idx < len(grid):
                dt = min(tau, grid[idx] - t)
                _check_tau(model, dt)
                _require_strict_domain(model, p)
                if len(recent) == 5 and all(abs(h - dt) <= 1e-9 * dt for h in lengths):
                    start = np.dot(_QUARTIC, recent)
                else:
                    start = p + (dt / lengths[-1]) * (p - recent[-2]) if lengths else p
                v, iters, relative = _prox_solve(model, p, w, mu, dt, start)
                total += float(np.dot(w, (v - p) ** 2)) / dt
                n_steps += 1
                newton_iters += iters
                max_residual = max(max_residual, relative)
                recent, lengths, p = recent[-4:] + [v], lengths[-3:] + [dt], v
                t += dt
                while idx < len(grid) and t >= grid[idx] - 1e-12 * max(1.0, t):
                    values[idx] = p
                    diss_cum[idx] = total
                    idx += 1
        except StrainflowError as exc:
            exc.partial = trajectory()
            raise
        return trajectory()

    raise ValueError(f"unknown stepper {stepper!r}")


# -- initial data -------------------------------------------------------------


def approximate_initial_data(p0_samples, n_values: int) -> tuple[SimpleState, np.ndarray]:
    """Strictly positive simple approximation of sampled nonnegative data.

    Level-quantizes the sorted samples into ``n_values`` blocks (each block
    keeps its minimum, so the quantization is a nondecreasing minorant), then
    rescales (q + 1/N) to carry exactly the sample mean. Returns the state and
    the block assignment of every original sample, for reconstructing fields.
    """
    samples = np.asarray(p0_samples, dtype=float)
    if samples.ndim != 1 or len(samples) == 0:
        raise ValueError("p0_samples must be a non-empty 1-d array")
    if np.any(samples < 0.0):
        raise DomainError("samples must be nonnegative")
    mu = float(np.mean(samples))
    if mu <= 0.0:
        raise DegenerateDataError("data carries no mass (zero mean)")
    m = len(samples)
    n = int(min(n_values, m))
    if n < 1:
        raise ValueError("need at least one level")

    order = np.argsort(samples, kind="stable")
    sorted_vals = samples[order]
    edges = np.round(np.linspace(0, m, n + 1)).astype(int)
    edges = np.unique(edges)
    q_levels = sorted_vals[edges[:-1]]  # block minima

    # merge equal neighbouring minima (a constant field quantizes to one value)
    first = np.append(True, q_levels[1:] != q_levels[:-1])
    block_of = np.cumsum(first) - 1
    q = q_levels[first]
    wts = np.bincount(block_of, weights=np.diff(edges) / m)
    qbar = float(np.dot(wts, q))
    nn = float(n)
    vals = mu * (q + 1.0 / nn) / (qbar + 1.0 / nn)
    vals = vals + (mu - float(np.dot(wts, vals)))  # exact mass

    # assignment of each original sample to its merged block
    raw_block = np.searchsorted(edges, np.arange(m), side="right") - 1
    assignment = np.empty(m, dtype=int)
    assignment[order] = block_of[raw_block]
    return SimpleState(values=vals, weights=wts), assignment


def seeded_state(model: StressModel, n: int, mu: float, seed: int,
                 lo: float | None = None, hi: float | None = None) -> SimpleState:
    """Reproducible random equal-weight state with mean exactly ``mu``."""
    rng = np.random.default_rng(seed)
    if model.domain == POSITIVE:
        lo = 0.05 if lo is None else lo
        hi = 2.5 if hi is None else hi
        raw = rng.uniform(lo, hi, n)
        raw = raw * (mu * n / raw.sum())  # multiplicative: keeps positivity
    else:
        lo = -1.5 if lo is None else lo
        hi = 2.5 if hi is None else hi
        raw = rng.uniform(lo, hi, n)
        raw = raw + (mu - raw.mean())
    state = SimpleState.uniform(raw)
    return state.with_values(raw + (mu - state.mu))


# -- rearrangement and contraction --------------------------------------------


def rearrange(state: SimpleState) -> tuple[SimpleState, np.ndarray]:
    """Nondecreasing rearrangement; the permutation is the discrete
    measure-preserving map back to the original labelling (stable on ties)."""
    perm = np.argsort(state.values, kind="stable")
    return SimpleState(values=state.values[perm], weights=state.weights[perm]), perm


@dataclass(frozen=True)
class GronwallReport:
    ratio_max: float
    lam: float
    passed: bool
    times: np.ndarray
    ratios: np.ndarray


def gronwall_check(model: StressModel, state_a: SimpleState, state_b: SimpleState,
                   t_final: float) -> GronwallReport:
    """Ratio of squared distances ||A(t)-B(t)||^2 / (e^{2 lambda t} ||A0-B0||^2)
    along two runs; PASS when it never exceeds 1 + 1e-6. A failed run raises
    the StrainflowError of ``integrate``, whose ``exc.partial`` is that run's
    Trajectory."""
    if not np.allclose(state_a.weights, state_b.weights, rtol=0, atol=1e-15):
        raise ValueError("both states must carry the same weights")
    lam = model.lambda_
    d0 = state_distance(state_a, state_b)
    ta = integrate(model, state_a, t_final, **_GRONWALL_RUN)
    tb = integrate(model, state_b, t_final, **_GRONWALL_RUN)
    w = state_a.weights
    d2 = ((ta.values - tb.values) ** 2) @ w
    if d0 == 0.0:
        ratios = np.zeros_like(d2)  # identical data: uniqueness, guarded ratio
    else:
        ratios = d2 / (np.exp(2.0 * lam * ta.times) * d0 * d0)
    ratio_max = float(np.max(ratios))
    return GronwallReport(
        ratio_max=ratio_max,
        lam=lam,
        passed=bool(ratio_max <= 1.0 + 1e-6),
        times=ta.times,
        ratios=ratios,
    )
