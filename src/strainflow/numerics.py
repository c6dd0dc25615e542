"""Low-level numerical kernels.

One bracketed root finder, batched Newton safeguarded by bisection, for
every scalar level set (the stress level sets and the cumulative-curve
inversions); one adaptive quadrature kernel, interval halving on
interior-node Gauss panels (so integrable endpoint singularities never get
sampled), whose tolerance bounds each kept panel and which takes scalar or
array endpoints, so that a cumulative curve's table, its point values and
each step of its inversion cost one ``f`` call per refinement level; and
an embedded Runge-Kutta 5(4) driver with PI step-size control whose state
may be an ensemble (members x dim) integrated in one call, each member held
to the tolerance by its own error norm, and whose cost at small dimensions
is its numpy calls per step.
Everything here is independent of the stress-model layer, so the higher
modules can cross-check each other through these primitives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BracketError,
    IntegrabilityError,
    IterationBudgetError,
    StiffnessError,
    StrainflowError,
)

# 5-point Gauss-Legendre rule on (-1, 1). All nodes are interior, which lets
# the adaptive scheme integrate up to an endpoint where the integrand is
# singular-but-integrable (it is never evaluated there).
_GL_NODES = np.array(
    [
        -0.906179845938663993,
        -0.538469310105683091,
        0.0,
        0.538469310105683091,
        0.906179845938663993,
    ]
)
_GL_WEIGHTS = np.array(
    [
        0.236926885056189088,
        0.478628670499366468,
        0.568888888888888889,
        0.478628670499366468,
        0.236926885056189088,
    ]
)
# Panels of one quad_adaptive refinement level over all components: bounds a
# call's memory (the largest level seen: 4,096 in the tests, 110 in runs).
_QUAD_MAX_PANELS = 2 ** 17


def quad_adaptive(f, a, b, tol: float = 1e-10):
    """int_a^b f, componentwise for array endpoints (broadcast together),
    with one ``f`` call per refinement level; scalar endpoints give a float.

    A panel's 5-point Gauss value is compared with the sum over its two
    halves; the Richardson-corrected halves are kept when the difference is
    within ``tol``, and the panel is split otherwise. ``tol`` bounds each
    kept panel's error estimate, not that of the whole integral: a share of
    ``tol`` per panel would let roundoff in ``f`` (such as the cancellation
    in a stress evaluated near its root) force endless splits, and the kept
    value is far more accurate than the estimate. ``f`` must accept numpy
    arrays of any shape. Endpoints are never evaluated, so integrable
    endpoint singularities are fine; b < a gives the negated integral.
    Raises IntegrabilityError on a panel too narrow to split whose value is
    not finite or whose estimate misses ``tol`` (1/z at 0), and
    IterationBudgetError when a component needs more than 4096 splits or a
    refinement level more than ``_QUAD_MAX_PANELS`` panels.
    """
    shape = np.broadcast(a, b).shape
    a, b = (np.array(x, dtype=float).ravel() for x in np.broadcast_arrays(a, b))
    total = np.zeros(a.size)
    owner = np.arange(a.size)
    whole = None
    splits = np.zeros(a.size, dtype=int)
    while owner.size:
        m = 0.5 * (a + b)
        lo = np.array((a, m)) if whole is not None else np.array((a, a, m))
        hi = np.array((m, b)) if whole is not None else np.array((b, m, b))
        half = 0.5 * (hi - lo)
        pts = (0.5 * (lo + hi))[..., None] + half[..., None] * _GL_NODES
        sums = half * (np.asarray(f(pts), dtype=float) @ _GL_WEIGHTS)
        if whole is None:
            whole, sums = sums[0], sums[1:]
        left, right = sums
        halves = left + right
        with np.errstate(invalid="ignore"):
            err = np.abs(halves - whole)
            value = halves + (halves - whole) / 1023.0
        splittable = np.abs(b - a) > 1e-15 * np.maximum(np.abs(a), np.abs(b)) + 1e-300
        done = np.isfinite(value) & (err <= tol)
        if (~done & ~splittable).any():
            i = np.flatnonzero(~done & ~splittable)[0]
            raise IntegrabilityError(
                f"integrand not finite or not resolved on the unsplittable ({a[i]!r}, {b[i]!r})"
            )
        np.add.at(total, owner[done], value[done])
        split = ~done
        splits += np.bincount(owner[split], minlength=total.size)
        if (splits > 4096).any() or 2 * np.count_nonzero(split) > _QUAD_MAX_PANELS:
            raise IterationBudgetError("adaptive quadrature needs more than 4096 panel "
                                       f"splits or {_QUAD_MAX_PANELS} live panels")
        a, b = np.concatenate([a[split], m[split]]), np.concatenate([m[split], b[split]])
        whole = np.concatenate([left[split], right[split]])
        owner = np.concatenate([owner[split], owner[split]])
    return float(total[0]) if shape == () else total.reshape(shape)


_BISECT_MAX_ITER = 200  # iterations per bisect_root call


def _midpoints(lo, hi):
    """Bisection points: the geometric midpoint sqrt(lo) sqrt(hi) of a
    positive bracket with hi > 10 lo, so a bracket spanning decades (a level
    set near a singular start) is cut in log steps, and (lo + hi) / 2 of
    every other bracket."""
    mid = 0.5 * (lo + hi)
    wide = (lo > 0.0) & (hi > 10.0 * lo)
    if wide.any():
        mid[wide] = np.sqrt(lo[wide]) * np.sqrt(hi[wide])  # no under- or overflow
    return mid


# Named for its bisection fallback: perfbench/spans.py traces it by this name.
def bisect_root(f, fprime, lo, hi, xtol: float = 1e-12):
    """Roots of ``f`` on sign-changing brackets [lo, hi] (arrays broadcast
    together; scalars give a float), by Newton steps safeguarded with
    bisection, as in Numerical Recipes' ``rtsafe``.

    ``f`` and ``fprime`` are called as ``(x, i)``: the iterates of the
    brackets still open and their flat indices, so a closed bracket is never
    evaluated again. Each iterate (the midpoint first) shrinks its bracket
    to the sign change; the next is the Newton step if it lands strictly
    inside, the midpoint if not (or if the step is not finite), geometric on
    a positive bracket with hi > 10 lo (``_midpoints``). A bracket
    closes on an exact zero: at an iterate, or at 0 for a bracket with
    lo < 0 < hi, whose first call evaluates 0 too (Newton nears a root of
    multiplicity 3 or more at 0 too slowly for the width stop); on a
    Newton correction of at most xtol * |x|, returning x minus it even on or
    past a bracket end, which the converged iterate is; or at the midpoint
    once hi - lo <= xtol * max(|lo|, |hi|). Signs are compared directly:
    products underflow for subnormal values. Raises BracketError on a
    bracket without a sign change, and IterationBudgetError on one still
    open after _BISECT_MAX_ITER iterations.
    """
    shape = np.broadcast(lo, hi).shape
    lo, hi = (np.array(v, dtype=float).ravel() for v in np.broadcast_arrays(lo, hi))
    n = lo.size
    i = np.arange(n)
    across = np.flatnonzero((lo < 0.0) & (0.0 < hi))  # 0 is evaluated once for these
    f_first = np.asarray(f(np.concatenate([lo, hi, np.zeros(across.size)]),
                           np.concatenate([i, i, across])), dtype=float)
    flo, fhi = f_first[:n], f_first[n:2 * n]
    lo_pos = flo > 0.0  # every later lo keeps this sign
    live = (flo != 0.0) & (fhi != 0.0)
    bad = live & (lo_pos == (fhi > 0.0))
    if np.any(bad):
        i = np.flatnonzero(bad)[0]
        raise BracketError(f"no sign change on [{lo[i]!r}, {hi[i]!r}]")
    out = np.where(flo == 0.0, lo, hi)  # an exact zero at a bracket end is the root
    at_zero = across[(f_first[2 * n:] == 0.0) & live[across]]
    out[at_zero] = 0.0
    live[at_zero] = False
    i = np.flatnonzero(live)
    lo, hi, lo_pos = lo[i], hi[i], lo_pos[i]
    x = _midpoints(lo, hi)
    for _ in range(_BISECT_MAX_ITER):
        if i.size == 0:
            break
        fx = np.asarray(f(x, i), dtype=float)
        dfx = np.asarray(fprime(x, i), dtype=float)
        same = (fx > 0.0) == lo_pos
        lo, hi = np.where(same, x, lo), np.where(same, hi, x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = np.where(np.isfinite(dfx), fx / dfx, np.nan)
        newton = x - step
        zero = fx == 0.0
        tiny = zero | (np.abs(step) <= xtol * np.abs(x))
        narrow = hi - lo <= xtol * np.maximum(np.abs(lo), np.abs(hi))
        # a narrow bracket is never wide: its midpoint is (lo + hi) / 2
        out[i] = np.where(zero, x, np.where(tiny, newton, 0.5 * (lo + hi)))
        inside = (lo < newton) & (newton < hi)
        x = newton if inside.all() else np.where(inside, newton, _midpoints(lo, hi))
        keep = ~(tiny | narrow)
        i, lo, hi, lo_pos, x = i[keep], lo[keep], hi[keep], lo_pos[keep], x[keep]
    if i.size:
        raise IterationBudgetError(
            f"root finding left {i.size} bracket(s) open after {_BISECT_MAX_ITER} iterations"
        )
    return float(out[0]) if shape == () else out.reshape(shape)


class CumulativeCurve:
    """Cumulative integral x -> int_{x0}^{x} f(z) dz.

    Panel sums are precomputed on a fixed node grid so that point values cost
    one short local quadrature, and inversion costs a table lookup plus one
    ``bisect_root`` call (the derivative is ``f`` itself). ``tol`` bounds
    each kept quadrature panel, as in ``quad_adaptive``. Only ``invert``
    needs the curve monotone, that is f > 0 between the nodes.
    """

    def __init__(self, f, nodes: np.ndarray, tol: float = 1e-10, x0: float | None = None):
        self.f = f
        self.nodes = np.asarray(nodes, dtype=float)
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        self.tol = tol
        start = self.nodes[0] if x0 is None else x0
        lefts = np.concatenate([[start], self.nodes[:-1]])
        self.cum = np.cumsum(quad_adaptive(f, lefts, self.nodes, tol))

    def value(self, x):
        """The curve at ``x``, componentwise for an array (a scalar gives a
        float): each point's table entry plus one batch quadrature from the
        left node of its panel."""
        x = np.asarray(x, dtype=float)
        j = np.clip(np.searchsorted(self.nodes, x) - 1, 0, len(self.nodes) - 1)
        out = self.cum[j] + quad_adaptive(self.f, self.nodes[j], x, self.tol)
        return float(out) if x.ndim == 0 else out

    @property
    def max_value(self) -> float:
        return float(self.cum[-1])

    def invert(self, target):
        """Solve value(x) = target; clips to the tabulated range.

        ``target`` may be an array, solved componentwise by one
        ``bisect_root`` call (a scalar target gives a float). Each target's
        bracket is its table panel, whose left node is a fixed anchor, so
        value(x) is the anchor's table entry plus one batch quadrature from
        the anchor, and the derivative is ``f`` itself.
        """
        t = np.asarray(target, dtype=float)
        flat = t.ravel()
        out = np.where(flat <= self.cum[0], self.nodes[0], self.nodes[-1])
        inside = (flat > self.cum[0]) & (flat < self.cum[-1])
        goal = flat[inside]
        j = np.searchsorted(self.cum, goal) - 1
        anchor, g_anchor = self.nodes[j], self.cum[j]
        out[inside] = bisect_root(
            lambda x, i: g_anchor[i] + quad_adaptive(self.f, anchor[i], x, self.tol) - goal[i],
            lambda x, i: self.f(x), anchor, self.nodes[j + 1],
        )
        return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)


# --- embedded Runge-Kutta 5(4), Dormand-Prince coefficients ---

_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_ERR = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)


_DT_MIN = 1e-14  # proposed step below which rk45 raises StiffnessError
_SAFETY = 0.9  # safety factor of the PI step-size control


@dataclass
class RKResult:
    times: np.ndarray
    states: np.ndarray          # (n_records, dim) or (n_records, members, dim)
    aux_integral: np.ndarray    # cumulative integral of the aux rate at records
    n_steps: int = 0
    n_rejected: int = 0


def rk45(
    f,
    y0: np.ndarray,
    t_record: np.ndarray,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    accept_state=None,
    stage_rate=None,
) -> RKResult:
    """Adaptive Dormand-Prince 5(4) integration recording at ``t_record``.

    ``y0`` is one state (dim,) or an ensemble (members, dim) sharing the
    steps; ``f`` and ``accept_state`` see the state's shape
    and the records come back as (records,) + y0.shape. ``f(y, out)``
    writes the derivative at ``y`` into all of ``out``, the stage's slot in
    the 7-stage stack, and keeps neither array: both are buffers that rk45
    reuses, and its return value is ignored. The step's error norm is the
    RMS of the scaled errors over each member's components, maximised over
    members, so every accepted step passes each member's own error test at
    ``rtol``/``atol``.

    The pair is FSAL by construction: the seventh stage's argument is the
    fifth-order solution y_new itself (its last weight is an exact 0), so
    that stage is f at y_new and opens the next step. ``accept_state(y_old,
    y_new)`` can veto a step (domain exits, ordering); vetoed steps are
    retried with a quarter of the step size. The hook runs once per step
    and costs its numpy calls, so it should answer with ufunc reductions
    (``np.minimum.reduce(y) > 0``) rather than the ``ndarray.min``/``all``
    wrappers. Linear first integrals of ``f`` (the held flow's mass) are
    kept by the pair itself, as by every Runge-Kutta method, so no step is
    corrected after it is accepted. ``stage_rate(k)`` maps the 7-stage
    stack k, shape (7,) + y0.shape, to the 7 rates whose time integral is
    accumulated with the fifth-order weights (dissipation).

    Raises StiffnessError when a rejection, or an accepted step that was not
    clamped to a record time, leaves a proposed step below ``_DT_MIN``. A
    StrainflowError raised while stepping carries the records reached so far
    as ``exc.partial``, an RKResult; ``displacement.integrate`` replaces it by
    the Trajectory of those records, and ``mixed.solve_field`` lets it through.
    """
    t_record = np.asarray(t_record, dtype=float)
    if t_record.ndim != 1 or len(t_record) == 0:
        raise ValueError("t_record must be a non-empty 1-d array")
    if not (np.isfinite(t_record).all() and np.all(np.diff(t_record) > 0)):
        raise ValueError("t_record must be finite and strictly increasing")

    y = np.array(y0, dtype=float)
    t = float(t_record[0])
    records = np.empty((len(t_record),) + y.shape)
    aux = np.zeros(len(t_record))
    records[0] = y
    aux_total = 0.0

    # PI step-size control: h is the proposed step, err_prev the last accepted error
    h = min(1e-4, t_record[-1] - t_record[0])
    err_prev = 1.0

    k = np.empty((7,) + y.shape)
    kf = k.reshape(7, -1)  # flat views: one stage sum for every member at once
    heads = [kf[:s] for s in range(7)]  # the stages each stage sum reads
    stage = list(k)  # the slot each stage's f call writes
    dim = y.shape[-1]
    ys = np.empty(y.shape)  # a stage's argument, then the scaled error
    ys_f, err_rows = ys.reshape(-1), ys.reshape(-1, dim)
    # y_new goes to whichever of the two does not hold y
    y_bufs = [(b, b.reshape(-1)) for b in (np.empty(y.shape), np.empty(y.shape))]
    abs_y, abs_new, scale = np.abs(y), np.empty(y.shape), np.empty(y.shape)
    t_rec = t_record.tolist()
    n_rec = len(t_rec)
    n_steps = 0
    n_rejected = 0
    idx = 1
    try:
        f(y, stage[0])  # from here on k[0] holds f at y (FSAL)
        while idx < n_rec:
            dt = min(h, t_rec[idx] - t)
            clamped = dt < h
            for s in range(1, 6):
                np.dot(_DP_A[s], heads[s], out=ys_f)
                ys *= dt
                ys += y
                f(ys, stage[s])
            # stage 6's argument is the fifth-order solution: _DP_A[6] is
            # _DP_B5 without its last weight, an exact 0
            y_new, y_new_f = y_bufs[y is y_bufs[0][0]]
            np.dot(_DP_A[6], heads[6], out=y_new_f)
            y_new *= dt
            y_new += y
            f(y_new, stage[6])
            np.dot(_DP_ERR, kf, out=ys_f)
            ys *= dt
            np.abs(y_new, out=abs_new)
            np.maximum(abs_y, abs_new, out=scale)
            scale *= rtol
            scale += atol
            ys /= scale
            ys *= ys
            # RMS over each member's components, max over members (taken
            # first: it commutes with the monotone division and square root)
            err = math.sqrt(float(np.maximum.reduce(np.add.reduce(err_rows, 1))) / dim)

            # a NaN anywhere in y_new is a NaN maximum
            bad = not err <= 1.0 or not math.isfinite(np.maximum.reduce(abs_new, None))
            if not bad and accept_state is not None and not accept_state(y, y_new):
                bad = True
                err = float("nan")
            if bad:
                n_rejected += 1
                finite = math.isfinite(err) and err > 0
                h *= max(0.2, _SAFETY * err ** (-1.0 / 5.0)) if finite else 0.25
                # k[0] still holds f at the unchanged y
                if h < _DT_MIN:
                    raise StiffnessError(f"step size underflow at t={t!r} (dt={h!r})")
                continue

            if stage_rate is not None:
                aux_total += dt * float(_DP_B5 @ stage_rate(k))
            t += dt
            n_steps += 1
            k[0] = k[6]  # FSAL: f at y_new
            y = y_new
            abs_y, abs_new = abs_new, abs_y
            if not clamped:
                err = max(err, 1e-12)
                h *= min(5.0, max(0.2, _SAFETY * err ** (-0.7 / 5.0) * err_prev ** (0.4 / 5.0)))
                err_prev = err
            while idx < n_rec and t >= t_rec[idx] - 1e-14 * max(1.0, abs(t)):
                records[idx] = y
                aux[idx] = aux_total
                idx += 1
            # a step clamped to a record time leaves h as it was
            if not clamped and h < _DT_MIN and idx < n_rec:
                raise StiffnessError(f"step size underflow at t={t!r} (dt={h!r})")
    except StrainflowError as exc:
        exc.partial = RKResult(times=t_record[:idx], states=records[:idx],
                               aux_integral=aux[:idx], n_steps=n_steps, n_rejected=n_rejected)
        raise
    return RKResult(times=t_record, states=records, aux_integral=aux, n_steps=n_steps, n_rejected=n_rejected)


def trailing_window(times: np.ndarray, frac: float) -> np.ndarray:
    """Mask of the records in the last ``frac`` of time (the last one if none is)."""
    times = np.asarray(times, dtype=float)
    window = times >= times[-1] - frac * (times[-1] - times[0])
    window[-1] |= not window.any()
    return window


def trailing_stats(times: np.ndarray, series: np.ndarray, frac: float = 0.1) -> tuple[float, float]:
    """Mean and spread (max - min) of a series over its ``trailing_window``."""
    window = np.asarray(series, dtype=float)[trailing_window(times, frac)]
    return float(np.mean(window)), float(np.max(window) - np.min(window))
