"""Low-level numerical kernels.

Bracketed root finding (scalar and vectorized); one adaptive quadrature
kernel, interval halving on interior-node Gauss panels (so integrable
endpoint singularities never get sampled), whose tolerance bounds each kept
panel and which takes scalar or array endpoints, so that a cumulative
curve's table, its point values and each step of its inversion cost one
``f`` call per refinement level; truncated improper integrals, several
doubling segments to a kernel call, with geometric tail extrapolation; and
an embedded Runge-Kutta 5(4) driver with PI step-size control whose state
may be an ensemble (members x dim) integrated in one call, each member held
to the tolerance by its own error norm, and whose cost at small dimensions
is its numpy calls per step. Everything here is independent of the
stress-model layer, so the higher modules can cross-check each other
through these primitives.
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
_TAIL_BATCH = 8  # doubling segments per quad_adaptive call in quad_to_infinity
_TAIL_MAX_SEGMENTS = 64  # doubling segments before a tail counts as not converging
_TAIL_RATIO_CAP = 0.8  # segment-sum decay ratio above which a tail counts as divergent


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
    Raises IntegrabilityError on a non-finite panel that cannot be split, and
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
        finite = np.isfinite(value)
        if (~finite & ~splittable).any():
            i = np.flatnonzero(~finite & ~splittable)[0]
            raise IntegrabilityError(
                f"integrand not finite and not resolvable on ({a[i]!r}, {b[i]!r})"
            )
        done = finite & (~splittable | (err <= tol))
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


def quad_to_infinity(f, a: float, tol: float = 1e-9) -> float:
    """Integrate ``f`` over (a, infinity).

    Sums ``quad_adaptive`` integrals over geometrically doubling segments,
    each to ``tol``/16 per kept panel, and closes the remainder with a
    geometric-series extrapolation of the last segment. The Cauchy test for
    convergence is that segment sums decay with a stable ratio below
    ``_TAIL_RATIO_CAP``; when they refuse to decay the integral is declared
    divergent. Segments are summed and tested one by one but integrated
    ``_TAIL_BATCH`` to a kernel call, a few past the one that ends the sum.
    """
    # segment ends added one by one, as a loop over doubling lengths would
    ends = np.add.accumulate(np.append(float(a), np.ldexp(max(1.0, abs(a)), np.arange(_TAIL_MAX_SEGMENTS))))
    total = 0.0
    seg_values: list[float] = []
    for start in range(0, _TAIL_MAX_SEGMENTS, _TAIL_BATCH):
        batch = slice(start, start + _TAIL_BATCH)
        for part in quad_adaptive(f, ends[:-1][batch], ends[1:][batch], tol / 16.0).tolist():
            seg_values.append(part)
            total += part
            if len(seg_values) >= 2:
                prev, cur = abs(seg_values[-2]), abs(seg_values[-1])
                ratio = cur / prev if prev > 0 else 0.0
                if cur <= tol / 4.0 and ratio <= _TAIL_RATIO_CAP:
                    return total + seg_values[-1] * ratio / (1.0 - ratio)
                if len(seg_values) >= 5:
                    recent = [abs(v) for v in seg_values[-4:]]
                    ratios = [
                        recent[i + 1] / recent[i] if recent[i] > 0 else 0.0
                        for i in range(3)
                    ]
                    if min(ratios) > _TAIL_RATIO_CAP:
                        raise IntegrabilityError(
                            "tail segments of the improper integral do not decay "
                            f"(recent ratios {ratios}); integral treated as divergent"
                        )
    raise IntegrabilityError(
        "improper integral did not converge within the segment budget"
    )


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


_INVERT_MAX_ITER = 120  # Newton iterations per CumulativeCurve.invert call
_INVERT_XTOL = 1e-12  # relative step and bracket width that end an inversion
_CURVE_BASE = 0.0  # value of a CumulativeCurve at its start x0


class CumulativeCurve:
    """Cumulative integral x -> int_{x0}^{x} f(z) dz.

    Panel sums are precomputed on a fixed node grid so that point values cost
    one short local quadrature, and inversion costs a table lookup plus a few
    safeguarded Newton steps (the derivative is ``f`` itself). ``tol`` bounds
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
        self.cum = _CURVE_BASE + np.cumsum(quad_adaptive(f, lefts, self.nodes, tol))

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

        ``target`` may be an array, solved componentwise by one vectorised
        Newton iteration (a scalar target gives a float). Each target keeps
        the left node of its table panel as a fixed anchor, so value(x) is
        the anchor's table entry plus one batch quadrature from the anchor.
        Newton steps that leave the bracket maintained from the signs of
        value(x) - target are replaced by bisection. A target converges when
        its residual is within 1e-14 * max(1, |target|), its Newton
        correction within _INVERT_XTOL * max(1, |x|) or its bracket within
        _INVERT_XTOL; IterationBudgetError is raised when any target is still
        open after _INVERT_MAX_ITER iterations.
        """
        t = np.asarray(target, dtype=float)
        flat = t.ravel()
        out = np.where(flat <= self.cum[0], self.nodes[0], self.nodes[-1])
        idx = np.flatnonzero((flat > self.cum[0]) & (flat < self.cum[-1]))
        goal = flat[idx]
        j = np.searchsorted(self.cum, goal) - 1
        anchor, g_anchor = self.nodes[j], self.cum[j]
        lo, hi = anchor, self.nodes[j + 1]
        x = 0.5 * (lo + hi)
        for _ in range(_INVERT_MAX_ITER):
            if idx.size == 0:
                break
            gx = g_anchor + quad_adaptive(self.f, anchor, x, self.tol)
            below = gx < goal
            lo, hi = np.where(below, x, lo), np.where(below, hi, x)
            hit = np.abs(gx - goal) <= 1e-14 * np.maximum(1.0, np.abs(goal))
            deriv = np.asarray(self.f(x), dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.where(np.isfinite(deriv) & (deriv > 0), (gx - goal) / deriv, np.nan)
            # a Newton correction below _INVERT_XTOL ends the target even where
            # roundoff in f keeps the residual above the hit threshold
            tiny = np.abs(step) <= _INVERT_XTOL * np.maximum(1.0, np.abs(x))
            inside = (lo < x - step) & (x - step < hi)
            x_new = np.where(inside | tiny, x - step, 0.5 * (lo + hi))
            narrow = hi - lo <= _INVERT_XTOL * np.maximum(1.0, np.abs(hi))
            out[idx] = np.where(hit, x, x_new)
            keep = ~(hit | narrow | tiny)
            idx, goal, anchor, g_anchor, lo, hi, x = (
                v[keep] for v in (idx, goal, anchor, g_anchor, lo, hi, x_new)
            )
        if idx.size:
            raise IterationBudgetError(
                f"curve inversion left {idx.size} target(s) open after {_INVERT_MAX_ITER} iterations"
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


@dataclass
class StepController:
    """PI step-size controller state for the embedded 5(4) pair."""

    rtol: float = 1e-9
    atol: float = 1e-12
    dt: float = 1e-4
    dt_min: float = 1e-14
    dt_max: float = float("inf")
    safety: float = 0.9
    err_prev: float = 1.0

    def after_accept(self, err: float) -> None:
        err = max(err, 1e-12)
        factor = self.safety * err ** (-0.7 / 5.0) * self.err_prev ** (0.4 / 5.0)
        self.dt = min(self.dt * min(5.0, max(0.2, factor)), self.dt_max)
        self.err_prev = err

    def after_reject(self, err: float) -> None:
        if np.isfinite(err) and err > 0:
            self.dt *= max(0.2, self.safety * err ** (-1.0 / 5.0))
        else:
            self.dt *= 0.25


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
    postprocess=None,
    stage_rate=None,
) -> RKResult:
    """Adaptive Dormand-Prince 5(4) integration recording at ``t_record``.

    ``y0`` is one state (dim,) or an ensemble (members, dim) sharing the
    steps; ``f``, ``accept_state`` and ``postprocess`` see the state's shape
    and the records come back as (records,) + y0.shape. The step's error
    norm is the RMS of the scaled errors over each member's components,
    maximised over members, so every accepted step passes each member's own
    error test at ``rtol``/``atol``.

    ``accept_state(y_old, y_new)`` can veto a step (domain exits, ordering);
    vetoed steps are retried with half the step size. ``postprocess(y)`` runs
    after each accepted step (e.g. mass renormalization) and returns ``y``
    itself when it changes nothing, which keeps FSAL. ``stage_rate(k)`` maps
    the 7-stage stack k, shape (7,) + y0.shape, to the 7 rates whose time
    integral is accumulated with the fifth-order weights (dissipation).

    Raises StiffnessError when a rejection, or an accepted step that was not
    clamped to a record time, leaves a proposed step below the controller's
    ``dt_min``. A StrainflowError raised while stepping carries the records
    reached so far as ``exc.partial``, an RKResult.
    """
    t_record = np.asarray(t_record, dtype=float)
    if t_record.ndim != 1 or len(t_record) == 0:
        raise ValueError("t_record must be a non-empty 1-d array")
    if np.any(np.diff(t_record) <= 0):
        raise ValueError("t_record must be strictly increasing")

    y = np.array(y0, dtype=float)
    t = float(t_record[0])
    records = np.empty((len(t_record),) + y.shape)
    aux = np.zeros(len(t_record))
    records[0] = y
    aux_total = 0.0

    ctrl = StepController(rtol=rtol, atol=atol)
    span = t_record[-1] - t_record[0]
    ctrl.dt = min(1e-4, span)

    k = np.empty((7,) + y.shape)
    kf = k.reshape(7, -1)  # flat views: one stage sum for every member at once
    ys = np.empty(y.shape)
    ys_f = ys.reshape(-1)
    t_rec = t_record.tolist()
    fsal_valid = False
    n_steps = 0
    n_rejected = 0
    idx = 1
    try:
        while idx < len(t_rec):
            dt = min(ctrl.dt, t_rec[idx] - t)
            clamped = dt < ctrl.dt
            if not fsal_valid:
                k[0] = f(y)
                fsal_valid = True
            for s in range(1, 7):
                np.matmul(_DP_A[s], kf[:s], out=ys_f)
                ys *= dt
                ys += y
                k[s] = f(ys)
            np.matmul(_DP_B5, kf, out=ys_f)
            y_new = y + dt * ys
            np.matmul(_DP_ERR, kf, out=ys_f)
            ys *= dt
            ys /= atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
            ys *= ys
            # RMS over each member's components, max over members (taken
            # first: it commutes with the monotone division and square root)
            err = math.sqrt(float(ys.reshape(-1, y.shape[-1]).sum(axis=1).max()) / y.shape[-1])

            bad = not err <= 1.0 or not np.isfinite(y_new).all()
            if not bad and accept_state is not None and not accept_state(y, y_new):
                bad = True
                err = float("nan")
            if bad:
                n_rejected += 1
                ctrl.after_reject(err)
                # k[0] still holds f at the unchanged y, so FSAL stays valid
                if ctrl.dt < ctrl.dt_min:
                    raise StiffnessError(
                        f"step size underflow at t={t!r} (dt={ctrl.dt!r})"
                    )
                continue

            if stage_rate is not None:
                aux_total += dt * float(_DP_B5 @ stage_rate(k))
            t += dt
            n_steps += 1
            k[0] = k[6]  # FSAL
            y = y_new
            if postprocess is not None:
                y_post = postprocess(y)
                if y_post is not y:
                    y = y_post
                    fsal_valid = False
            if not clamped:
                ctrl.after_accept(err)
            while idx < len(t_rec) and t >= t_rec[idx] - 1e-14 * max(1.0, abs(t)):
                records[idx] = y
                aux[idx] = aux_total
                idx += 1
            # a step clamped to a record time leaves ctrl.dt as it was
            if not clamped and ctrl.dt < ctrl.dt_min and idx < len(t_rec):
                raise StiffnessError(f"step size underflow at t={t!r} (dt={ctrl.dt!r})")
    except StrainflowError as exc:
        exc.partial = RKResult(times=t_record[:idx], states=records[:idx],
                               aux_integral=aux[:idx], n_steps=n_steps, n_rejected=n_rejected)
        raise
    return RKResult(times=t_record, states=records, aux_integral=aux, n_steps=n_steps, n_rejected=n_rejected)


def trailing_stats(times: np.ndarray, series: np.ndarray, frac: float = 0.1) -> tuple[float, float]:
    """Mean and spread (max - min) of a series over the last ``frac`` of time."""
    times = np.asarray(times, dtype=float)
    series = np.asarray(series, dtype=float)
    t_cut = times[-1] - frac * (times[-1] - times[0])
    window = series[times >= t_cut]
    if len(window) == 0:
        window = series[-1:]
    return float(np.mean(window)), float(np.max(window) - np.min(window))
