"""Universal, data-independent envelopes on the strain.

Two constructions per boundary-condition kind:

* traction-free end: a lower curve from the blow-up of the stress at zero
  strain, and an upper curve from the integrable stress tail;
* both ends held: a lower curve from a certified difference-quotient
  constant, and an upper curve from a certified comparison threshold and an
  escape-time integral.

Both upper curves invert an escape-time integral, tabulated from infinity,
through one builder. All four take only the model (and the imposed mean
strain), never the data.
The certified constants carry 5-10% safety factors: the theory only needs
*some* valid constant, and a looser constant gives a looser but still valid
curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CertificationError, HypothesisError, IntegrabilityError
from .numerics import CumulativeCurve, quad_adaptive
from .stress_models import FULL_LINE, POSITIVE, StressModel

DEFAULT_T_GRID = np.geomspace(1e-6, 1e3, 400)

# one-sided numerical margins keep the curves valid bounds despite
# inversion error: lower curves are deflated, upper curves inflated
_MARGIN = 1e-9


@dataclass(frozen=True)
class BoundsProfile:
    kind: str                       # "mixed" | "displacement"
    t_grid: np.ndarray
    lower: np.ndarray | None
    upper: np.ndarray | None
    constants: dict = field(default_factory=dict)
    mu: float | None = None

    def lower_at(self, t):
        if self.lower is None:
            raise ValueError("profile has no lower curve")
        return np.interp(t, self.t_grid, self.lower)

    def upper_at(self, t):
        if self.upper is None:
            raise ValueError("profile has no upper curve")
        return np.interp(t, self.t_grid, self.upper)


# -- shared machinery ---------------------------------------------------------


def time_from_zero_curve(model: StressModel) -> tuple[CumulativeCurve, float]:
    """Cumulative travel time g(p) = int_0^p -dz/sigma(z) below the smallest
    root, for models whose stress blows down at zero strain.

    Returns the curve and the smallest root. Also used by the traction-free
    solver to start trajectories from exactly zero strain. Built once per
    model and kept on the instance, as ``cached_property`` keeps
    ``roots_of_sigma``.
    """
    if "time_from_zero" in model.__dict__:
        return model.__dict__["time_from_zero"]
    if model.domain != POSITIVE:
        raise HypothesisError(
            "the zero-strain travel-time construction needs a positive-only domain"
        )
    roots = model.roots_of_sigma
    if len(roots) == 0:
        raise HypothesisError("no root of sigma inside the window")
    p_minus = float(roots[0])
    probes = np.geomspace(model.eval_window[0], 0.9 * p_minus, 64)
    if np.any(model.sigma(probes) >= 0.0):
        raise HypothesisError(
            "stress is not negative between zero strain and its smallest root; "
            "the blow-up-at-zero hypothesis fails"
        )
    integrand = lambda z: -1.0 / model.sigma(z)
    # stop 1e-6 short of the root: sigma evaluated closer suffers catastrophic
    # cancellation, and the curve's inverse is insensitive there (the inverse
    # error is the time error scaled by |sigma|, which vanishes at the root)
    nodes = np.geomspace(1e-12 * p_minus, (1.0 - 1e-6) * p_minus, 480)
    curve = CumulativeCurve(integrand, nodes, tol=1e-9, x0=0.0)
    model.__dict__["time_from_zero"] = (curve, p_minus)
    return curve, p_minus


def _escape_envelope(integrand, start: float, t_grid, what: str) -> tuple[np.ndarray, float]:
    """Inverse escape time above ``start``: the p with int_p^inf integrand = t,
    inflated by the margin and clamped at ``start`` once t reaches the total
    escape time, which is returned with the curve. The escape time is a
    table in u = 1/p of integrand(1/u)/u^2 from u = 0, so a small t keeps
    its relative accuracy. A divergent tail is not integrable at u = 0, which
    floating point hides (the integrand overflows), so the Cauchy test on the
    two decades above the first node decides first: the nearer must hold at
    most 0.8 of the farther (1 for a 1/p tail). ``what`` names the improper
    integral in the error raised when it diverges."""
    t_grid = np.asarray(t_grid, dtype=float)

    def in_u(u):
        z = 1.0 / u
        with np.errstate(over="ignore", invalid="ignore"):
            return integrand(z) * z * z

    nodes = np.geomspace(1e-12 / start, 1.0 / start, 600)
    # one Richardson-corrected Gauss pass per decade is enough for a ratio
    near, far = quad_adaptive(in_u, nodes[0] * np.array([1.0, 10.0]),
                              nodes[0] * np.array([10.0, 100.0]), tol=np.inf)
    if not near <= 0.8 * far:
        raise IntegrabilityError(
            f"{what} diverges (integrable-tail hypothesis fails); no finite "
            "upper curve exists"
        )
    curve = CumulativeCurve(in_u, nodes, tol=1e-9, x0=0.0)
    total = curve.max_value
    inv = 1.0 / curve.invert(t_grid)
    return np.where(t_grid >= total, start, np.maximum(start, inv * (1.0 + _MARGIN))), total


# -- traction-free (pointwise decoupled) bounds -------------------------------


def mixed_lower(model: StressModel, t_grid) -> tuple[np.ndarray, dict]:
    """Lower envelope for the decoupled flow: min of the smallest root and the
    inverse travel time from zero strain."""
    curve, p_minus = time_from_zero_curve(model)
    out = np.minimum(p_minus, curve.invert(t_grid) * (1.0 - _MARGIN))
    return out, {"p_minus": p_minus, "t_saturate_lower": curve.max_value}


def mixed_upper(model: StressModel, t_grid) -> tuple[np.ndarray, dict]:
    """Upper envelope for the decoupled flow: max of (largest root + 1) and the
    inverse escape time, defined when the stress tail is integrable."""
    roots = model.roots_of_sigma
    if len(roots) == 0:
        raise HypothesisError("no root of sigma inside the window")
    p_plus = float(roots[-1])
    out, total = _escape_envelope(
        lambda z: 1.0 / model.sigma(z), p_plus + 1.0, t_grid,
        "the improper integral of 1/sigma beyond the largest root",
    )
    return out, {"p_plus": p_plus, "t_saturate_upper": total}


# -- displacement (mean-constrained) bounds -----------------------------------


def certify_lower_constants(model: StressModel, mu: float) -> tuple[float, float, float]:
    """Find (C, eps0, t0) such that every difference quotient of sigma with one
    foot below eps0 exceeds C > 0, scanning eps0 downward until the grid
    infimum is positive. C keeps a 5% one-sided safety margin."""
    if mu <= 0:
        raise CertificationError("the lower bound needs a positive mean strain")
    if model.theta is None:
        raise CertificationError("model has no convexity threshold theta set")
    lo, hi = model.eval_window
    p_grid = np.geomspace(lo, hi, 600)
    sig_p = np.asarray(model.sigma(p_grid), dtype=float)
    eps0 = 0.5 * min(model.theta, mu)
    for _ in range(40):
        sig_eps0 = float(model.sigma(np.array([eps0]))[0])
        above = p_grid > eps0
        if np.any(sig_p[above] <= sig_eps0):
            eps0 *= 0.5
            continue
        d_grid = np.geomspace(lo, eps0, 160)
        sig_d = np.asarray(model.sigma(d_grid), dtype=float)
        dp = p_grid[:, None] - d_grid[None, :]
        mask = np.abs(dp) > 1e-12 * np.maximum(1.0, np.abs(p_grid[:, None]))
        with np.errstate(divide="ignore", invalid="ignore"):
            quot = (sig_p[:, None] - sig_d[None, :]) / dp
        c_inf = float(np.min(quot[mask]))
        if c_inf > 0.0:
            C = c_inf / 1.05
            t0 = np.log(mu / (mu - eps0)) / C
            return C, eps0, t0
        eps0 *= 0.5
    raise CertificationError(
        "no eps0 with a positive certified difference-quotient constant was found"
    )


def displacement_lower(model: StressModel, mu: float, t_grid) -> tuple[np.ndarray, dict]:
    """Lower envelope mu(1 - exp(-C t)) spliced to its plateau at t0."""
    t_grid = np.asarray(t_grid, dtype=float)
    C, eps0, t0 = certify_lower_constants(model, mu)
    curve = np.where(t_grid <= t0, mu * (1.0 - np.exp(-C * t_grid)), eps0)
    return curve, {"C": C, "eps0": eps0, "t0_lower": t0}


def certify_upper_threshold(model: StressModel, mu: float) -> float:
    """Smallest certified M > 2 mu above which both plateau requirements hold,
    inflated by a 10% safety factor:

    * the comparison inequality sigma(gamma)/(2 mu) > sigma(p)/p -
      sigma(gamma)/gamma for all 0 < p <= gamma (drives the moving part of
      the envelope), and
    * sigma(gamma) at least the running maximum of sigma below gamma over the
      whole window, negative strains included (the plateau argument needs the
      stress at the threshold to dominate every smaller strain's stress).
    """
    if mu <= 0:
        raise CertificationError("the upper bound needs a positive mean strain")
    lo, hi = model.eval_window
    p_lo = max(lo, 1e-10) if model.domain == POSITIVE else 1e-10
    p_grid = np.geomspace(p_lo, hi, 4000)
    sig = np.asarray(model.sigma(p_grid), dtype=float)
    ratios = sig / p_grid
    prefix_ratio_max = np.maximum.accumulate(ratios)
    dominated = np.maximum.accumulate(sig)
    if model.domain == FULL_LINE and lo < 0.0:
        neg = np.linspace(lo, 0.0, 2000)
        dominated = np.maximum(dominated, float(np.max(model.sigma(neg))))
    ok = (
        (sig / (2.0 * mu) + sig / p_grid > prefix_ratio_max)
        & (sig >= dominated)
        & (p_grid > 2.0 * mu)
    )
    # conditions must hold for every gamma from the threshold on
    suffix_ok = np.logical_and.accumulate(ok[::-1])[::-1]
    idx = np.nonzero(suffix_ok)[0]
    if len(idx) == 0:
        raise CertificationError(
            "the comparison inequality behind the upper bound never certifies "
            "on the window"
        )
    return 1.1 * float(p_grid[idx[0]])


def displacement_upper(model: StressModel, mu: float, t_grid) -> tuple[np.ndarray, dict]:
    """Upper envelope from the escape-time integral above the threshold M."""
    M = certify_upper_threshold(model, mu)
    out, t0 = _escape_envelope(
        lambda z: 2.0 * z / (model.sigma(z) * (z - 2.0 * mu)), M, t_grid,
        "the escape-time integral above the threshold",
    )
    return out, {"M": M, "t0_upper": t0}


# -- assembled profiles -------------------------------------------------------


def bounds_profile(
    model: StressModel,
    kind: str,
    mu: float | None = None,
    t_grid=None,
    want_lower: bool = True,
    want_upper: bool = True,
) -> BoundsProfile:
    t_grid = DEFAULT_T_GRID if t_grid is None else np.asarray(t_grid, dtype=float)
    constants: dict = {}
    # builders looked up at call time, so a wrapped module attribute is seen
    if kind == "mixed":
        args, build_lower, build_upper = (model,), mixed_lower, mixed_upper
    elif kind == "displacement":
        if mu is None:
            raise ValueError("displacement bounds need the mean strain mu")
        roots = model.roots_of_sigma
        if len(roots):
            constants.update(p_minus=float(roots[0]), p_plus=float(roots[-1]))
        args, build_lower, build_upper = (model, mu), displacement_lower, displacement_upper
    else:
        raise ValueError(f"unknown bounds kind {kind!r}")
    lower = upper = None
    if want_lower:
        lower, c = build_lower(*args, t_grid)
        constants.update(c)
    if want_upper:
        upper, c = build_upper(*args, t_grid)
        constants.update(c)
    return BoundsProfile(kind=kind, t_grid=t_grid, lower=lower, upper=upper,
                         constants=constants, mu=mu)
