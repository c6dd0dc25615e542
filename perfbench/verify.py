"""Outside-in checks of each experiment's output files.

Each check returns a list of problems; an empty list means the experiment
passed. A check never raises for a bad output: a missing or malformed file is
a problem like any other, so a failed experiment is counted, not fatal.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np

# tolerances, stated once
SIGMA_BAR_RESIDUAL_MAX = 1e-6     # held-cubic: asympt's sigma_bar residual
MASS_TOL = 1e-10                  # |mean strain - mu| in a held trajectory
MONOTONE_TOL = 1e-12              # allowed backward step of p_i(t), relative to 1 + |p|
ENVELOPE_TOL = 1e-12              # slack below the traction-free lower envelope
ODE_RTOL = 1e-7                   # free-field samples against scipy's DOP853
THETA_TOL = 1e-7                  # spiral z0 = 0: theta gain against the exact identity
Z_RTOL = 1e-7                     # spiral z0 != 0: z(t) against z0 / (1 + |z0| t)
LYAPUNOV_TOL = 1e-9               # allowed rise of r^2 + z^2, relative to 1 + value

# the traction-free law as make_model("singular-cubic") defines it, restated
# here so the reference solution does not use the program's stress code
SINGULAR_CUBIC = (1.0, 0.0, -1.0, 0.0, 0.5)  # a, b, c, d, kappa
SPIRAL_Z0 = [0.0] + [s * 10.0 ** -k for k in range(1, 7) for s in (1.0, -1.0)]


class Context:
    """Reference data computed once per run, after the timed loop."""

    def __init__(self):
        self._lower: dict[tuple, np.ndarray] = {}

    def mixed_lower(self, times: np.ndarray) -> np.ndarray:
        """The traction-free lower envelope on ``times`` (all > 0)."""
        key = tuple(times)
        if key not in self._lower:
            from strainflow.bounds import bounds_profile
            from strainflow.stress_models import make_model

            profile = bounds_profile(make_model("singular-cubic"), "mixed",
                                     t_grid=times, want_upper=False)
            self._lower[key] = profile.lower
        return self._lower[key]


def read_csv(path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def strain_columns(header: list[str], data: np.ndarray) -> np.ndarray:
    return data[:, [i for i, name in enumerate(header) if name.startswith("p_")]]


def _guarded(check):
    """Run a check; an unreadable or malformed output is a problem, not a crash."""

    @functools.wraps(check)
    def run(out_dir: Path, exp, codes: list[int], ctx: Context) -> list[str]:
        problems = [f"call {i} exited {c}" for i, c in enumerate(codes) if c != 0]
        if len(codes) != len(exp.calls):
            problems.append(f"{len(codes)} of {len(exp.calls)} calls ran")
        if problems:
            return problems
        try:
            check(out_dir, exp, ctx, problems)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        return problems

    return run


def _check_held(out_dir: Path, inputs: dict, problems: list[str], energy_check: str) -> dict:
    report = json.loads((out_dir / "report.json").read_text())
    checks = report.get("checks", {})
    for name in ("mass_conservation", "ordering_preserved", energy_check, "bound_enclosure"):
        if checks.get(name) is not True:
            problems.append(f"report check {name} is {checks.get(name)!r}")
    header, data = read_csv(out_dir / "trajectory.csv")
    p = strain_columns(header, data)
    if p.shape != (inputs["records"], inputs["n"]):
        problems.append(f"trajectory shape {p.shape}, expected {(inputs['records'], inputs['n'])}")
    drift = float(np.max(np.abs(p.mean(axis=1) - inputs["mu"])))
    if not drift <= MASS_TOL * max(1.0, abs(inputs["mu"])):
        problems.append(f"mass drifts by {drift:.3g} in trajectory.csv")
    return report


@_guarded
def check_held_cubic(out_dir, exp, ctx, problems):
    """Report checks all true, mass held in the CSV, the limit stress
    identity to 1e-6 and finite phase fractions from ``asympt``."""
    report = _check_held(out_dir, exp.inputs, problems, "energy_equation")
    resid = (report.get("asymptotics") or {}).get("sigma_bar_residual")
    if not (isinstance(resid, (int, float)) and resid <= SIGMA_BAR_RESIDUAL_MAX):
        problems.append(f"sigma_bar_residual is {resid!r}")
    asympt = json.loads((out_dir / "asympt" / "asympt.json").read_text())
    fractions = asympt.get("fractions_final")
    if not (fractions and all(isinstance(x, (int, float)) and math.isfinite(x) for x in fractions)):
        problems.append(f"asympt fractions_final is {fractions!r}")


@_guarded
def check_held_prox(out_dir, exp, ctx, problems):
    """Report checks all true (energy nonincreasing for prox) and mass held
    in the CSV."""
    _check_held(out_dir, exp.inputs, problems, "energy_nonincreasing")


@_guarded
def check_free_field(out_dir, exp, ctx, problems):
    """The CLI checks nothing for bc=mixed, so this checks the run itself:
    each p_i(t) is monotone, zero starts rise and stay above the lower
    envelope, and three nonzero samples match scipy's DOP853."""
    header, data = read_csv(out_dir / "trajectory.csv")
    t, p = data[:, 0], strain_columns(header, data)
    p0 = np.asarray(exp.inputs["values"], dtype=float)
    if p.shape != (exp.inputs["records"], len(p0)):
        problems.append(f"trajectory shape {p.shape}")
        return
    if not np.array_equal(p[0], p0):
        problems.append("first record differs from the initial samples")
    step = np.diff(p, axis=0)
    slack = MONOTONE_TOL * (1.0 + np.abs(p[1:]))
    monotone = np.all(step >= -slack, axis=0) | np.all(step <= slack, axis=0)
    for i in np.flatnonzero(~monotone):
        problems.append(f"p_{i + 1}(t) is not monotone")
    zero = p0 == 0.0
    if np.any(zero):
        rise = p[1:, zero]
        if not np.all(rise > 0.0):
            problems.append("a zero-start sample does not leave 0")
        lower = ctx.mixed_lower(t[1:])
        if not np.all(rise >= lower[:, None] - ENVELOPE_TOL):
            problems.append("a zero-start sample falls below the lower envelope")
    for i in np.flatnonzero(~zero)[:3]:
        ref = reference_mixed(float(p0[i]), t)
        err = float(np.max(np.abs(p[:, i] - ref) / np.maximum(1.0, np.abs(ref))))
        if not err <= ODE_RTOL:
            problems.append(f"p_{i + 1}(t) differs from the reference by {err:.3g}")


def reference_mixed(p0: float, times: np.ndarray) -> np.ndarray:
    """dp/dt = -sigma(p) for the singular cubic, by scipy's DOP853."""
    from scipy.integrate import solve_ivp

    a, b, c, d, kappa = SINGULAR_CUBIC

    def rhs(_t, y):
        return -(((a * y + b) * y + c) * y + d - kappa / y)

    sol = solve_ivp(rhs, (times[0], times[-1]), [p0], method="DOP853",
                    t_eval=times, rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise ValueError(f"reference solve failed: {sol.message}")
    return sol.y[0]


@_guarded
def check_spiral(out_dir, exp, ctx, problems):
    """r^2 + z^2 nonincreasing for every member; z0 != 0 members follow
    z0 / (1 + |z0| t), stay under r0 / (1 + |z0| t) and end closer to the
    origin than the z0 = 0 member; the z0 = 0 member's angle obeys
    theta(t) - theta(0) = ln((r0 - 1) / (r(t) - 1))."""
    summary = json.loads((out_dir / "counterexample.json").read_text())["members"]
    z0s = [m["z0"] for m in summary]
    if z0s != SPIRAL_Z0:
        problems.append(f"ensemble z0 = {z0s}")
        return
    final_u = {}
    for k, z0 in enumerate(z0s):
        header, data = read_csv(out_dir / f"member_{k:02d}.csv")
        col = {name: data[:, j] for j, name in enumerate(header)}
        t, r, theta, z = col["t"], col["r"], col["theta"], col["z"]
        lyap = r ** 2 + z ** 2
        if not np.all(np.diff(lyap) <= LYAPUNOV_TOL * (1.0 + lyap[:-1])):
            problems.append(f"member {k}: r^2 + z^2 rises")
        final_u[k] = math.sqrt(lyap[-1])
        r0 = r[0]
        if z0 == 0.0:
            exact = np.log((r0 - 1.0) / (r - 1.0))
            err = float(np.max(np.abs((theta - theta[0]) - exact)))
            if not err <= THETA_TOL:
                problems.append(f"member {k}: theta gain off the exact identity by {err:.3g}")
            gain = summary[k]["theta_gain"]
            if not abs(gain - exact[-1]) <= THETA_TOL:
                problems.append(f"member {k}: reported theta_gain {gain!r}, exact {exact[-1]!r}")
        else:
            decay = 1.0 + abs(z0) * t
            z_err = float(np.max(np.abs(z - z0 / decay) / (abs(z0) / decay)))
            if not z_err <= Z_RTOL:
                problems.append(f"member {k}: z(t) off the closed form by {z_err:.3g}")
            if not np.all(r <= (r0 / decay) * (1.0 + 1e-9)):
                problems.append(f"member {k}: r(t) above r0 / (1 + |z0| t)")
    for k, z0 in enumerate(z0s):
        if z0 != 0.0 and not final_u[k] < final_u[0]:
            problems.append(f"member {k}: ends no closer to the origin than the z0 = 0 member")
