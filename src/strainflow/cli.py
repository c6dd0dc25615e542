"""Experiment runner and command-line interface.

Subcommands: run, mixed, bounds, equilibria, asympt, counterexample,
plotdata, sweep. A run is described by one declarative JSON config (every
field has a default; flag overrides via --set); outputs are CSV series with
17-significant-digit formatting plus JSON reports, and a manifest written
atomically at the end of every run.

Exit codes: 0 all checks pass, 1 a check failed, 2 config error,
3 model hypothesis error, 4 integration failure.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import itertools
import json
import math
import os
import sys
import time
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .asymptotics import asymptotics_report, equilibria_enumerate, volume_fractions
from .bounds import bounds_profile
from .counterexample import (DEMO_Z0, ensemble_checks, member_summary, simulate_cyl,
                             simulate_ensemble)
from .displacement import _record_grid, approximate_initial_data, integrate, seeded_state
from .errors import ConfigError, DegenerateDataError, HypothesisError, StrainflowError
from .mixed import solve_field
from .state import SimpleState, Trajectory, write_csv, write_json
from .stress_models import POSITIVE, StressModel, make_model

_SVG_WIDTH, _SVG_HEIGHT = 640, 400
MASS_RTOL = 1e-12  # relative drift of the held mean from mu the mass check allows
# solver counters a trajectory's metadata may carry, copied to report["stats"]
RUN_STATS = ("n_steps", "n_rejected", "newton_iters", "max_residual")


def _out_dir(name: str) -> str:
    """The output directory ``name`` under ``$STRAINFLOW_OUT`` (default the
    working directory), created if missing."""
    path = os.path.join(os.environ.get("STRAINFLOW_OUT", "."), name)
    os.makedirs(path, exist_ok=True)
    return path


# -- configuration ---------------------------------------------------------------


_DEFAULTS = {
    "model": {"name": "cubic", "params": {}},
    "bc": "displacement",
    "mu": 0.5,
    "n": 8,
    "initial": {"kind": "seeded", "seed": 0, "lo": None, "hi": None},
    "stepper": {"kind": "rk45", "rtol": 1e-9, "atol": 1e-12, "tau": 1e-2},
    "t_final": 50.0,
    "record_every": 0.25,
    "output_dir": ".",
}
_OPTIONAL_KEYS = {"initial": {"values", "weights", "samples", "path"}}  # beyond the defaults


@dataclass
class ExperimentConfig:
    model: dict
    bc: str
    mu: float
    n: int
    initial: dict
    stepper: dict
    t_final: float
    record_every: float
    output_dir: str

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(data) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        merged = copy.deepcopy(_DEFAULTS)
        for key, value in data.items():
            if isinstance(merged[key], dict):
                if not isinstance(value, dict):
                    raise ConfigError(f"field {key!r} must be an object")
                unknown = set(value) - set(merged[key]) - _OPTIONAL_KEYS.get(key, set())
                if unknown:
                    raise ConfigError(f"unknown {key} fields: {sorted(unknown)}")
                merged[key].update(value)
            elif isinstance(value, dict):
                raise ConfigError(f"field {key!r} must not be an object")
            else:
                merged[key] = value
        cfg = cls(**merged)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        numbers = {"mu": self.mu, "t_final": self.t_final, "record_every": self.record_every}
        numbers.update({f"stepper.{k}": self.stepper[k] for k in ("rtol", "atol", "tau")})
        numbers.update({f"initial.{k}": self.initial[k]
                        for k in ("lo", "hi") if self.initial[k] is not None})
        for name, value in numbers.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        integers = {"n": self.n, "initial.seed": self.initial["seed"]}
        if "samples" in self.initial:  # fewer than one fails as an empty ramp
            integers["initial.samples"] = self.initial["samples"]
        for name, value in integers.items():
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {self.output_dir!r}")
        if self.bc not in ("displacement", "mixed"):
            raise ConfigError(f"unknown boundary condition kind {self.bc!r}")
        if not isinstance(self.model["name"], str):
            raise ConfigError("model.name must be a string")
        if self.t_final <= 0:
            raise ConfigError("t_final must be positive")
        if self.record_every <= 0:
            raise ConfigError("record_every must be positive")
        if self.n < 1:
            raise ConfigError("n must be at least 1")
        if self.stepper["tau"] <= 0:
            raise ConfigError("stepper.tau must be positive")
        rtol, atol = self.stepper["rtol"], self.stepper["atol"]
        if rtol < 0 or atol < 0 or rtol == atol == 0:
            raise ConfigError("stepper.rtol and stepper.atol must be >= 0, not both 0")
        kind = self.initial["kind"]
        if kind not in ("seeded", "explicit", "ramp", "file"):
            raise ConfigError(f"unknown initial data kind {kind!r}")
        if kind == "explicit" and not self.initial.get("values"):
            raise ConfigError("explicit initial data needs a non-empty values list")
        if kind == "file" and not isinstance(self.initial.get("path"), str):
            raise ConfigError("file initial data needs a path string")
        if self.stepper["kind"] not in ("rk45", "prox"):
            raise ConfigError(f"unknown stepper {self.stepper['kind']!r}")
        if self.bc == "mixed" and self.stepper["kind"] != "rk45":
            raise ConfigError(f"stepper {self.stepper['kind']!r} cannot run bc 'mixed': "
                              "the traction-free flow is integrated by rk45 only")

    def to_dict(self) -> dict:
        return copy.deepcopy(asdict(self))

    def hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


def _set_dotted(data: dict, key: str, value) -> None:
    """Set ``data[a][b][c] = value`` for the dotted key ``a.b.c``, creating
    missing objects on the way."""
    *path, last = key.split(".")
    target = data
    for part in path:
        target = target.setdefault(part, {}) if isinstance(target, dict) else None
    if not isinstance(target, dict):
        raise ConfigError(f"override {key!r} passes through a value that is not an object")
    target[last] = value


def load_config(path: str | None, overrides: list[str] | None = None) -> ExperimentConfig:
    """Config from a JSON file (all defaults when ``path`` is None) with
    ``dotted.key=value`` overrides applied in order."""
    data: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    for key, value in map(_parse_assignment, overrides or []):
        _set_dotted(data, key, value)
    return ExperimentConfig.from_dict(data)


def _build_model(name, params) -> StressModel:
    """``make_model(name, **params)``, with a bad name or parameter set
    reported as a ConfigError."""
    try:
        return make_model(name, **params)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot build model: {exc}") from exc


def _read_samples(path) -> np.ndarray:
    """The numbers of a whitespace-separated text file, flattened. A file
    with none gives an empty array, which its caller reports as a config
    error, without numpy's warning."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(path, dtype=float).ravel()


def _initial_state(cfg: ExperimentConfig, model: StressModel) -> SimpleState:
    """The state ``cfg.initial`` describes; data that builds none (say, weights
    not summing to one, an empty ramp or lo above hi) or strains outside a
    positive-only law's domain are a ConfigError."""
    spec = cfg.initial
    kind = spec["kind"]
    try:
        if kind == "seeded":
            state = seeded_state(model, cfg.n, cfg.mu, spec["seed"], lo=spec["lo"], hi=spec["hi"])
        elif kind == "explicit":
            values = np.asarray(spec["values"], dtype=float)
            weights = spec.get("weights")
            state = (SimpleState.uniform(values) if weights is None else
                     SimpleState(values=values, weights=np.asarray(weights, dtype=float)))
        elif kind == "ramp":
            m = spec.get("samples", 512)
            x = (np.arange(m) + 0.5) / m
            state, _ = approximate_initial_data(2.0 * cfg.mu * x, cfg.n)
        else:  # kind == "file", the last one validate() admits
            samples = _read_samples(spec["path"])
            mean = samples.mean() if len(samples) else 0.0
            if mean <= 0:
                raise ConfigError("file data carries no positive mass")
            state, _ = approximate_initial_data(samples * (cfg.mu / mean), cfg.n)
    except (OSError, ValueError, TypeError, DegenerateDataError) as exc:
        raise ConfigError(f"cannot build initial data: {exc}") from exc
    # the traction-free flow takes strains >= 0; the held flow needs them above
    # 0 on a positive-only law, and keeps the data's mean, which it checks as mu
    low, mean = float(state.values.min()), float(state.values @ state.weights)
    if cfg.bc == "mixed" and low < 0.0:
        raise ConfigError(f"initial strain {low} is negative: "
                          "the traction-free flow needs strains >= 0")
    if cfg.bc == "displacement" and model.domain == POSITIVE and low <= 0.0:
        raise ConfigError(f"initial strain {low} is outside the domain of model "
                          f"{model.name!r}, which needs positive strains")
    drift = abs(mean - cfg.mu) > MASS_RTOL * max(1.0, abs(cfg.mu))
    if cfg.bc == "displacement" and kind == "explicit" and drift:
        raise ConfigError(f"explicit values have mean {mean}, but mu is {cfg.mu}")
    return state


# -- invariant checks -------------------------------------------------------------


def _run_checks(bc: str, stepper_kind: str, mu, traj: Trajectory, profile) -> dict[str, bool]:
    """Invariant checks of a ``bc`` trajectory (``mu`` is read when held), and
    bound enclosure when the ``profile`` holds at least one envelope."""
    checks: dict[str, bool] = {}
    if bc == "mixed":
        # each p_i(t) solves a scalar autonomous ODE, so it is monotone in t
        # and moves downhill in W
        step = np.diff(traj.values, axis=0)
        slack = 1e-12 * (1.0 + np.abs(traj.values[1:]))
        checks["monotone_paths"] = bool(np.all(
            np.all(step >= -slack, axis=0) | np.all(step <= slack, axis=0)
        ))
        checks["energy_nonincreasing"] = bool(np.all(np.diff(traj.energy) <= 1e-10))
    else:
        checks["mass_conservation"] = bool(
            np.max(np.abs(traj.mass() - mu)) <= MASS_RTOL * max(1.0, abs(mu))
        )
        order0 = np.argsort(traj.values[0], kind="stable")
        ordered = traj.values[:, order0]
        checks["ordering_preserved"] = bool(np.all(np.diff(ordered, axis=1) >= -1e-10))
    if stepper_kind == "rk45":
        # E(t) + D(t) = E(t1) + D(t1), from the first record after 0 (a
        # traction-free zero strain starts at ZERO_FLOOR)
        i0 = 1 if traj.n_records > 1 else 0
        e0, z0 = traj.energy[i0], traj.dissipation_cum[i0]
        resid = traj.energy[i0:] - e0 + (traj.dissipation_cum[i0:] - z0)
        checks["energy_equation"] = bool(
            np.max(np.abs(resid)) <= 1e-6 * (1.0 + abs(e0))
        )
    else:
        checks["energy_nonincreasing"] = bool(np.all(np.diff(traj.energy) <= 1e-8))
        # each proximal step minimises W + |v - p|^2 / 2 tau and v = p is
        # feasible, so E(t) + D(t)/2 <= E(0) with D the recorded sum
        e0 = traj.energy[0]
        gap = traj.energy + 0.5 * traj.dissipation_cum - e0
        checks["energy_inequality"] = bool(np.all(gap <= 1e-10 * (1.0 + abs(e0))))
    sel = traj.times > 0
    enclosed = []
    if profile.lower is not None:
        enclosed.append(np.all(traj.values[sel].min(axis=1)
                               >= profile.lower_at(traj.times[sel]) - 1e-12))
    if profile.upper is not None:
        enclosed.append(np.all(traj.values[sel].max(axis=1)
                               <= profile.upper_at(traj.times[sel]) + 1e-12))
    if enclosed:  # with no envelope, enclosure would hold vacuously
        checks["bound_enclosure"] = bool(all(enclosed))
    return checks


def _failure(exc: StrainflowError) -> int:
    """Report ``exc`` on stderr; exit code 3 for a failed hypothesis of the
    law, 4 for any other failure."""
    hypothesis = isinstance(exc, HypothesisError)
    print(f"{'hypothesis' if hypothesis else 'run'} failure: {exc}", file=sys.stderr)
    return 3 if hypothesis else 4


# -- run pipeline ------------------------------------------------------------------


def command_run(cfg: ExperimentConfig) -> int:
    t_start = time.perf_counter()
    out_dir = _out_dir(cfg.output_dir)
    files: list[str] = []
    checks: dict[str, bool] = {}
    report: dict = {"config": cfg.to_dict()}

    def finish(exit_code: int, error: str | None = None) -> int:
        # report.json, with the error when there is one, then the manifest
        error_entry = {"error": error} if error else {}
        report.update(error_entry, wall_time_s=time.perf_counter() - t_start)
        write_json(os.path.join(out_dir, "report.json"), report)
        files.append("report.json")
        write_json(os.path.join(out_dir, "manifest.json"), {
            "config_hash": cfg.hash(),
            "package_version": __version__,
            "files": files,
            "wall_time_s": time.perf_counter() - t_start,
            "checks": checks,
            "checked": bool(checks),
            "exit_code": exit_code,
            **error_entry,
        })
        return exit_code

    def save(traj: Trajectory) -> None:
        traj.metadata["seed"] = cfg.initial["seed"]
        report["stats"] = {key: traj.metadata[key] for key in RUN_STATS if key in traj.metadata}
        csv_path, json_path = traj.save(os.path.join(out_dir, "trajectory"))
        files.extend([os.path.basename(csv_path), os.path.basename(json_path)])

    model = _build_model(cfg.model["name"], cfg.model["params"])
    state = _initial_state(cfg, model)

    # the envelopes the law admits, then the integration (a failed
    # hypothesis in it ends the run with code 3, any other failure with code 4)
    grid = _record_grid(cfg.t_final, cfg.record_every, None)
    try:
        profile = bounds_profile(model, cfg.bc, mu=cfg.mu, t_grid=grid[1:])
        report["bounds_constants"] = profile.constants
        report["bounds_absent"] = profile.absent
        if cfg.bc == "displacement":
            traj = integrate(
                model, state, cfg.t_final,
                stepper=cfg.stepper["kind"],
                record_every=cfg.record_every,
                rtol=cfg.stepper["rtol"],
                atol=cfg.stepper["atol"],
                tau=cfg.stepper["tau"],
            )
        else:
            traj, limit = solve_field(
                model, state.values, grid,
                rtol=cfg.stepper["rtol"],
                atol=cfg.stepper["atol"],
                weights=state.weights,
            )
            report["limit_field"] = limit.tolist()
    except StrainflowError as exc:
        # a held run keeps the records it reached; a traction-free one, none
        if isinstance(getattr(exc, "partial", None), Trajectory):
            save(exc.partial)
        return finish(_failure(exc), str(exc))
    save(traj)

    # read-back and checks
    if cfg.bc == "displacement":
        report["asymptotics"] = asymptotics_report(model, traj).to_dict()
    report["converged"] = bool(traj.converged)
    report["final_stress_mean"] = float(traj.stress_mean[-1])
    checks.update(_run_checks(cfg.bc, cfg.stepper["kind"], cfg.mu, traj, profile))
    report["checks"] = checks
    report["checked"] = bool(checks)  # false only in a run that failed before its checks
    return finish(0 if all(checks.values()) else 1)


# run's shorthand flags: argparse dest -> the config key each one overrides
_RUN_FLAGS = {"model": "model.name", "mu": "mu", "n": "n", "seed": "initial.seed",
              "t_final": "t_final", "stepper": "stepper.kind", "tau": "stepper.tau",
              "record_every": "record_every", "output_dir": "output_dir"}


def _command_run_args(args) -> int:
    """``run``: the config file with the --set overrides, then each given
    shorthand flag, applied as overrides."""
    given = {key: getattr(args, dest) for dest, key in _RUN_FLAGS.items()}
    overrides = [f"{key}={json.dumps(val)}" for key, val in given.items() if val is not None]
    return command_run(load_config(args.config, args.overrides + overrides))


# -- smaller subcommands -------------------------------------------------------------


def _load_trajectory(prefix) -> tuple[Trajectory, StressModel]:
    """A saved trajectory and the model named in its metadata."""
    try:
        traj = Trajectory.load(prefix)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot read trajectory {prefix!r}: {exc}") from exc
    spec = traj.metadata.get("model", {})
    return traj, _build_model(spec.get("name"), spec.get("params", {}))


def _require_positive(**flags) -> None:
    """ConfigError naming the first given command-line flag that is not positive."""
    for name, value in flags.items():
        if not value > 0:
            raise ConfigError(f"--{name.replace('_', '-')} must be positive, got {value}")


def command_mixed(args) -> int:
    """``mixed``: a ``run`` of the traction-free flow from the ``--p0``
    samples, with equal weights and ``--records`` evenly spaced records."""
    n = max(args.n, 0)  # an --n below 1 is reported by the config's check on n
    try:
        if args.p0.startswith("file:"):
            samples = _read_samples(args.p0[5:])
        elif args.p0.startswith("step:"):
            a, b = (float(x) for x in args.p0[5:].split(","))
            samples = np.where(np.linspace(0, 1, n) < 0.5, a, b)
        else:
            samples = np.full(n, float(args.p0))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read --p0 {args.p0!r}: {exc}") from exc
    if args.records < 2:
        raise ConfigError(f"--records must be at least 2, got {args.records}")
    return command_run(ExperimentConfig.from_dict({
        "model": {"name": args.model, "params": _parse_params(args.param)},
        "bc": "mixed",
        "n": len(samples) or args.n,  # with no samples, the config's checks say why
        "initial": {"kind": "explicit", "values": samples.tolist()},
        "t_final": args.t_final,
        "record_every": args.t_final / (args.records - 1),
        "output_dir": args.out,
    }))


def command_bounds(args) -> int:
    model = _build_model(args.model, _parse_params(args.param))
    out_dir = _out_dir(args.out)
    profile = bounds_profile(model, args.kind, mu=args.mu)
    if len(profile.absent) == 2:
        raise HypothesisError("no envelope can be built: " + "; ".join(
            f"{side}: {why}" for side, why in profile.absent.items()))
    nan = np.full_like(profile.t_grid, np.nan)
    lower = profile.lower if profile.lower is not None else nan
    upper = profile.upper if profile.upper is not None else nan
    path = os.path.join(out_dir, "bounds.csv")
    write_csv(path, ["t", "lower", "upper"], np.column_stack([profile.t_grid, lower, upper]))
    write_json(os.path.join(out_dir, "bounds.json"), {
        "kind": profile.kind, "mu": profile.mu, "constants": profile.constants,
        "absent": profile.absent,
    })
    print(path)
    return 0


def command_equilibria(args) -> int:
    model = _build_model(args.model, _parse_params(args.param))
    verdict, found = equilibria_enumerate(model, args.mu)
    payload = {
        "verdict": verdict,
        "mu": args.mu,
        "examples": [
            {
                "stress_level": d.stress_level,
                "branch_values": list(d.branch_values),
                "fractions": list(d.fractions),
            }
            for d in found
        ],
    }
    if args.out:
        write_json(os.path.join(_out_dir(args.out), "equilibria.json"), payload)
    print(json.dumps(payload, indent=1, sort_keys=True))
    return 0


def command_asympt(args) -> int:
    traj, model = _load_trajectory(args.trajectory)
    out_dir = _out_dir(args.out)
    report = asymptotics_report(model, traj)
    write_json(os.path.join(out_dir, "asympt.json"), report.to_dict())
    series = np.sqrt(traj.dissipation)
    header = ["t", "rhs_norm", "c"]
    cols = [traj.times, series, traj.stress_mean]
    fr = volume_fractions(model, traj)
    if fr.n_slots > 1:
        for j in range(fr.n_slots):
            header.append(f"fraction_{j + 1}")
            cols.append(fr.fractions[:, j])
        header.append("fraction_residual")
        cols.append(fr.residual)
    write_csv(os.path.join(out_dir, "asympt.csv"), header, np.column_stack(cols))
    print(os.path.join(out_dir, "asympt.json"))
    return 0


def command_counterexample(args) -> int:
    _require_positive(t_final=args.t_final, records=args.records)
    if args.r0 < 0 and not args.demo:
        raise ConfigError(f"--r0 must be at least 0, got {args.r0}")
    out_dir = _out_dir(args.out)
    if args.demo:
        z0s = DEMO_Z0
        trajs = simulate_ensemble(2.0, 0.0, np.array(DEMO_Z0), args.t_final, args.records)
        names = [f"member_{i:02d}.csv" for i in range(len(trajs))]
        shown = "counterexample.json"
    else:
        z0s = [args.z0]
        trajs = [simulate_cyl(args.r0, args.theta0, args.z0, args.t_final, n_records=args.records)]
        names = ["counterexample.csv"]
        shown = names[0]
    for name, traj in zip(names, trajs):
        write_csv(
            os.path.join(out_dir, name),
            ["t", "r", "theta", "z", "lyapunov"],
            np.column_stack([traj.times, traj.r, traj.theta, traj.z, traj.lyapunov]),
        )
    checks = ensemble_checks(z0s, trajs)
    write_json(os.path.join(out_dir, "counterexample.json"), {
        "members": [member_summary(z0, traj) for z0, traj in zip(z0s, trajs)],
        "checks": checks,
    })
    print(os.path.join(out_dir, shown))
    return 0 if all(c["pass"] for c in checks.values()) else 1


# -- plot data --------------------------------------------------------------------


def _svg_polyline(path, xs, series: dict[str, np.ndarray]) -> None:
    """Bare-bones SVG line chart; one polyline per named series."""
    xs = np.asarray(xs, dtype=float)
    all_y = np.concatenate([np.asarray(v, dtype=float) for v in series.values()])
    finite = np.isfinite(all_y)
    y_lo, y_hi = (np.min(all_y[finite]), np.max(all_y[finite])) if finite.any() else (0, 1)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    x_lo, x_hi = float(xs[0]), float(xs[-1])
    pad = 40
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]

    def sx(x):
        return pad + (x - x_lo) / (x_hi - x_lo) * (_SVG_WIDTH - 2 * pad)

    def sy(y):
        return _SVG_HEIGHT - pad - (y - y_lo) / (y_hi - y_lo) * (_SVG_HEIGHT - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}">',
        f'<rect x="{pad}" y="{pad}" width="{_SVG_WIDTH - 2 * pad}" height="{_SVG_HEIGHT - 2 * pad}" '
        'fill="none" stroke="#999"/>',
    ]
    for i, (name, ys) in enumerate(series.items()):
        ys = np.asarray(ys, dtype=float)
        ok = np.isfinite(ys)
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs[ok], ys[ok]))
        color = colors[i % len(colors)]
        parts.append(f'<polyline fill="none" stroke="{color}" points="{pts}"/>')
        parts.append(
            f'<text x="{pad + 6}" y="{pad + 14 + 14 * i}" fill="{color}" '
            f'font-size="11">{name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


def command_plotdata(args) -> int:
    traj, model = _load_trajectory(args.trajectory)
    base = os.path.join(_out_dir(args.out), f"plot_{args.kind}")
    # columns: every CSV column after t; series: the columns drawn in the SVG
    if args.kind == "fan":
        # the envelopes of the trajectory's own flow; NaN where one is absent
        lower, upper = np.full(traj.n_records, np.nan), np.full(traj.n_records, np.nan)
        kind, mu = traj.metadata.get("kind"), traj.metadata.get("mu")
        if kind not in ("mixed", "displacement") or kind == "displacement" and mu is None:
            raise ConfigError(f"trajectory {args.trajectory!r} names no flow kind and mean strain")
        sel = traj.times > 0
        prof = bounds_profile(model, kind, mu=mu, t_grid=traj.times[sel])
        for column, curve in ((lower, prof.lower), (upper, prof.upper)):
            if curve is not None:
                column[sel] = curve
        columns = {f"p_{i + 1}": traj.values[:, i] for i in range(traj.values.shape[1])}
        series = dict(list(columns.items())[:6])
        columns.update(lower=lower, upper=upper)
        series.update(lower=lower, upper=upper)
    elif args.kind == "c":
        columns = series = {"c": traj.stress_mean}
    elif args.kind == "energy":
        columns = series = {"energy": traj.energy, "dissipation": traj.dissipation}
    else:  # fractions
        fr = volume_fractions(model, traj)
        series = {f"fraction_{j + 1}": fr.fractions[:, j] for j in range(fr.n_slots)}
        columns = {**series, "residual": fr.residual}
    write_csv(base + ".csv", ["t", *columns], np.column_stack([traj.times, *columns.values()]))
    _svg_polyline(base + ".svg", traj.times, series)
    print(base + ".csv")
    return 0


# -- sweep ------------------------------------------------------------------------


def _sweep_member(payload) -> dict:
    index, base_config, assignment, out_root = payload
    data = copy.deepcopy(base_config)
    for key, value in assignment.items():
        _set_dotted(data, key, value)
    data["output_dir"] = os.path.join(out_root, f"member_{index:03d}")
    row = {"index": index, "params": assignment}
    try:
        cfg = ExperimentConfig.from_dict(data)
        code = command_run(cfg)
        row["exit_code"] = code
        with open(os.path.join(_out_dir(cfg.output_dir), "report.json")) as fh:
            report = json.load(fh)
        row["checks"] = report.get("checks", {})
        if "error" in report:
            row["error"] = report["error"]
        asym = report.get("asymptotics") or {}
        row["sigma_bar_residual"] = asym.get("sigma_bar_residual")
    except Exception as exc:  # member failures recorded, sweep continues
        row["exit_code"] = -1
        row["error"] = str(exc)
    return row


def command_sweep(args) -> int:
    if args.workers is not None:
        _require_positive(workers=args.workers)
    try:
        with open(args.config) as fh:
            base_config = json.load(fh)
        if os.path.exists(args.grid):
            with open(args.grid) as fh:
                grid = json.load(fh)
        else:
            grid = json.loads(args.grid)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(str(exc)) from exc
    if not isinstance(grid, dict) or not all(isinstance(v, list) for v in grid.values()):
        raise ConfigError("--grid must be a JSON object mapping config keys to value lists")
    out_dir = _out_dir(args.out)
    keys = sorted(grid)
    combos = list(itertools.product(*(grid[k] for k in keys))) if keys else []
    members = [
        (i, base_config, dict(zip(keys, combo)), args.out)
        for i, combo in enumerate(combos)
    ]
    rows: list[dict] = []
    if members:
        import concurrent.futures  # only sweep uses it; the other commands skip its import

        # the pool starts all its workers at the first submit: no more than members
        workers = min(args.workers or os.cpu_count() or 1, len(members))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_member, members))
    n_pass = sum(1 for r in rows if r.get("exit_code") == 0)
    aggregate = {
        "members": rows,
        "n_members": len(rows),
        "n_pass": n_pass,
        "pass_rate": (n_pass / len(rows)) if rows else None,
    }
    write_json(os.path.join(out_dir, "sweep.json"), aggregate)
    print(os.path.join(out_dir, "sweep.json"))
    return 0 if n_pass == len(rows) else 1


# -- argument parsing ---------------------------------------------------------------


def _parse_assignment(item: str) -> tuple[str, object]:
    """Split ``key=value``; the value is read as JSON when it parses, else
    kept as a string."""
    if "=" not in item:
        raise ConfigError(f"{item!r} must look like key=value")
    key, raw = item.split("=", 1)
    try:
        return key, json.loads(raw)
    except json.JSONDecodeError:
        return key, raw


def _parse_params(items: list[str] | None) -> dict:
    return dict(map(_parse_assignment, items or []))


def _model_flags(default: str) -> list:
    """The --model/--param pair, with ``default`` as the model."""
    return [("--model", {"default": default}), ("--param", {"action": "append", "default": []})]


# subcommand -> (help, handler, [(flag, add_argument keywords), ...]); every parser
# shares the [] defaults, which argparse copies before it appends to them
_SUBCOMMANDS = {
    "run": ("run one configured experiment", _command_run_args, [
        ("--config", {"help": "JSON config file; omitted means all defaults"}),
        ("--set", {"dest": "overrides", "action": "append", "default": [],
                   "help": "override a config entry, e.g. --set stepper.tau=0.01"}),
        ("--model", {"help": "model name shorthand"}),
        ("--mu", {"type": float}), ("--n", {"type": int}), ("--seed", {"type": int}),
        ("--t-final", {"type": float}), ("--stepper", {"choices": ["rk45", "prox"]}),
        ("--tau", {"type": float}), ("--record-every", {"type": float}),
        ("--out", {"dest": "output_dir"})]),
    "mixed": ("decoupled traction-free flow", command_mixed, [
        *_model_flags("singular-cubic"),
        ("--p0", {"default": "1.0", "help": "constant | step:a,b | file:PATH"}),
        ("--n", {"type": int, "default": 8}), ("--t-final", {"type": float, "default": 20.0}),
        ("--records", {"type": int, "default": 201}), ("--out", {"default": "out_mixed"})]),
    "bounds": ("universal bound curves", command_bounds, [
        *_model_flags("singular-cubic"),
        ("--kind", {"choices": ["mixed", "displacement"], "default": "displacement"}),
        ("--mu", {"type": float, "default": 1.0}), ("--out", {"default": "out_bounds"})]),
    "equilibria": ("uniqueness of the equilibrium state", command_equilibria, [
        *_model_flags("cubic"),
        ("--mu", {"type": float, "required": True}), ("--out", {"default": ""})]),
    "asympt": ("long-time diagnostics of a saved trajectory", command_asympt, [
        ("--trajectory", {"required": True, "help": "path prefix of trajectory.{csv,json}"}),
        ("--out", {"default": "out_asympt"})]),
    "counterexample": ("spiral ODE ensemble", command_counterexample, [
        ("--demo", {"action": "store_true"}), ("--r0", {"type": float, "default": 2.0}),
        ("--theta0", {"type": float, "default": 0.0}), ("--z0", {"type": float, "default": 0.0}),
        ("--t-final", {"type": float, "default": 1e3}),
        ("--records", {"type": int, "default": 401}),
        ("--out", {"default": "out_counterexample"})]),
    "plotdata": ("plot-ready CSV/SVG from a trajectory", command_plotdata, [
        ("--trajectory", {"required": True}),
        ("--kind", {"required": True, "choices": ["fan", "c", "energy", "fractions"]}),
        ("--out", {"default": "out_plots"})]),
    "sweep": ("concurrent grid of runs", command_sweep, [
        ("--config", {"required": True}),
        ("--grid", {"required": True,
                    "help": "JSON object mapping dotted config keys to value lists"}),
        ("--workers", {"type": int}), ("--out", {"default": "out_sweep"})]),
}


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser of the subcommand ``argv`` starts with alone, else of all."""
    parser = argparse.ArgumentParser(
        prog="strainflow",
        description="numerical laboratory for a nonlocal strain gradient flow",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    names = _SUBCOMMANDS
    if argv and argv[0] in _SUBCOMMANDS:  # usage and errors still name all of them
        sub.metavar, names = "{%s}" % ",".join(_SUBCOMMANDS), argv[:1]
    for name in names:
        help_text, handler, flags = _SUBCOMMANDS[name]
        subparser = sub.add_parser(name, help=help_text)
        for flag, keywords in flags:
            subparser.add_argument(flag, **keywords)
        subparser.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        for dest, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"--{dest.replace('_', '-')} must be finite, got {value}")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StrainflowError as exc:
        return _failure(exc)


if __name__ == "__main__":
    sys.exit(main())
