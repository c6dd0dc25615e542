"""strainflow benchmark: four science paths driven through ``strainflow.cli.main``.

    python3 perfbench/run.py --workload held-cubic --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one after another

One process and one thread per workload, as a closed loop: each experiment
starts when the previous one ends, until ``--seconds`` have passed. Times are
reported in seconds and in units of a reference burst run between
experiments (see reference.py). Every experiment's output files are checked
after the loop (see verify.py). With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it has the per-layer metrics of a
traced run, in which traced and untraced experiments alternate. Run from the
root of a strainflow checkout; the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOAD_NAMES = ("held-cubic", "held-prox", "free-field", "spiral")
SETUP_LAUNCHES = 7      # fresh interpreters per set-up measurement
TRACE_POOL = 2          # experiment seeds a traced run cycles through
TAIL_BEYOND = 10        # experiments beyond the reported tail percentile
CLI_SPAN = "cli.main"   # the span opened around each strainflow.cli.main call
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "exp_ref_p50": "ref",
    "exp_ref_tail": "ref",
    "peak_rss_mb": "MB",
}

# per-layer metrics from spans: (span name, report <name>_calls, report <name>_s
# and <name>_self_s)
SPAN_METRICS = [
    ("stress_models.roots_at", True, True),
    ("numerics.bisect_root", True, True),
    ("stress_models.make_model", False, True),
    ("asymptotics.asymptotics_report", False, True),
    ("asymptotics.volume_fractions", True, True),
    ("asymptotics.nc3_check", False, True),
    ("displacement.integrate", False, True),
    ("displacement.prox_step", True, True),
    ("numerics.rk45", True, True),
    ("mixed.solve_field", False, True),
    ("mixed.solve_pointwise", True, False),
    ("mixed.zero_bootstrap", True, False),
    ("numerics.quad_adaptive", True, True),
    ("numerics.curve_build", True, True),
    ("numerics.curve_invert", True, True),
    ("bounds.bounds_profile", False, True),
    ("bounds.mixed_lower", False, True),
    ("bounds.displacement_lower", False, True),
    ("bounds.displacement_upper", False, True),
    ("state.save", False, True),
    ("state.load", False, True),
    ("counterexample.simulate_cyl", True, True),
]
COUNTER_METRICS = [  # counters kept by the wrappers, reported as they are
    ("stress_models.sigma_calls", "count/exp"),
    ("stress_models.sigma_points", "count/exp"),
    ("stress_models.sigma_prime_calls", "count/exp"),
    ("stress_models.sigma_prime_points", "count/exp"),
    ("numerics.rk45_steps", "count/exp"),
    ("numerics.rk45_rejected", "count/exp"),
    ("state.bytes_written", "B/exp"),
    ("state.bytes_read", "B/exp"),
]


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric and its unit, in report order."""
    units = dict(COUNTER_METRICS)
    for span, calls, busy in SPAN_METRICS:
        if calls:
            units[span + "_calls"] = "count/exp"
        if busy:
            units[span + "_s"] = units[span + "_self_s"] = "s/exp"
    units.update({
        "displacement.sigma_points_per_prox_step": "count/call",
        "numerics.rk45_accept_ratio": "ratio",
        "cli.self_s": "s/exp",
        "trace.exp_s_mean": "s",
        "trace.overhead_frac": "ratio",
    })
    return units


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND experiments beyond
    it: ``(value, percentile)``. With TAIL_BEYOND or fewer experiments no
    percentile qualifies and the minimum is returned as percentile 100/n."""
    xs = sorted(times)
    k = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[k], 100.0 * (k + 1) / len(xs)


def layer_metrics(totals_all: dict, n_traced: int, totals_cycle: dict,
                  counters_cycle: dict, n_cycle: int) -> dict[str, float]:
    """Per-experiment means: times over every traced experiment, counts over
    the first cycle of the seed pool (so they repeat exactly at one seed)."""
    zero = {"calls": 0, "busy": 0.0, "self": 0.0, "sigma_points": 0}
    out: dict[str, float] = {}
    for name, _ in COUNTER_METRICS:
        out[name] = counters_cycle.get(name, 0) / n_cycle
    for span, calls, busy in SPAN_METRICS:
        if calls:
            out[span + "_calls"] = totals_cycle.get(span, zero)["calls"] / n_cycle
        if busy:
            row = totals_all.get(span, zero)
            out[span + "_s"] = row["busy"] / n_traced
            out[span + "_self_s"] = row["self"] / n_traced
    prox = totals_cycle.get("displacement.prox_step", zero)
    out["displacement.sigma_points_per_prox_step"] = (
        prox["sigma_points"] / prox["calls"] if prox["calls"] else 0.0
    )
    steps = counters_cycle.get("numerics.rk45_steps", 0)
    tried = steps + counters_cycle.get("numerics.rk45_rejected", 0)
    out["numerics.rk45_accept_ratio"] = steps / tried if tried else 0.0
    out["cli.self_s"] = totals_all.get(CLI_SPAN, zero)["self"] / n_traced
    return out


# -- running experiments ----------------------------------------------------------


def call_main(cli_main, argv: list[str], recorder=None) -> int:
    """One ``main(argv)`` call with its printed paths discarded; an exception
    escaping the CLI is reported and counted as exit code -1."""
    idx = recorder.open(CLI_SPAN) if recorder is not None else None
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli_main(argv)
    except Exception:  # the loop must go on; the failure is counted
        traceback.print_exc()
        return -1
    finally:
        if recorder is not None:
            recorder.close(idx)


def run_experiment(cli_main, exp, recorder=None) -> tuple[list[int], float]:
    """Wall time of the experiment's calls; stops at the first nonzero exit."""
    codes: list[int] = []
    t0 = time.perf_counter()
    for argv in exp.calls:
        codes.append(call_main(cli_main, argv, recorder))
        if codes[-1] != 0:
            break
    return codes, time.perf_counter() - t0


def measure_setup(law: str | None) -> list[float]:
    """Set-up seconds in SETUP_LAUNCHES fresh interpreters, one at a time."""
    out = []
    for _ in range(SETUP_LAUNCHES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), law or ""],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        out.append(float(proc.stdout.split()[-1]))
    return out


def closed_loop(workload, seeds, out_root: Path, seconds: float, cli_main):
    """Experiments back to back until ``seconds`` have passed (at least one),
    with a reference burst before the first and after each one. Returns
    ``[(experiment, exit codes, seconds, traced)]`` and the burst times."""
    import reference
    from workloads import make_experiment

    done, refs = [], [reference.burst()]
    deadline = time.perf_counter() + seconds
    while not done or time.perf_counter() < deadline:
        exp = make_experiment(workload, len(done), next(seeds), out_root)
        codes, dt = run_experiment(cli_main, exp)
        done.append((exp, codes, dt, False))
        refs.append(reference.burst())
    return done, refs


def traced_loop(workload, seeds, out_root: Path, seconds: float, cli_main, rec):
    """Pairs of one untraced and one traced experiment on the same seed,
    alternating which runs first, cycling through TRACE_POOL seeds until
    ``seconds`` have passed (at least one cycle). Returns the experiments as
    ``closed_loop`` does, and the span count and counters after the first
    cycle."""
    import spans
    from workloads import make_experiment

    tracer = spans.Tracer(rec)
    pool = [next(seeds) for _ in range(TRACE_POOL)]
    done, cut = [], None
    deadline = time.perf_counter() + seconds
    j = 0
    while j < TRACE_POOL or time.perf_counter() < deadline:
        for traced in ((False, True) if j % 2 == 0 else (True, False)):
            exp = make_experiment(workload, len(done), pool[j % TRACE_POOL], out_root)
            if traced:
                with tracer:
                    codes, dt = run_experiment(cli_main, exp, rec)
            else:
                codes, dt = run_experiment(cli_main, exp)
            done.append((exp, codes, dt, traced))
        j += 1
        if j == TRACE_POOL:
            cut = (len(rec.spans), dict(rec.counters))
    return done, cut


def run_workload(args) -> int:
    import spans
    import strainflow.cli
    import verify
    from workloads import WORKLOADS, experiment_seeds

    workload = WORKLOADS[args.workload]
    seeds = experiment_seeds(args.seed, workload.name)
    out_root = OUT_DIR / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    out_root.mkdir(parents=True)
    os.environ["STRAINFLOW_OUT"] = str(out_root)
    try:
        if args.trace:
            rec = spans.Recorder()
            done, cut = traced_loop(workload, seeds, out_root, args.seconds,
                                    strainflow.cli.main, rec)
        else:
            setup = measure_setup(workload.law)
            done, refs = closed_loop(workload, seeds, out_root, args.seconds,
                                     strainflow.cli.main)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        ctx = verify.Context()
        failed = 0
        for exp, codes, _, _ in done:
            problems = workload.check(out_root / exp.out, exp, codes, ctx)
            if problems:
                failed += 1
                print(f"experiment {exp.index} (seed {exp.seed}) failed: " + "; ".join(problems),
                      file=sys.stderr)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    attempted = len(done)
    head = (f"{workload.name}  seed {args.seed}  trace {args.trace}  "
            f"experiments {attempted}  failed {failed}")
    if args.trace:
        span_file = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        rec.write(span_file)
        print(f"{head}  spans in {span_file.relative_to(ROOT)}")
        rows = trace_rows(rec, cut, [(dt, traced) for _, _, dt, traced in done])
    else:
        print(head)
        rows = end_to_end_rows(setup, [dt for _, _, dt, _ in done], refs, peak_rss_mb)
        rows.append(("fail_frac", failed / attempted, "ratio", f"{failed}/{attempted}"))
    for name, value, unit, note in rows:
        print(f"  {name:<44} {value:>14.6g} {unit:<9} {note}")
    units = per_layer_units() if args.trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in rows if name in units},
    }
    print(json.dumps(result))
    return 0


def end_to_end_rows(setup: list[float], times: list[float], refs: list[float],
                    peak_rss_mb: float):
    """``(name, value, unit, note)`` for each end-to-end metric, followed by
    the raw wall times they are derived from. Experiment i's time in ``ref``
    units is its wall time over the mean of the bursts before and after it."""
    ratios = [dt / (0.5 * (a + b)) for dt, a, b in zip(times, refs, refs[1:])]
    n = len(times)
    ratio_tail, ratio_pct = tail(ratios)
    tail_s, tail_pct = tail(times)
    return [
        ("setup_s", statistics.median(setup), "s", f"median of {len(setup)} launches"),
        ("exp_ref_p50", statistics.median(ratios), "ref", f"n={n}"),
        ("exp_ref_tail", ratio_tail, "ref", f"p{ratio_pct:.0f}, n={n}"),
        ("peak_rss_mb", peak_rss_mb, "MB", "ru_maxrss"),
        ("exp_s_p50", statistics.median(times), "s", f"n={n}, wall time"),
        ("exp_s_tail", tail_s, "s", f"p{tail_pct:.0f}, n={n}, wall time"),
        ("ref_s_p50", statistics.median(refs), "s", f"n={len(refs)}, one reference burst"),
    ]


def trace_rows(rec, cut: tuple[int, dict], times: list[tuple[float, bool]]):
    """``(name, value, unit, note)`` for each per-layer metric."""
    import spans

    traced = [dt for dt, t in times if t]
    plain = [dt for dt, t in times if not t]
    metrics = layer_metrics(spans.span_totals(rec.spans), len(traced),
                            spans.span_totals(rec.spans[:cut[0]]), cut[1], TRACE_POOL)
    metrics["trace.exp_s_mean"] = statistics.fmean(traced)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return [(name, metrics[name], unit, "") for name, unit in per_layer_units().items()]


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="one workload; omitted runs all four, each in its own process")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=float, default=28.0,
                        help="length of the closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "strainflow" / "cli.py").is_file():
        print(f"error: no strainflow sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import strainflow

    if not Path(strainflow.__file__).resolve().is_relative_to(SRC):
        print(f"error: strainflow imported from {strainflow.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
