"""Tests of the benchmark itself: repeatable counts, self-time arithmetic,
and verifiers that catch corrupted outputs.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402
from workloads import WORKLOADS, experiment_seeds, make_experiment  # noqa: E402

COUNT_SUFFIXES = ("_calls", "_points", "_steps", "_rejected", "bytes_written", "bytes_read",
                  "_per_prox_step")


# -- metric names --------------------------------------------------------------------


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == [BENCH.name]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_tail_keeps_ten_experiments_beyond_it():
    times = [float(x) for x in range(1, 21)]  # 20 experiments
    value, pct = run.tail(times)
    assert value == 10.0 and pct == 50.0
    assert sum(t > value for t in times) == 10
    value, pct = run.tail(times + [21.0, 22.0])
    assert value == 12.0 and sum(t > value for t in times + [21.0, 22.0]) == 10
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3)


def test_experiment_times_are_divided_by_the_bursts_around_them():
    rows = {name: value for name, value, _, _ in
            run.end_to_end_rows([0.3, 0.1, 0.2], [2.0, 6.0, 3.0], [1.0, 1.0, 3.0, 3.0], 40.0)}
    assert rows["exp_ref_p50"] == 2.0 and rows["exp_ref_tail"] == 1.0  # ratios 2, 3, 1
    assert rows["exp_s_p50"] == 3.0 and rows["setup_s"] == 0.2 and rows["ref_s_p50"] == 2.0


def test_experiment_seeds_depend_only_on_the_workload_seed():
    first = [s for s, _ in zip(experiment_seeds(7, "held-cubic"), range(5))]
    again = [s for s, _ in zip(experiment_seeds(7, "held-cubic"), range(5))]
    other = [s for s, _ in zip(experiment_seeds(8, "held-cubic"), range(5))]
    assert first == again and first != other and len(set(first)) == 5


# -- span arithmetic ----------------------------------------------------------------


def _span(name, parent, start, end, sp0=0, sp1=0):
    return [name, parent, start, end, sp0, sp1]


def test_self_time_on_a_synthetic_tree():
    tree = [
        _span("a", -1, 0.0, 10.0, 0, 100),   # 0
        _span("b", 0, 1.0, 4.0),             # 1  overlaps its sibling c
        _span("c", 0, 3.0, 6.0),             # 2
        _span("d", 1, 2.0, 3.0),             # 3
        _span("a", 2, 4.0, 5.0, 40, 60),     # 4  nested a: busy counted once
        _span("b", -1, 12.0, 13.0),          # 5  a second root
    ]
    totals = spans.span_totals(tree)
    # a: [0,10] minus the union of b and c, [1,6]; the nested a adds its own 1
    assert totals["a"] == {"calls": 2, "busy": 10.0, "self": 6.0, "sigma_points": 100}
    assert totals["b"] == {"calls": 2, "busy": 4.0, "self": 3.0, "sigma_points": 0}
    assert totals["c"]["self"] == 2.0 and totals["d"]["self"] == 1.0


def test_recorder_nests_spans_and_counts_sigma_points():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))

    def inner():
        rec.counters[spans.SIGMA_POINTS] += 7
        return "x"

    outer = rec.wrap("outer", lambda: rec.wrap("inner", inner)())
    assert outer() == "x"
    (o_name, o_parent, o0, o1, *_), (i_name, i_parent, i0, i1, *_) = rec.spans
    assert (o_name, o_parent, i_name, i_parent) == ("outer", -1, "inner", 0)
    assert o0 < i0 < i1 < o1
    totals = spans.span_totals(rec.spans)
    assert totals["outer"]["sigma_points"] == totals["inner"]["sigma_points"] == 7
    assert totals["outer"]["self"] == (o1 - o0) - (i1 - i0)


def test_tracer_restores_every_wrapped_name():
    import importlib

    targets = [(importlib.import_module(m), a) for ts in spans.MODULE_TARGETS.values()
               for m, a in ts]
    targets += [(getattr(importlib.import_module(m), c), a)
                for m, c, a in spans.CLASS_TARGETS.values()]
    before = [owner.__dict__[attr] for owner, attr in targets]
    with spans.Tracer(spans.Recorder()):
        assert all(owner.__dict__[attr] is not b for (owner, attr), b in zip(targets, before))
    assert all(owner.__dict__[attr] is b for (owner, attr), b in zip(targets, before))


# -- repeatable traced counts ---------------------------------------------------------


def _traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items() if k.endswith(COUNT_SUFFIXES)}


@pytest.mark.parametrize("workload", ["held-cubic", "free-field"])
def test_two_traced_runs_report_identical_counts(workload):
    first = _traced_counts(workload, 5)
    assert first == _traced_counts(workload, 5)
    assert any(v > 0 for v in first.values())


# -- verifiers against real and corrupted outputs ------------------------------------------


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One real experiment per workload, run in process."""
    import os

    import strainflow.cli

    root = tmp_path_factory.mktemp("out")
    old = os.environ.get("STRAINFLOW_OUT")
    os.environ["STRAINFLOW_OUT"] = str(root)
    try:
        made = {}
        for index, name in enumerate(WORKLOADS):
            exp = make_experiment(WORKLOADS[name], index, next(experiment_seeds(3, name)), root)
            codes, _ = run.run_experiment(strainflow.cli.main, exp)
            made[name] = (exp, codes)
    finally:
        if old is None:
            del os.environ["STRAINFLOW_OUT"]
        else:
            os.environ["STRAINFLOW_OUT"] = old
    return root, made


def _corrupt_copy(outputs, name, tmp_path):
    root, made = outputs
    exp, codes = made[name]
    dst = tmp_path / exp.out
    shutil.copytree(root / exp.out, dst)
    return dst, exp, codes


def _check(name, out_dir, exp, codes):
    return WORKLOADS[name].check(out_dir, exp, codes, verify.Context())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_clean_outputs_pass(outputs, name):
    root, made = outputs
    exp, codes = made[name]
    assert _check(name, root / exp.out, exp, codes) == []


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_nonzero_exit_and_missing_files_are_failures(outputs, name, tmp_path):
    out_dir, exp, codes = _corrupt_copy(outputs, name, tmp_path)
    assert _check(name, out_dir, exp, [1] + codes[1:])
    assert _check(name, out_dir, exp, codes[:-1] if len(codes) > 1 else [])
    shutil.rmtree(out_dir)
    assert any("unreadable" in p for p in _check(name, out_dir, exp, codes))


def _rewrite_csv(path, edit):
    header = path.read_text().splitlines()[0]
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    edit(header.split(","), data)
    np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")


def test_free_field_flags_a_non_monotone_sample(outputs, tmp_path):
    out_dir, exp, codes = _corrupt_copy(outputs, "free-field", tmp_path)
    i = next(k for k, v in enumerate(exp.inputs["values"]) if v > 0)

    def bump(header, data):
        col = header.index(f"p_{i + 1}")
        trend = np.sign(data[-1, col] - data[0, col])
        data[100, col] = data[99, col] - 1e-3 * trend

    _rewrite_csv(out_dir / "trajectory.csv", bump)
    problems = _check("free-field", out_dir, exp, codes)
    assert any(f"p_{i + 1}(t) is not monotone" in p for p in problems)


def test_free_field_flags_a_zero_start_below_the_envelope(outputs, tmp_path):
    out_dir, exp, codes = _corrupt_copy(outputs, "free-field", tmp_path)
    i = exp.inputs["values"].index(0.0)

    def sink(header, data):
        data[1:, header.index(f"p_{i + 1}")] *= 0.5

    _rewrite_csv(out_dir / "trajectory.csv", sink)
    problems = _check("free-field", out_dir, exp, codes)
    assert any("below the lower envelope" in p for p in problems)


def test_free_field_flags_a_wrong_solution(outputs, tmp_path):
    out_dir, exp, codes = _corrupt_copy(outputs, "free-field", tmp_path)
    i = next(k for k, v in enumerate(exp.inputs["values"]) if v > 0)

    def drift(header, data):
        data[1:, header.index(f"p_{i + 1}")] *= 1.0 + 1e-5

    _rewrite_csv(out_dir / "trajectory.csv", drift)
    problems = _check("free-field", out_dir, exp, codes)
    assert any("differs from the reference" in p for p in problems)


@pytest.mark.parametrize("name", ["held-cubic", "held-prox"])
def test_held_flags_a_failed_report_check_and_mass_drift(outputs, name, tmp_path):
    out_dir, exp, codes = _corrupt_copy(outputs, name, tmp_path)
    report = json.loads((out_dir / "report.json").read_text())
    report["checks"]["bound_enclosure"] = False
    (out_dir / "report.json").write_text(json.dumps(report))

    def shift(header, data):
        data[-1, header.index("p_1")] += 1e-6

    _rewrite_csv(out_dir / "trajectory.csv", shift)
    problems = _check(name, out_dir, exp, codes)
    assert any("bound_enclosure" in p for p in problems)
    assert any("mass drifts" in p for p in problems)


def test_held_cubic_flags_a_large_sigma_bar_residual(outputs, tmp_path):
    out_dir, exp, codes = _corrupt_copy(outputs, "held-cubic", tmp_path)
    report = json.loads((out_dir / "report.json").read_text())
    report["asymptotics"]["sigma_bar_residual"] = 1e-3
    (out_dir / "report.json").write_text(json.dumps(report))
    asympt = json.loads((out_dir / "asympt" / "asympt.json").read_text())
    asympt["fractions_final"] = None
    (out_dir / "asympt" / "asympt.json").write_text(json.dumps(asympt))
    problems = _check("held-cubic", out_dir, exp, codes)
    assert any("sigma_bar_residual" in p for p in problems)
    assert any("fractions_final" in p for p in problems)


def test_spiral_flags_a_wrong_angle_and_a_rising_lyapunov(outputs, tmp_path):
    out_dir, exp, codes = _corrupt_copy(outputs, "spiral", tmp_path)

    def twist(header, data):
        data[200:, header.index("theta")] += 1e-4

    def rise(header, data):
        data[300, header.index("z")] *= 1.05

    _rewrite_csv(out_dir / "member_00.csv", twist)
    _rewrite_csv(out_dir / "member_05.csv", rise)
    problems = _check("spiral", out_dir, exp, codes)
    assert any("member 0: theta gain" in p for p in problems)
    assert any("member 5: r^2 + z^2 rises" in p for p in problems)
