import argparse
import concurrent.futures
import importlib.util
import json
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from strainflow import cli, displacement, mixed
from strainflow.bounds import bounds_profile
from strainflow.cli import ExperimentConfig, load_config, main
from strainflow.errors import ConfigError, StiffnessError
from strainflow.state import Trajectory
from strainflow.stress_models import make_model

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
README = Path(__file__).resolve().parent.parent / "README.md"


def write_config(path, **overrides):
    data = {
        "model": {"name": "cubic", "params": {}},
        "bc": "displacement",
        "mu": 0.5,
        "n": 8,
        "initial": {"kind": "seeded", "seed": 0},
        "t_final": 5.0,
        "record_every": 0.25,
        "output_dir": "run",
    }
    data.update(overrides)
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


def _tamper_solve_field(monkeypatch, tamper):
    """Make ``cli.solve_field`` return its trajectory damaged by ``tamper``."""
    real = cli.solve_field

    def tampered(*args, **kwargs):
        traj, limit = real(*args, **kwargs)
        if tamper == "reverse":    # one path turns back once
            traj.values[5, 0] = traj.values[4, 0] - 1e-3 * (traj.values[5, 0] - traj.values[4, 0])
        elif tamper == "energy":
            traj.energy[-1] = traj.energy[-2] + 1e-9
        elif tamper == "dissipation":
            traj.dissipation_cum[:] *= 1.01
        else:
            traj.values[1:, 0] = 1e-9
        return traj, limit

    monkeypatch.setattr(cli, "solve_field", tampered)


def _readme_command_lines() -> list[list[str]]:
    """The argv of each ``strainflow ...`` line of README's "Command line"
    block, less those that need a user's file (``--config cfg.json``, ``sweep``)."""
    block = README.read_text().split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True)[1:] for line in block.splitlines()
             if line.startswith("strainflow ")]
    return [argv for argv in lines if "--config" not in argv and argv[0] != "sweep"]


@pytest.fixture()
def out_env(tmp_path, monkeypatch):
    monkeypatch.setenv("STRAINFLOW_OUT", str(tmp_path))
    return tmp_path


class TestConfig:
    def test_round_trip_identical(self, tmp_path):
        cfg_path = write_config(tmp_path / "c.json", mu=0.7)
        cfg = load_config(str(cfg_path))
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert cfg.to_dict() == again.to_dict()
        assert cfg.hash() == again.hash()

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        with open(path, "w") as fh:
            json.dump({"banana": 1}, fh)
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_overrides(self, tmp_path):
        cfg_path = write_config(tmp_path / "c.json")
        cfg = load_config(str(cfg_path), ["mu=0.9", "initial.seed=7"])
        assert cfg.mu == 0.9
        assert cfg.initial["seed"] == 7


class TestRunCommand:
    def test_minimal_run_all_checks_pass(self, out_env, tmp_path):
        cfg_path = write_config(tmp_path / "c.json")
        code = main(["run", "--config", str(cfg_path)])
        assert code == 0
        run_dir = out_env / "run"
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["checks"] and all(manifest["checks"].values())
        for name in manifest["files"]:
            assert (run_dir / name).exists()
        report = json.loads((run_dir / "report.json").read_text())
        assert "bounds_constants" in report  # upper curve for the cubic
        assert report["checks"]["mass_conservation"]

    def test_unchecked_run_says_so(self, out_env, tmp_path):
        # a run that ends before its checks says in its manifest that nothing
        # was checked; a run that reaches them always checks
        cfg_path = write_config(tmp_path / "c.json", stepper={"kind": "prox", "tau": 10.0},
                                record_every=2.0, output_dir="run_unchecked")
        assert main(["run", "--config", str(cfg_path)]) == 4
        manifest = json.loads((out_env / "run_unchecked" / "manifest.json").read_text())
        assert manifest["checks"] == {} and manifest["checked"] is False
        cfg_path = write_config(tmp_path / "c.json", output_dir="run_checked")
        assert main(["run", "--config", str(cfg_path)]) == 0
        for name in ("report.json", "manifest.json"):
            assert json.loads((out_env / "run_checked" / name).read_text())["checked"] is True

    @pytest.mark.parametrize("model, error", [
        # p + 1/p has no root, which the zero strain's limit needs
        ({"name": "poly", "params": {"coeffs": [1.0, 0.0], "kappa": -1.0}}, "no root of sigma"),
        # 1 - p is positive below its root: the zero strain cannot start
        ({"name": "poly", "params": {"coeffs": [-1.0, 1.0], "domain": "positive"}},
         "not negative between zero strain"),
    ])
    def test_hypothesis_failure_exits_3_with_manifest(self, out_env, tmp_path, model, error):
        # neither law admits an envelope, which only leaves them absent: the
        # integration of the zero strain is what fails
        cfg_path = write_config(
            tmp_path / "c.json",
            model=model,
            mu=1.0,
            initial={"kind": "explicit", "values": [0.0, 1.0, 2.0]},
            bc="mixed",
            output_dir="run3",
        )
        code = main(["run", "--config", str(cfg_path)])
        assert code == 3
        manifest = json.loads((out_env / "run3" / "manifest.json").read_text())
        assert manifest["exit_code"] == 3
        assert error in manifest["error"]
        report = json.loads((out_env / "run3" / "report.json").read_text())
        assert report["error"] == manifest["error"]

    def test_bound_budget_failure_exits_4_with_manifest(self, out_env, tmp_path, monkeypatch):
        # one root-finder iteration cannot invert the cubic's upper-bound curve
        monkeypatch.setattr("strainflow.numerics._BISECT_MAX_ITER", 1)
        cfg_path = write_config(tmp_path / "c.json", output_dir="run_budget")
        assert main(["run", "--config", str(cfg_path)]) == 4
        manifest = json.loads((out_env / "run_budget" / "manifest.json").read_text())
        assert manifest["exit_code"] == 4
        assert "after 1 iterations" in manifest["error"]
        report = json.loads((out_env / "run_budget" / "report.json").read_text())
        assert report["error"] == manifest["error"]

    def test_empty_initial_values_exit_2(self, out_env, tmp_path):
        cfg_path = write_config(
            tmp_path / "c.json",
            initial={"kind": "explicit", "values": []},
        )
        assert main(["run", "--config", str(cfg_path)]) == 2

    def test_mixed_bc_with_prox_exits_2(self, out_env, capsys):
        # the traction-free flow has no proximal stepper; rk45 must not stand in
        argv = ["run", "--set", 'bc="mixed"', "--model", "singular-cubic", "--stepper", "prox",
                "--t-final", "1", "--out", "mixed_prox"]
        assert main(argv) == 2
        assert "rk45 only" in capsys.readouterr().err
        assert not (out_env / "mixed_prox" / "report.json").exists()

    @pytest.mark.parametrize("with_config", [False, True])
    @pytest.mark.parametrize("overrides", [
        ["foo"],                        # no '='
        ["mu.x=1"],                     # object for a scalar field
        ["mu=0.7", "mu.x=1"],           # dotted path through a number
        ['record_every={"x": 1}'],      # object for a scalar field
        ["n=[1]"],                      # list for an integer field
        ['mu="a"'],                     # string for a number
        ['t_final="5"'],                # numeric string for a number
        ["initial.seed=[1]"],           # list for an integer field
        ["stepper.rtoll=1e-3"],         # unknown nested keys
        ["analyses.invarants=false"],
        ['model.nmae="cubic"'],
        ["initial.colour=1"],
        ['initial.kind="ramp"', 'initial.samples="abc"'],
        ['initial.kind="ramp"', "initial.samples=0"],
        ['initial.kind="ramp"', "initial.samples=-3"],
        ['initial.kind="explicit"', 'initial.values=[1,"a"]'],
        ['initial.kind="explicit"', "initial.values=[0.5,1.5]", "initial.weights=[0.5,0.4]"],
        ["initial.lo=3", "initial.hi=1"],
        ['initial.kind="ramp"', "initial.samples=2.5"],
        ['initial.kind="ramp"', 'initial.samples="12"'],
        # analyses switches are booleans (bounds_* also "auto"): a string is truthy
        ["analyses.bounds_upper=off", "analyses.invariants=no"],
        ['analyses.bounds_lower="yes"'],
        ["analyses.bounds_upper=1"],
        ['analyses.asympt="auto"'],
        ["analyses.invariants=0"],
        ["analyses.asympt=null"],
    ])
    def test_malformed_override_exits_2(self, out_env, tmp_path, capsys, with_config, overrides):
        argv = ["run", "--out", "bad"]
        if with_config:
            argv += ["--config", str(write_config(tmp_path / "c.json"))]
        for ov in overrides:
            argv += ["--set", ov]
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err

    def test_prox_step_that_cannot_converge_exits_4(self, out_env, capsys):
        # sigma' overflows at 1e-200, so no proximal step from here is stationary
        argv = ["run", "--model", "singular-cubic", "--stepper", "prox", "--tau", "0.01",
                "--t-final", "1", "--mu", "1", "--set", 'initial.kind="explicit"',
                "--set", "initial.values=[1e-200,1,2]", "--out", "stuck"]
        assert main(argv) == 4
        assert "stationarity spread" in capsys.readouterr().err
        run_dir = out_env / "stuck"
        manifest = json.loads((run_dir / "manifest.json").read_text())
        report = json.loads((run_dir / "report.json").read_text())
        assert manifest["exit_code"] == 4
        assert report["error"] == manifest["error"]
        assert "stationarity spread" in manifest["error"]

    def test_integration_failure_exits_4_with_partial_outputs(self, out_env, tmp_path):
        # records spaced wider than 1/lambda force a proximal step beyond the
        # monotonicity threshold, which fails the run mid-flight
        cfg_path = write_config(
            tmp_path / "c.json",
            stepper={"kind": "prox", "tau": 10.0},
            record_every=2.0,
            output_dir="run4",
        )
        code = main(["run", "--config", str(cfg_path)])
        assert code == 4
        run_dir = out_env / "run4"
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["exit_code"] == 4
        assert (run_dir / "trajectory.csv").exists()

    def test_traction_free_integration_failure_exits_4_with_report(self, out_env, monkeypatch):
        # the stepper fails as rk45 does, with its records so far as
        # exc.partial; a failure inside the traction-free ensemble keeps none
        real = mixed.rk45

        def failing(f, y0, t_record, **kwargs):
            exc = StiffnessError("step size underflow in a replaced stepper")
            exc.partial = real(f, y0, t_record[:2], **kwargs)
            raise exc

        monkeypatch.setattr(mixed, "rk45", failing)
        argv = ["mixed", "--model", "singular-cubic", "--p0", "1.0", "--out", "free_fail"]
        assert main(argv) == 4
        run_dir = out_env / "free_fail"
        manifest = json.loads((run_dir / "manifest.json").read_text())
        report = json.loads((run_dir / "report.json").read_text())
        assert manifest["exit_code"] == 4
        assert report["error"] == manifest["error"] == "step size underflow in a replaced stepper"
        assert manifest["files"] == ["report.json"]
        assert not (run_dir / "trajectory.csv").exists()

    def test_prox_run_checks_energy_inequality(self, out_env, tmp_path):
        cfg_path = write_config(tmp_path / "c.json", stepper={"kind": "prox", "tau": 0.01},
                                output_dir="run_prox")
        assert main(["run", "--config", str(cfg_path)]) == 0
        checks = json.loads((out_env / "run_prox" / "report.json").read_text())["checks"]
        assert checks["energy_inequality"] and checks["energy_nonincreasing"]

    @pytest.mark.parametrize("overrides, counters", [
        ({}, {"n_steps", "n_rejected"}),
        ({"stepper": {"kind": "prox", "tau": 0.01}}, {"n_steps", "newton_iters", "max_residual"}),
        ({"model": {"name": "singular-cubic", "params": {}}, "bc": "mixed", "mu": 1.0,
          "initial": {"kind": "seeded", "seed": 3, "lo": 0.5, "hi": 2.0}},
         {"n_steps", "n_rejected"}),
    ], ids=["rk45", "prox", "traction-free"])
    def test_report_carries_solver_counters(self, out_env, tmp_path, overrides, counters):
        cfg_path = write_config(tmp_path / "c.json", output_dir="run_stats", **overrides)
        assert main(["run", "--config", str(cfg_path)]) == 0
        run_dir = out_env / "run_stats"
        stats = json.loads((run_dir / "report.json").read_text())["stats"]
        meta = json.loads((run_dir / "trajectory.json").read_text())["metadata"]
        assert set(stats) == counters
        assert stats == {key: meta[key] for key in counters}
        assert stats["n_steps"] > 0

    def test_overshooting_step_fails_energy_inequality(self, out_env, tmp_path, monkeypatch):
        # 2.9 explicit Euler steps per step: the energy still falls, but by
        # less than half the recorded dissipation
        def overshoot(model, p, w, mu, tau, start):
            return p + 2.9 * tau * displacement._velocity(model, w, p), 1, 0.0

        monkeypatch.setattr(displacement, "_prox_solve", overshoot)
        cfg_path = write_config(tmp_path / "c.json", stepper={"kind": "prox", "tau": 0.01},
                                output_dir="run_overshoot")
        assert main(["run", "--config", str(cfg_path)]) == 1
        checks = json.loads((out_env / "run_overshoot" / "report.json").read_text())["checks"]
        assert checks["energy_inequality"] is False
        assert all(ok for name, ok in checks.items() if name != "energy_inequality")

    def test_determinism_bit_identical_csv(self, out_env, tmp_path):
        cfg_a = write_config(tmp_path / "a.json", output_dir="run_a")
        cfg_b = write_config(tmp_path / "b.json", output_dir="run_b")
        assert main(["run", "--config", str(cfg_a)]) == 0
        assert main(["run", "--config", str(cfg_b)]) == 0
        bytes_a = (out_env / "run_a" / "trajectory.csv").read_bytes()
        bytes_b = (out_env / "run_b" / "trajectory.csv").read_bytes()
        assert bytes_a == bytes_b

    def test_file_initial_data(self, out_env, tmp_path):
        samples = np.linspace(0.1, 1.9, 64)
        sample_path = tmp_path / "samples.txt"
        np.savetxt(sample_path, samples)
        cfg_path = write_config(
            tmp_path / "c.json",
            mu=1.0,
            initial={"kind": "file", "path": str(sample_path)},
            output_dir="run_file",
            t_final=2.0,
        )
        assert main(["run", "--config", str(cfg_path)]) == 0
        report = json.loads((out_env / "run_file" / "report.json").read_text())
        assert report["checks"]["mass_conservation"]

    def test_ramp_initial_data(self, out_env, tmp_path):
        cfg_path = write_config(tmp_path / "c.json", initial={"kind": "ramp", "samples": 256},
                                output_dir="run_ramp", t_final=2.0)
        assert main(["run", "--config", str(cfg_path)]) == 0
        traj = Trajectory.load(out_env / "run_ramp" / "trajectory")
        assert traj.values.shape[1] == 8  # n levels
        assert abs(traj.mass()[0] - 0.5) <= 1e-12

    def test_explicit_initial_data_with_weights(self, out_env, tmp_path):
        cfg_path = write_config(
            tmp_path / "c.json",
            initial={"kind": "explicit", "values": [0.2, 0.6, 1.0], "weights": [0.5, 0.25, 0.25]},
            output_dir="run_weights",
            t_final=2.0,
        )
        assert main(["run", "--config", str(cfg_path)]) == 0
        traj = Trajectory.load(out_env / "run_weights" / "trajectory")
        assert traj.weights.tolist() == [0.5, 0.25, 0.25]
        assert abs(traj.mass()[0] - 0.5) <= 1e-12

    @pytest.mark.parametrize("values, code", [("[0.5,1.5]", 2), ("[0.25,0.75]", 0)])
    def test_explicit_values_must_have_mean_mu(self, out_env, capsys, values, code):
        # a held run keeps the data's mean; mu (0.5 by default) must be that mean
        argv = ["run", "--set", 'initial.kind="explicit"', "--set", f"initial.values={values}",
                "--t-final", "1", "--out", "means"]
        assert main(argv) == code
        if code:
            err = capsys.readouterr().err
            assert "config error" in err and "mean 1.0" in err and "mu is 0.5" in err
        else:
            report = json.loads((out_env / "means" / "report.json").read_text())
            assert report["checks"]["mass_conservation"] is True

    def test_mixed_bc_run(self, out_env, tmp_path):
        cfg_path = write_config(
            tmp_path / "c.json",
            model={"name": "singular-cubic", "params": {"kappa": 0.5}},
            bc="mixed",
            mu=1.0,
            initial={"kind": "seeded", "seed": 3, "lo": 0.5, "hi": 2.0},
            output_dir="run_mixed",
            t_final=3.0,
        )
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert (out_env / "run_mixed" / "trajectory.csv").exists()
        checks = json.loads((out_env / "run_mixed" / "report.json").read_text())["checks"]
        assert set(checks) == {"monotone_paths", "energy_nonincreasing", "energy_equation",
                               "bound_enclosure"}
        assert all(checks.values())

    def test_mixed_bc_run_keeps_weights(self, out_env, tmp_path):
        weights = [0.7, 0.2, 0.1]
        cfg_path = write_config(
            tmp_path / "c.json",
            model={"name": "singular-cubic", "params": {}},
            bc="mixed",
            initial={"kind": "explicit", "values": [0.5, 1.5, 2.0], "weights": weights},
            output_dir="run_mixed_weights",
            t_final=3.0,
        )
        assert main(["run", "--config", str(cfg_path)]) == 0
        traj = Trajectory.load(out_env / "run_mixed_weights" / "trajectory")
        assert traj.weights.tolist() == weights
        sig = make_model("singular-cubic").sigma(traj.values)
        assert np.allclose(traj.stress_mean, sig @ np.array(weights), rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("entry, tamper, failing", [
        pytest.param(entry, tamper, failing,
                     id=f"{tamper}-{failing}" if entry == "run" else f"mixed-{tamper}-{failing}")
        for entry in ("run", "mixed")
        for tamper, failing in [
            ("reverse", "monotone_paths"),
            ("energy", "energy_nonincreasing"),
            ("below_lower", "bound_enclosure"),
            ("dissipation", "energy_equation"),
        ]
    ])
    def test_mixed_checks_catch_tampered_trajectory(self, out_env, tmp_path, monkeypatch,
                                                   entry, tamper, failing):
        # the run config and the mixed preset go through one pipeline, which
        # must catch each damage; p_1 starts at 0 on both, so pinning it at
        # 1e-9 puts it below the lower envelope
        _tamper_solve_field(monkeypatch, tamper)
        if entry == "run":
            argv = ["run", "--config", str(write_config(
                tmp_path / "c.json",
                model={"name": "singular-cubic", "params": {}},
                bc="mixed",
                initial={"kind": "explicit", "values": [0.0, 0.5, 2.0]},
                output_dir="run_tampered",
                t_final=3.0,
            ))]
        else:
            argv = ["mixed", "--model", "singular-cubic", "--p0", "step:0,1.5", "--n", "4",
                    "--t-final", "3", "--records", "31", "--out", "run_tampered"]
        assert main(argv) == 1
        manifest = json.loads((out_env / "run_tampered" / "manifest.json").read_text())
        assert manifest["checks"][failing] is False
        assert manifest["exit_code"] == 1

    @pytest.mark.parametrize("argv", [
        ["run", "--set", 'bc="mixed"', "--set", 'model.name="poly"',
         "--set", 'model.params={"coeffs": [1, 1], "domain": "positive"}',
         "--set", 'initial.kind="explicit"', "--set", "initial.values=[0, 0, 1, 1]"],
        ["mixed", "--model", "poly", "--param", "coeffs=[1, 1]", "--param", "domain=positive",
         "--p0", "step:0,1", "--n", "4"],
    ], ids=["run", "mixed"])
    def test_hypothesis_failure_in_integration_exits_3(self, out_env, capsys, argv):
        # sigma = p + 1 has no root on (0, inf): the limit of a zero strain is
        # a failed hypothesis of the law, not a numerical failure
        assert main(argv + ["--out", "run_hyp"]) == 3
        assert "hypothesis failure" in capsys.readouterr().err
        manifest = json.loads((out_env / "run_hyp" / "manifest.json").read_text())
        assert manifest["exit_code"] == 3
        assert "no root of sigma" in manifest["error"]

    @pytest.mark.parametrize("argv, message", [
        # the cubic has no lower envelope, and its upper one needs a positive mean
        (["bounds", "--model", "cubic", "--mu", "-0.5"], "the upper bound needs a positive mean"),
    ], ids=["bounds-mu"])
    def test_failed_certificate_exits_3(self, out_env, capsys, argv, message):
        # bounds fails only when neither envelope can be built
        assert main(argv + ["--out", "cert"]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("hypothesis failure: ") and message in line

    @pytest.mark.parametrize("argv, file, absent", [
        (["run", "--mu", "-0.5", "--t-final", "1"], "report.json",
         {"lower": "needs a law on (0, inf)", "upper": "the upper bound needs a positive mean"}),
        # sigma = p^3 - p on (0, inf) falls below sigma(eps0) for every eps0 tried
        (["bounds", "--model", "poly", "--param", "coeffs=[1,0,-1,0]", "--param", "domain=positive",
          "--param", "theta=0.5", "--mu", "1"], "bounds.json",
         {"lower": "no eps0 with a positive certified"}),
    ], ids=["run", "bounds-eps0"])
    def test_failed_certificate_is_recorded_as_absent(self, out_env, argv, file, absent):
        assert main(argv + ["--out", "cert"]) == 0
        payload = json.loads((out_env / "cert" / file).read_text())
        got = payload["bounds_absent"] if file == "report.json" else payload["absent"]
        assert set(got) == set(absent)
        assert all(message in got[side] for side, message in absent.items())
        if file == "report.json":  # no envelope, so no vacuous enclosure check
            assert "bound_enclosure" not in payload["checks"] and payload["checks"]

    @pytest.mark.parametrize("name, absent", [
        ("cubic", {"lower"}), ("shifted-cubic", {"lower"}), ("singular-cubic", set()),
        ("linear", {"upper"}), ("hyperbolic", {"upper"}), ("log", {"upper"}),
    ])
    def test_default_run_checks_every_envelope_the_law_admits(self, out_env, name, absent):
        # the full-line laws have no lower envelope; linear, hyperbolic and
        # log have no integrable stress tail, so no upper one
        assert main(["run", "--model", name, "--t-final", "1", "--out", "laws"]) == 0
        report = json.loads((out_env / "laws" / "report.json").read_text())
        assert set(report["bounds_absent"]) == absent
        assert report["checks"]["bound_enclosure"] is True

    def test_config_with_an_analyses_section_exits_2(self, out_env, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "c.json", analyses={"invariants": True})
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "unknown config fields: ['analyses']" in capsys.readouterr().err

    @pytest.mark.parametrize("bc, t_final, every, n_records", [
        ("displacement", 0.9, 0.3, 4),
        ("displacement", 4.2, 0.7, 7),
        ("mixed", 4.2, 0.7, 7),
    ])
    def test_record_grid_ends_once_at_t_final(self, out_env, bc, t_final, every, n_records):
        # arange falls an ulp short of t_final here; that point is t_final, not
        # a second record one ulp before it
        argv = ["run", "--set", f'bc="{bc}"', "--model", "singular-cubic", "--mu", "1.0",
                "--t-final", str(t_final), "--record-every", str(every), "--out", "grid"]
        assert main(argv) == 0
        times = Trajectory.load(out_env / "grid" / "trajectory").times
        assert len(times) == n_records
        assert times[-1] == t_final and np.all(np.diff(times) > 0.5 * every)


class TestOtherCommands:
    def test_mixed_command_columns(self, out_env):
        code = main([
            "mixed", "--model", "linear", "--p0", "3.0", "--n", "4",
            "--t-final", "2.0", "--records", "9", "--out", "m",
        ])
        assert code == 0
        header = (out_env / "m" / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,p_1,p_2,p_3,p_4,c,energy,dissipation"
        manifest = json.loads((out_env / "m" / "manifest.json").read_text())
        assert manifest["files"] == ["trajectory.csv", "trajectory.json", "report.json"]
        assert not (out_env / "m" / "mixed.csv").exists()
        report = json.loads((out_env / "m" / "report.json").read_text())
        assert len(report["limit_field"]) == 4
        traj = Trajectory.load(out_env / "m" / "trajectory")
        assert traj.times.tolist() == np.linspace(0.0, 2.0, 9).tolist()

    def test_mixed_command_with_a_root_beside_a_critical_point_at_zero(self, out_env):
        # sigma = p^3 + 2.5e-163 has its one root at -6.3e-55, which the limit
        # classification used to give up on (exit 4)
        argv = ["mixed", "--model", "poly", "--param", "coeffs=[1,0,0,2.5e-163]", "--p0", "1.0",
                "--out", "m_tiny_root"]
        assert main(argv) == 0

    def test_mixed_command_records_checks(self, out_env):
        argv = ["mixed", "--model", "singular-cubic", "--p0", "step:0,1.5", "--n", "6",
                "--t-final", "5", "--records", "51", "--out", "m_checks"]
        assert main(argv) == 0
        checks = json.loads((out_env / "m_checks" / "report.json").read_text())["checks"]
        assert checks == {"monotone_paths": True, "energy_nonincreasing": True,
                          "energy_equation": True, "bound_enclosure": True}

    def test_mixed_command_config_n_is_the_field_size(self, out_env, tmp_path):
        # explicit data has as many levels as values; --n (default 8) is not read
        path = tmp_path / "p.txt"
        path.write_text("0.5\n1.0\n2.0\n")
        argv = ["mixed", "--p0", f"file:{path}", "--t-final", "1", "--records", "5",
                "--out", "m_n"]
        assert main(argv) == 0
        config = json.loads((out_env / "m_n" / "report.json").read_text())["config"]
        assert config["n"] == len(config["initial"]["values"]) == 3

    def test_bounds_command_csv_and_sidecar(self, out_env):
        code = main([
            "bounds", "--model", "singular-cubic", "--kind", "displacement",
            "--mu", "1.0", "--out", "b",
        ])
        assert code == 0
        header = (out_env / "b" / "bounds.csv").read_text().splitlines()[0]
        assert header == "t,lower,upper"
        constants = json.loads((out_env / "b" / "bounds.json").read_text())["constants"]
        for key in ("C", "eps0", "t0_lower", "M", "t0_upper"):
            assert key in constants

    def test_bounds_on_a_full_line_law_writes_the_upper_envelope(self, out_env):
        # a law on the whole line has no lower envelope (no theta), as in run
        assert main(["bounds", "--model", "cubic", "--mu", "0.5", "--out", "b"]) == 0
        table = np.loadtxt(out_env / "b" / "bounds.csv", delimiter=",", skiprows=1)
        profile = bounds_profile(make_model("cubic"), "displacement", mu=0.5, want_lower=False)
        assert np.isnan(table[:, 1]).all()
        assert np.array_equal(table[:, 2], profile.upper, equal_nan=True)
        assert np.isfinite(profile.upper).any()
        constants = json.loads((out_env / "b" / "bounds.json").read_text())["constants"]
        assert constants == json.loads(json.dumps(profile.constants))

    @pytest.mark.parametrize("argv, finite, absent", [
        (["--model", "linear"], "lower", "upper"),            # no integrable stress tail
        (["--kind", "mixed", "--model", "cubic"], "upper", "lower"),  # no blow-down at 0
    ])
    def test_bounds_writes_the_envelope_the_law_admits(self, out_env, argv, finite, absent):
        assert main(["bounds", *argv, "--out", "b1"]) == 0
        table = np.loadtxt(out_env / "b1" / "bounds.csv", delimiter=",", skiprows=1)
        columns = {"lower": table[:, 1], "upper": table[:, 2]}
        assert np.isfinite(columns[finite]).all() and np.isnan(columns[absent]).all()
        assert list(json.loads((out_env / "b1" / "bounds.json").read_text())["absent"]) == [absent]

    def test_mixed_preset_checks_the_upper_envelope(self, out_env):
        argv = ["mixed", "--model", "singular-cubic", "--t-final", "2", "--records", "11",
                "--out", "m_upper"]
        assert main(argv) == 0
        report = json.loads((out_env / "m_upper" / "report.json").read_text())
        assert "t_saturate_upper" in report["bounds_constants"]
        assert report["bounds_absent"] == {} and report["checks"]["bound_enclosure"] is True

    @pytest.mark.parametrize("argv, finite", [
        (["run", "--model", "linear", "--t-final", "2"], ["lower"]),
        (["mixed", "--model", "singular-cubic", "--t-final", "2", "--records", "11"],
         ["lower", "upper"]),
    ], ids=["linear", "traction-free"])
    def test_plotdata_fan_draws_the_runs_envelopes(self, out_env, argv, finite):
        assert main(argv + ["--out", "fan_run"]) == 0
        assert main(["plotdata", "--trajectory", str(out_env / "fan_run" / "trajectory"),
                     "--kind", "fan", "--out", "fan"]) == 0
        table = np.loadtxt(out_env / "fan" / "plot_fan.csv", delimiter=",", skiprows=1)
        later = table[:, 0] > 0
        for j, side in ((-2, "lower"), (-1, "upper")):
            expected = np.isfinite if side in finite else np.isnan
            assert expected(table[later, j]).all() and np.isnan(table[~later, j]).all()

    def test_equilibria_command(self, out_env, capsys):
        assert main(["equilibria", "--model", "cubic", "--mu", "0.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "NON-UNIQUE"

    def test_equilibria_finds_band_between_grid_levels(self, out_env, capsys):
        # the bistable band (-0.385, 0.385) of p^3 - p on [-6, 5] held no
        # level of an evenly spaced 201-level grid over its stress range
        assert main(["equilibria", "--model", "poly", "--param", "coeffs=[1,0,-1,0]",
                     "--param", "window=[-6,5]", "--mu", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "NON-UNIQUE"
        (example,) = [e for e in payload["examples"] if e["stress_level"] == 0.0]
        assert example["branch_values"] == pytest.approx([-1.0, 1.0], abs=1e-12)
        assert example["fractions"] == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_held_run_and_equilibria_leave_numpy_ma_unimported(self, tmp_path):
        # np.unique imports numpy.ma, which no command needs
        code = ("import sys; from strainflow.cli import main; "
                "assert main(['run', '--n', '8', '--t-final', '2', '--out', 'r']) == 0; "
                "assert main(['equilibria', '--mu', '0.3']) == 0; "
                "print('numpy.ma' in sys.modules)")
        env = {**os.environ, "STRAINFLOW_OUT": str(tmp_path),
               "PYTHONPATH": os.pathsep.join([str(Path(cli.__file__).parent.parent),
                                              os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"

    @pytest.mark.parametrize("coeffs", ["[2.0]", "[]"])
    def test_equilibria_constant_law_is_non_unique(self, out_env, capsys, coeffs):
        assert main(["equilibria", "--model", "poly", "--param", f"coeffs={coeffs}",
                     "--mu", "0.3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "NON-UNIQUE"
        (example,) = payload["examples"]
        assert example["branch_values"] == [-3.0, 3.0]
        assert example["fractions"] == pytest.approx([0.45, 0.55], rel=1e-12)

    def test_counterexample_demo_files(self, out_env):
        code = main([
            "counterexample", "--demo", "--t-final", "50", "--records", "11",
            "--out", "cx",
        ])
        assert code == 0
        summary = json.loads((out_env / "cx" / "counterexample.json").read_text())
        assert len(summary["members"]) == 13
        header = (out_env / "cx" / "member_00.csv").read_text().splitlines()[0]
        assert header == "t,r,theta,z,lyapunov"
        checks = summary["checks"]
        assert set(checks) == {"z_closed_form", "theta_identity", "lyapunov_monotone"}
        for check in checks.values():
            assert check["pass"] and check["value"] <= check["threshold"]

    @pytest.mark.parametrize("member, field, offset", [
        (5, "z", 1e-9),       # z (about 1e-3) off the closed form by 1e-6 relative
        (0, "theta", 1e-6),   # the plane member's angle off its identity
        (2, "r", 0.1),        # r^2 + z^2 rises
    ])
    def test_counterexample_demo_corrupted_member_exits_1(self, out_env, monkeypatch,
                                                          member, field, offset):
        real = cli.simulate_ensemble

        def corrupted(*args, **kwargs):
            trajs = real(*args, **kwargs)
            values = getattr(trajs[member], field).copy()
            values[len(values) // 2:] += offset
            setattr(trajs[member], field, values)
            return trajs

        monkeypatch.setattr(cli, "simulate_ensemble", corrupted)
        code = main(["counterexample", "--demo", "--t-final", "50", "--records", "11",
                     "--out", "cxbad"])
        assert code == 1
        summary = json.loads((out_env / "cxbad" / "counterexample.json").read_text())
        assert len(summary["members"]) == 13
        assert [name for name, c in summary["checks"].items() if not c["pass"]] == [
            {"z": "z_closed_form", "theta": "theta_identity", "r": "lyapunov_monotone"}[field]
        ]

    @pytest.mark.parametrize("args, expected", [
        ([], {"theta_identity", "lyapunov_monotone"}),
        (["--z0", "0.01"], {"z_closed_form", "lyapunov_monotone"}),
        (["--r0", "0.5"], {"lyapunov_monotone"}),  # no angle identity from r0 < 1
    ])
    def test_counterexample_single_run_checked(self, out_env, args, expected):
        code = main(["counterexample", "--t-final", "50", "--records", "11",
                     "--out", "cx1"] + args)
        assert code == 0
        assert (out_env / "cx1" / "counterexample.csv").exists()
        summary = json.loads((out_env / "cx1" / "counterexample.json").read_text())
        assert len(summary["members"]) == 1
        assert set(summary["checks"]) == expected
        assert all(c["pass"] for c in summary["checks"].values())

    def test_counterexample_single_run_corrupted_z_exits_1(self, out_env, monkeypatch):
        real = cli.simulate_cyl

        def corrupted(*args, **kwargs):
            traj = real(*args, **kwargs)
            traj.z = traj.z * (1.0 + 1e-6)
            return traj

        monkeypatch.setattr(cli, "simulate_cyl", corrupted)
        code = main(["counterexample", "--z0", "0.01", "--t-final", "50", "--records", "11",
                     "--out", "cx1bad"])
        assert code == 1
        checks = json.loads((out_env / "cx1bad" / "counterexample.json").read_text())["checks"]
        assert [name for name, c in checks.items() if not c["pass"]] == ["z_closed_form"]

    def test_plotdata_kinds(self, out_env, tmp_path):
        cfg_path = write_config(tmp_path / "c.json", output_dir="runp", n=8)
        assert main(["run", "--config", str(cfg_path)]) == 0
        prefix = str(out_env / "runp" / "trajectory")
        for kind in ("fan", "c", "energy", "fractions"):
            assert main(["plotdata", "--trajectory", prefix, "--kind", kind,
                         "--out", "plots"]) == 0
        fan_header = (out_env / "plots" / "plot_fan.csv").read_text().splitlines()[0]
        assert fan_header.split(",") == (
            ["t"] + [f"p_{i}" for i in range(1, 9)] + ["lower", "upper"]
        )
        fr_rows = (out_env / "plots" / "plot_fractions.csv").read_text().splitlines()[1:]
        sums = [sum(float(x) for x in row.split(",")[1:-1]) for row in fr_rows]
        assert all(s <= 1.0 + 1e-9 for s in sums if not np.isnan(s))
        assert (out_env / "plots" / "plot_energy.svg").exists()

    def test_run_with_flags_only(self, out_env):
        code = main([
            "run", "--model", "cubic", "--mu", "0.6", "--n", "6", "--seed", "5",
            "--t-final", "2.0", "--record-every", "0.5", "--out", "flagrun",
        ])
        assert code == 0
        report = json.loads((out_env / "flagrun" / "report.json").read_text())
        assert report["config"]["mu"] == 0.6
        assert report["config"]["initial"]["seed"] == 5

    def test_run_with_a_root_in_the_subnormal_range(self, out_env):
        # sigma = 1.5 p + 5e-324 has its one root between -5e-324 and 0,
        # where no relative stop of the root finder can close a bracket
        # (it exited 4 on the iteration budget)
        argv = ["run", "--model", "poly", "--set", "model.params.coeffs=[1.5, 5e-324]",
                "--mu", "0.5", "--t-final", "1", "--out", "subnormal_root"]
        assert main(argv) == 0

    def test_asympt_command(self, out_env, tmp_path):
        cfg_path = write_config(tmp_path / "c.json", output_dir="runq", t_final=30.0)
        assert main(["run", "--config", str(cfg_path)]) == 0
        prefix = str(out_env / "runq" / "trajectory")
        assert main(["asympt", "--trajectory", prefix, "--out", "as"]) == 0
        report = json.loads((out_env / "as" / "asympt.json").read_text())
        assert "c_limit" in report and "rhs_norm_final" in report
        header = (out_env / "as" / "asympt.csv").read_text().splitlines()[0]
        assert header.startswith("t,rhs_norm,c")

    def test_sweep_empty_grid(self, out_env, tmp_path):
        cfg_path = write_config(tmp_path / "c.json")
        code = main(["sweep", "--config", str(cfg_path), "--grid", "{}", "--out", "sw"])
        assert code == 0
        agg = json.loads((out_env / "sw" / "sweep.json").read_text())
        assert agg["n_members"] == 0 and agg["members"] == []

    def test_sweep_two_member_grid(self, out_env, tmp_path):
        cfg_path = write_config(tmp_path / "c.json", t_final=2.0)
        grid = json.dumps({"initial.seed": [1, 2]})
        code = main([
            "sweep", "--config", str(cfg_path), "--grid", grid,
            "--workers", "2", "--out", "sw2",
        ])
        assert code == 0
        agg = json.loads((out_env / "sw2" / "sweep.json").read_text())
        assert agg["n_members"] == 2
        assert agg["pass_rate"] == 1.0

    def test_sweep_with_a_failed_member_exits_1(self, out_env, tmp_path):
        cfg_path = write_config(tmp_path / "c.json", t_final=2.0)
        grid = json.dumps({"mu": ["x", 0.5]})
        code = main([
            "sweep", "--config", str(cfg_path), "--grid", grid,
            "--workers", "2", "--out", "sw_fail",
        ])
        assert code == 1
        agg = json.loads((out_env / "sw_fail" / "sweep.json").read_text())
        assert agg["n_members"] == 2 and agg["n_pass"] == 1
        assert sorted(m["exit_code"] for m in agg["members"]) == [-1, 0]

    def test_sweep_row_keeps_a_failed_members_exit_code_and_error(self, out_env, tmp_path):
        # p + 1/p has no root, so a zero strain has no limit: a failed
        # hypothesis in the integration, exit 3, and the row says so
        cfg_path = write_config(tmp_path / "c.json", bc="mixed",
                                model={"name": "poly", "params": {"coeffs": [1, 0], "kappa": -1}},
                                initial={"kind": "explicit", "values": [0.0, 1.0]})
        grid = json.dumps({"initial.seed": [0]})
        code = main(["sweep", "--config", str(cfg_path), "--grid", grid,
                     "--workers", "1", "--out", "sw_hyp"])
        assert code == 1
        (row,) = json.loads((out_env / "sw_hyp" / "sweep.json").read_text())["members"]
        assert row["exit_code"] == 3
        assert "no root of sigma" in row["error"]


class TestInputErrors:
    @pytest.mark.parametrize("argv", [
        ["mixed", "--model", "nope"],
        ["mixed", "--model", "singular-cubic", "--param", "kappa=x"],
        ["bounds", "--model", "nope"],
        ["bounds", "--model", "singular-cubic", "--param", "kappa=x"],
        ["equilibria", "--model", "nope", "--mu", "0.5"],
        ["equilibria", "--model", "poly", "--mu", "0.5"],  # no coeffs
        ["equilibria", "--model", "poly", "--param", "coeffs=[1,0,-1,0]", "--param", "window=[3,-3]",
         "--mu", "0.3"],
        ["equilibria", "--model", "poly", "--param", "coeffs=[1,NaN,-1,0]", "--mu", "0.3"],
        ["mixed", "--p0", "abc"],
        ["mixed", "--p0", "step:1"],
        ["mixed", "--p0", "file:{root}/missing.txt"],
        ["run", "--set", 'initial.kind="file"', "--set", 'initial.path="{root}/missing.txt"'],
        ["run", "--set", 'initial.kind="file"', "--set", 'initial.path="{root}/garbled.txt"'],
        ["run", "--set", 'initial.kind="file"'],  # no path
        ["mixed", "--records", "0"],
        ["mixed", "--n", "0"],
        ["mixed", "--t-final", "-1"],
        ["counterexample", "--records", "0"],
        ["counterexample", "--t-final", "-5"],
        # strains outside a positive-only law's domain
        ["run", "--model", "singular-cubic", "--set", "initial.lo=-1"],
        ["run", "--model", "singular-cubic", "--set", 'initial.kind="explicit"',
         "--set", "initial.values=[-0.5,1.5]"],
        ["run", "--model", "singular-cubic", "--mu", "-0.5"],
        # strains outside [0, inf), which the traction-free flow does not take
        ["mixed", "--p0", "-1"],
        ["mixed", "--p0", "step:-1,2"],
        ["run", "--set", 'bc="mixed"', "--set", 'initial.kind="explicit"',
         "--set", "initial.values=[-0.5,1.5]"],
        ["mixed", "--p0", "nan"],
        ["mixed", "--p0", "inf"],
        ["mixed", "--records", "1"],  # one record cannot reach --t-final
        # numeric flags that are not finite, and a negative radius
        ["counterexample", "--t-final", "inf"],
        ["counterexample", "--r0", "nan"],
        ["counterexample", "--theta0", "nan"],
        ["counterexample", "--z0", "inf"],
        ["counterexample", "--r0", "-1"],
        ["equilibria", "--mu", "nan"],
        ["equilibria", "--mu", "inf"],
        ["bounds", "--mu", "nan"],
        # stepper settings no run can take
        ["run", "--stepper", "prox", "--tau", "0", "--t-final", "1", "--n", "4"],
        ["run", "--stepper", "prox", "--tau", "-0.01", "--t-final", "1", "--n", "4"],
        ["run", "--t-final", "1", "--n", "4", "--set", "stepper.rtol=0", "--set", "stepper.atol=0"],
        ["run", "--t-final", "1", "--n", "4", "--set", "stepper.rtol=-1e-9"],
        ["run", "--t-final", "1", "--n", "4", "--set", "stepper.atol=-1e-12"],
    ])
    def test_bad_model_or_p0_exits_2(self, out_env, capsys, argv):
        (out_env / "garbled.txt").write_text("0.5 abc\n")
        argv = [a.format(root=out_env) for a in argv]
        assert main(argv + ["--out", "bad"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["mixed", "--p0", "file:{root}/empty.txt"],
        ["run", "--set", 'initial.kind="file"', "--set", 'initial.path="{root}/empty.txt"'],
    ])
    def test_empty_sample_file_gives_only_the_config_error(self, out_env, capsys, argv):
        (out_env / "empty.txt").write_text("")
        argv = [a.format(root=out_env) for a in argv]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv + ["--out", "bad"]) == 2
        assert [str(w.message) for w in caught] == []
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: ")

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_sweep_workers_below_one_exit_2(self, out_env, tmp_path, capsys, workers):
        cfg_path = write_config(tmp_path / "c.json", t_final=1.0)
        argv = ["sweep", "--config", str(cfg_path), "--grid", '{"initial.seed": [1]}',
                "--workers", workers, "--out", "sw"]
        assert main(argv) == 2
        assert "config error: --workers must be positive" in capsys.readouterr().err

    def test_sweep_pool_has_at_most_one_worker_per_member(self, out_env, tmp_path, monkeypatch):
        # the pool forks all its workers at the first submit; a recorder
        # stands in for it and maps in this process
        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        cfg_path = write_config(tmp_path / "c.json", t_final=1.0)
        for workers, grid in (("8", [1]), ("2", [1, 2, 3]), (None, [1])):
            argv = ["sweep", "--config", str(cfg_path), "--grid",
                    json.dumps({"initial.seed": grid}), "--out", "sw"]
            assert main(argv + (["--workers", workers] if workers else [])) == 0
        assert sizes == [1, 2, 1]

    @pytest.mark.parametrize("grid", ['{"mu": 0.5}', "[1]"])
    def test_malformed_sweep_grid_exits_2(self, out_env, tmp_path, capsys, grid):
        cfg_path = write_config(tmp_path / "c.json")
        assert main(["sweep", "--config", str(cfg_path), "--grid", grid, "--out", "sw"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["asympt"], ["plotdata", "--kind", "c"]])
    @pytest.mark.parametrize("damage", ["missing", "garbled", "unknown_model", "nan_time"])
    def test_unusable_trajectory_exits_2(self, out_env, capsys, command, damage):
        prefix = out_env / "traj"
        if damage != "missing":
            Trajectory(
                times=np.array([0.0, 1.0]), values=np.ones((2, 2)), weights=np.full(2, 0.5),
                stress_mean=np.zeros(2), energy=np.zeros(2), dissipation=np.zeros(2),
                dissipation_cum=np.zeros(2),
                metadata={"model": {"name": "cubic" if damage == "nan_time" else "nope",
                                    "params": {}}},
            ).save(prefix)
        if damage == "garbled":
            (out_env / "traj.json").write_text("{")
        if damage == "nan_time":  # a valid model, the second record time edited to nan
            csv = out_env / "traj.csv"
            header, first, second = csv.read_text().splitlines()
            csv.write_text("\n".join([header, first, "nan" + second[second.index(","):]]) + "\n")
        assert main(command + ["--trajectory", str(prefix), "--out", "bad"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        if damage == "nan_time":
            assert "cannot read trajectory" in err

    @pytest.mark.parametrize("metadata", [{}, {"kind": "displacement"}, {"kind": "held"}])
    def test_fan_of_a_trajectory_without_its_flow_exits_2(self, out_env, capsys, metadata):
        # the envelopes are those of the trajectory's flow, and a held one's mean
        prefix = out_env / "traj"
        Trajectory(
            times=np.array([0.0, 1.0]), values=np.ones((2, 2)), weights=np.full(2, 0.5),
            stress_mean=np.zeros(2), energy=np.zeros(2), dissipation=np.zeros(2),
            dissipation_cum=np.zeros(2),
            metadata={"model": {"name": "singular-cubic", "params": {}}, **metadata},
        ).save(prefix)
        argv = ["plotdata", "--kind", "fan", "--trajectory", str(prefix), "--out", "bad"]
        assert main(argv) == 2
        assert "names no flow kind and mean strain" in capsys.readouterr().err


class TestOutsideContracts:
    def test_every_subcommand_has_a_handler(self):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert len(sub.choices) == 8
        for name, subparser in sub.choices.items():
            assert callable(subparser.get_default("func")), name

    @pytest.mark.parametrize("argv, expected", [
        (["run"], {"config": None, "overrides": [], "model": None, "mu": None, "n": None,
                   "seed": None, "t_final": None, "stepper": None, "tau": None,
                   "record_every": None, "output_dir": None}),
        (["mixed"], {"model": "singular-cubic", "param": [], "p0": "1.0", "n": 8,
                     "t_final": 20.0, "records": 201, "out": "out_mixed"}),
        (["bounds"], {"model": "singular-cubic", "param": [], "kind": "displacement",
                      "mu": 1.0, "out": "out_bounds"}),
        (["equilibria", "--mu", "0.5"], {"model": "cubic", "param": [], "mu": 0.5, "out": ""}),
        (["asympt", "--trajectory", "t"], {"trajectory": "t", "out": "out_asympt"}),
        (["counterexample"], {"demo": False, "r0": 2.0, "theta0": 0.0, "z0": 0.0,
                              "t_final": 1000.0, "records": 401, "out": "out_counterexample"}),
        (["plotdata", "--trajectory", "t", "--kind", "c"],
         {"trajectory": "t", "kind": "c", "out": "out_plots"}),
        (["sweep", "--config", "c.json", "--grid", "{}"],
         {"config": "c.json", "grid": "{}", "workers": None, "out": "out_sweep"}),
    ])
    def test_every_subcommand_parses_to_its_defaults(self, argv, expected):
        args = vars(cli.build_parser().parse_args(argv))
        assert callable(args.pop("func"))
        assert args == {"command": argv[0], **expected}

    @pytest.mark.parametrize("argv", [
        ["run", "--set", "n=4", "--mu", "0.5", "--stepper", "prox", "--out", "o"],
        ["mixed", "--param", "kappa=0.1", "--n", "4"],
        ["bounds", "--kind", "mixed"],
        ["equilibria", "--mu", "0.5"],
        ["asympt", "--trajectory", "t"],
        ["counterexample", "--demo", "--records", "5"],
        ["plotdata", "--trajectory", "t", "--kind", "fan"],
        ["sweep", "--config", "c.json", "--grid", "{}", "--workers", "1"],
    ], ids=lambda argv: argv[0])
    def test_main_parses_as_the_full_parser(self, argv, monkeypatch):
        # main builds the invoked subcommand's parser alone; the stand-in
        # handler keeps the namespace and returns None
        seen = []
        help_text, _, flags = cli._SUBCOMMANDS[argv[0]]
        monkeypatch.setitem(cli._SUBCOMMANDS, argv[0], (help_text, seen.append, flags))
        assert main(argv) is None
        (sub,) = [a for a in cli.build_parser(argv)._actions
                  if isinstance(a, argparse._SubParsersAction)]
        assert list(sub.choices) == argv[:1]
        assert vars(seen[0]) == vars(cli.build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [["run", "--stepper", "euler"],
                                      ["bounds", "--kind", "both"],
                                      ["plotdata", "--trajectory", "t", "--kind", "fan2"]])
    def test_choice_flags_refuse_other_values(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            cli.build_parser().parse_args(argv)
        assert info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_readme_command_lines_exit_0(self, out_env, monkeypatch):
        # asympt and plotdata read the run line's trajectory by a path that is
        # relative to the working directory
        monkeypatch.chdir(out_env)
        lines = _readme_command_lines()
        assert [argv[0] for argv in lines] == ["run", "bounds", "mixed", "equilibria", "asympt",
                                               "counterexample", "plotdata"]
        for argv in lines:
            assert main(argv) == 0, shlex.join(argv)
        report = json.loads((out_env / "out_m" / "report.json").read_text())
        assert report["checks"]["bound_enclosure"] is True
        assert report["limit_field"] == [1.0] * 8  # the root of p - 1

    def test_benchmark_tracer_installs_and_uninstalls(self):
        # the benchmark's tracer replaces named functions in strainflow's
        # modules; a renamed one must fail here, not only in the benchmark
        spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        before = {name: getattr(cli, name) for name in ("make_model", "integrate", "solve_field")}
        tracer = spans.Tracer(spans.Recorder())
        try:
            tracer.install()
            assert all(getattr(cli, name) is not fn for name, fn in before.items())
        finally:
            tracer.uninstall()
        assert all(getattr(cli, name) is fn for name, fn in before.items())
