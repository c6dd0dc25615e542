"""The four benchmark workloads: the argv each experiment hands to
``strainflow.cli.main`` and the outside-in check of what it wrote.

An experiment is one or two ``main(argv)`` calls. Its seed comes from the
workload seed; the program sees only the generated argv or config file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import verify

FREE_FIELD_ZEROS = 8
FREE_FIELD_SAMPLES = 64
FREE_FIELD_RANGE = (0.05, 2.8)


@dataclass(frozen=True)
class Experiment:
    index: int
    seed: int
    out: str                    # output directory, relative to STRAINFLOW_OUT
    calls: list[list[str]]      # argv of each main() call, run in order
    inputs: dict                # what the verifier needs to know about the inputs


@dataclass(frozen=True)
class Workload:
    name: str
    law: str | None             # stress law built by set-up; None when there is none
    build: Callable[[int, str, Path], tuple[list[list[str]], dict]]
    check: Callable[[Path, Experiment, list[int], "verify.Context"], list[str]]


def _held_cubic(seed: int, out: str, root: Path):
    run = ["run", "--model", "cubic", "--mu", "0.5", "--n", "64", "--t-final", "50",
           "--record-every", "0.25", "--seed", str(seed), "--out", out]
    asympt = ["asympt", "--trajectory", str(root / out / "trajectory"),
              "--out", f"{out}/asympt"]
    return [run, asympt], {"mu": 0.5, "n": 64, "records": 201}


def _held_prox(seed: int, out: str, root: Path):
    run = ["run", "--model", "singular-cubic", "--mu", "1.0", "--n", "16",
           "--stepper", "prox", "--tau", "0.01", "--t-final", "2",
           "--seed", str(seed), "--out", out]
    return [run], {"mu": 1.0, "n": 16, "records": 9}


def free_field_samples(seed: int) -> list[float]:
    """8 samples at exactly 0 and 56 uniform in (0.05, 2.8), shuffled."""
    rng = np.random.default_rng(seed)
    values = np.concatenate([
        np.zeros(FREE_FIELD_ZEROS),
        rng.uniform(*FREE_FIELD_RANGE, FREE_FIELD_SAMPLES - FREE_FIELD_ZEROS),
    ])
    return [float(x) for x in rng.permutation(values)]


def _free_field(seed: int, out: str, root: Path):
    values = free_field_samples(seed)
    config = {
        "model": {"name": "singular-cubic", "params": {}},
        "bc": "mixed",
        "n": FREE_FIELD_SAMPLES,
        "initial": {"kind": "explicit", "values": values},
        "t_final": 20.0,
        "record_every": 0.1,
    }
    (root / out).mkdir(parents=True, exist_ok=True)
    path = root / out / "config.json"
    path.write_text(json.dumps(config))
    return [["run", "--config", str(path), "--out", out]], {"values": values, "records": 201}


def _spiral(seed: int, out: str, root: Path):
    # the paper's fixed ensemble: the seed does not change it
    return [["counterexample", "--demo", "--out", out]], {}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("held-cubic", "cubic", _held_cubic, verify.check_held_cubic),
        Workload("held-prox", "singular-cubic", _held_prox, verify.check_held_prox),
        Workload("free-field", "singular-cubic", _free_field, verify.check_free_field),
        Workload("spiral", None, _spiral, verify.check_spiral),
    )
}


def experiment_seeds(workload_seed: int, name: str):
    """Endless stream of per-experiment seeds, fixed by the workload seed."""
    rng = np.random.default_rng([workload_seed, list(WORKLOADS).index(name)])
    while True:
        yield int(rng.integers(2**31))


def make_experiment(workload: Workload, index: int, seed: int, root: Path) -> Experiment:
    out = f"exp_{index:04d}"
    calls, inputs = workload.build(seed, out, root)
    return Experiment(index=index, seed=seed, out=out, calls=calls, inputs=inputs)
