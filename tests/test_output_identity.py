"""Output identity: four workload shapes run through ``cli.main`` against a
committed reference, ``output_identity.json``.

The shapes are the held cubic with its ``asympt`` read-back, the held
proximal run, the traction-free field with zero strains, the spiral demo and
``equilibria`` on the cubic at mu = 0 and 0.5 and on p^3 - p over [-6, 5] at
mu = 0.
Each run's exit codes, its file list, every 10th record of each CSV (every
record of the held proximal run's 9) and every number in its JSON outputs
but ``wall_time_s`` must match the reference within 1e-12 * max(1, |ref|).
Numbers are compared, not bytes: BLAS kernels differ between hosts.

A change that moves the outputs on purpose rewrites the reference with

    python tests/test_output_identity.py

which prints what moved in each shape against the old reference, and says
in CHANGES.md why they moved. Only what moved is rewritten: a number within
the tolerance of its reference keeps the reference's value, so a rewrite on
a host whose BLAS rounds differently churns nothing else. Added and removed
keys and files are applied.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:  # run as a script, without conftest
    sys.path.insert(0, str(SRC))

from strainflow.cli import main  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "output_identity.json"
SEED = 31
RTOL = 1e-12
SKIPPED_KEYS = {"wall_time_s"}


def _free_field_config(root: Path) -> Path:
    """8 samples at exactly 0 and 56 uniform in (0.05, 2.8), shuffled."""
    rng = np.random.default_rng(SEED)
    values = rng.permutation(np.concatenate([np.zeros(8), rng.uniform(0.05, 2.8, 56)]))
    path = root / "free-field.json"
    path.write_text(json.dumps({
        "model": {"name": "singular-cubic", "params": {}},
        "bc": "mixed",
        "n": 64,
        "initial": {"kind": "explicit", "values": values.tolist()},
        "t_final": 20.0,
        "record_every": 0.1,
    }))
    return path


# name -> (CSV record stride, argv of each main() call given the output root)
SHAPES = {
    "held-cubic": (10, lambda root: [
        ["run", "--model", "cubic", "--mu", "0.5", "--n", "64", "--t-final", "50",
         "--record-every", "0.25", "--seed", str(SEED), "--out", "held-cubic"],
        ["asympt", "--trajectory", str(root / "held-cubic" / "trajectory"),
         "--out", "held-cubic/asympt"],
    ]),
    "held-prox": (1, lambda root: [
        ["run", "--model", "singular-cubic", "--mu", "1.0", "--n", "16", "--stepper", "prox",
         "--tau", "0.01", "--t-final", "2", "--seed", str(SEED), "--out", "held-prox"],
    ]),
    "free-field": (10, lambda root: [
        ["run", "--config", str(_free_field_config(root)), "--out", "free-field"],
    ]),
    "spiral": (10, lambda root: [["counterexample", "--demo", "--out", "spiral"]]),
    "equilibria": (1, lambda root: [
        ["equilibria", "--model", "cubic", "--mu", "0", "--out", "equilibria/cubic-0"],
        ["equilibria", "--model", "cubic", "--mu", "0.5", "--out", "equilibria/cubic-0.5"],
        ["equilibria", "--model", "poly", "--param", "coeffs=[1,0,-1,0]",
         "--param", "window=[-6,5]", "--mu", "0", "--out", "equilibria/p3-p-0"],
    ]),
}


def _numbers(payload, path="") -> dict:
    """Every number and bool in a JSON payload by its key path, less the
    ``SKIPPED_KEYS``."""
    if isinstance(payload, dict):
        return {k: v for key, item in payload.items() if key not in SKIPPED_KEYS
                for k, v in _numbers(item, f"{path}/{key}").items()}
    if isinstance(payload, list):
        return {k: v for i, item in enumerate(payload)
                for k, v in _numbers(item, f"{path}/{i}").items()}
    return {path: payload} if isinstance(payload, (bool, int, float)) else {}


def run_shape(name: str, root: Path) -> dict:
    """Run shape ``name`` with outputs under ``root`` (``STRAINFLOW_OUT``) and
    digest what it wrote."""
    stride, calls = SHAPES[name]
    digest = {"exit_codes": [main(argv) for argv in calls(root)], "files": {}}
    for path in sorted((root / name).rglob("*")):
        rel = path.relative_to(root).as_posix()
        if path.suffix == ".csv":
            header, *rows = path.read_text().splitlines()
            digest["files"][rel] = {
                "header": header,
                "n_records": len(rows),
                "records": [[float(x) for x in row.split(",")] for row in rows[::stride]],
            }
        elif path.suffix == ".json":
            digest["files"][rel] = _numbers(json.loads(path.read_text()))
    return digest


def _close(value, ref) -> bool:
    if isinstance(ref, bool) or isinstance(value, bool):
        return value is ref
    if math.isnan(ref):
        return math.isnan(value)
    return value == ref or abs(value - ref) <= RTOL * max(1.0, abs(ref))


def _differences(got: dict, ref: dict) -> list[str]:
    out = []
    if got["exit_codes"] != ref["exit_codes"]:
        out.append(f"exit codes {got['exit_codes']} != {ref['exit_codes']}")
    if set(got["files"]) != set(ref["files"]):
        out.append(f"files {sorted(got['files'])} != {sorted(ref['files'])}")
    for rel in sorted(set(got["files"]) & set(ref["files"])):
        g, r = got["files"][rel], ref["files"][rel]
        if "records" in r:
            if (g["header"], g["n_records"]) != (r["header"], r["n_records"]):
                out.append(f"{rel}: header or record count differs")
                continue
            g = {f"/{i}/{j}": x for i, row in enumerate(g["records"]) for j, x in enumerate(row)}
            r = {f"/{i}/{j}": x for i, row in enumerate(r["records"]) for j, x in enumerate(row)}
        if set(g) != set(r):
            out.append(f"{rel}: keys differ: {sorted(set(g) ^ set(r))[:5]}")
        out += [f"{rel}{k}: {g[k]!r} != {r[k]!r}"
                for k in sorted(set(g) & set(r)) if not _close(g[k], r[k])]
    return out


def _keep_unmoved(new, old):
    """``new`` with each number that is within the tolerance of its
    counterpart in ``old`` replaced by that counterpart."""
    if isinstance(new, dict) and isinstance(old, dict):
        return {k: _keep_unmoved(v, old[k]) if k in old else v for k, v in new.items()}
    if isinstance(new, list) and isinstance(old, list) and len(new) == len(old):
        return [_keep_unmoved(v, w) for v, w in zip(new, old)]
    numbers = (bool, int, float)
    if isinstance(new, numbers) and isinstance(old, numbers) and _close(new, old):
        return old
    return new


def test_rewrite_keeps_unmoved_numbers():
    old = {"a": [1.0, 2.0], "b": {"x": 0.5, "gone": 1}, "s": "h", "flag": True}
    new = {"a": [1.0 + 1e-14, 2.5], "b": {"x": 0.5 - 1e-13, "added": 3}, "s": "g", "flag": 1}
    assert _keep_unmoved(new, old) == {"a": [1.0, 2.5], "b": {"x": 0.5, "added": 3},
                                       "s": "g", "flag": 1}


@pytest.mark.parametrize("name", SHAPES)
def test_outputs_match_reference(name, tmp_path, monkeypatch):
    monkeypatch.setenv("STRAINFLOW_OUT", str(tmp_path))
    reference = json.loads(REFERENCE.read_text())[name]
    differences = _differences(run_shape(name, tmp_path), reference)
    assert not differences, "\n".join(differences[:20])


if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.environ["STRAINFLOW_OUT"] = tmp
        digests = {name: run_shape(name, Path(tmp)) for name in SHAPES}
    old = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for name, digest in digests.items():
        moved = _differences(digest, old[name]) if name in old else ["not in the old reference"]
        print(f"{name}: {len(moved)} differences", *moved, sep="\n  ")
    digests = _keep_unmoved(digests, old)
    REFERENCE.write_text(json.dumps(digests, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {REFERENCE}")
