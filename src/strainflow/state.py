"""Finite-value strain fields and recorded trajectories.

A :class:`SimpleState` is a strain field taking finitely many values
``values[i]`` on material fractions ``weights[i]``. It is the working state
for both the genuinely finite-dimensional dynamics and grid-sampled general
data (cells become abstract mass fractions with equal weight).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

WEIGHT_TOL = 1e-14


@dataclass(frozen=True)
class SimpleState:
    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if values.ndim != 1 or weights.shape != values.shape or len(values) == 0:
            raise ValueError("values and weights must be matching 1-d arrays")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be strictly positive")
        if abs(weights.sum() - 1.0) > WEIGHT_TOL * len(weights):
            raise ValueError("weights must sum to one")
        values.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def uniform(cls, values) -> "SimpleState":
        values = np.asarray(values, dtype=float)
        n = len(values)
        return cls(values=values, weights=np.full(n, 1.0 / n))

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mu(self) -> float:
        """Mean strain, the conserved mass of the displacement flow."""
        return float(np.dot(self.weights, self.values))

    def with_values(self, values) -> "SimpleState":
        """A state with this state's weights carrying new ``values``."""
        return SimpleState(values=values, weights=self.weights)


def state_distance(a: SimpleState, b: SimpleState) -> float:
    """Weighted L2 distance between two states sharing the same weights."""
    if a.n != b.n or not np.allclose(a.weights, b.weights, rtol=0, atol=1e-15):
        raise ValueError("states must share one weight vector")
    d = a.values - b.values
    return float(np.sqrt(np.dot(a.weights, d * d)))


@dataclass
class Trajectory:
    """Time-stamped states plus per-time diagnostics of one integration."""

    times: np.ndarray
    values: np.ndarray          # (n_records, N)
    weights: np.ndarray
    stress_mean: np.ndarray     # c(t), the spatially averaged stress
    energy: np.ndarray
    dissipation: np.ndarray     # instantaneous rate |p_t|^2 (weighted)
    dissipation_cum: np.ndarray  # int_0^t of the rate, stage-accurate
    metadata: dict = field(default_factory=dict)
    converged: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.times).all() and np.all(np.diff(self.times) > 0)):
            raise ValueError("record times must be finite and strictly increasing")
        rows = len(self.times)
        for name in ("values", "stress_mean", "energy", "dissipation", "dissipation_cum"):
            if len(getattr(self, name)) != rows:
                raise ValueError(f"diagnostic {name!r} does not align with times")

    @property
    def n_records(self) -> int:
        return len(self.times)

    def mass(self) -> np.ndarray:
        return self.values @ self.weights

    # -- persistence (CSV columns: t, p_1..p_N, c, energy, dissipation) ------

    def save(self, prefix) -> tuple[str, str]:
        """Write ``<prefix>.csv`` and ``<prefix>.json``; returns both paths."""
        prefix = str(prefix)
        csv_path = prefix + ".csv"
        json_path = prefix + ".json"
        n = self.values.shape[1]
        header = ["t"] + [f"p_{i + 1}" for i in range(n)] + ["c", "energy", "dissipation"]
        write_csv(csv_path, header, np.column_stack(
            [self.times, self.values, self.stress_mean, self.energy, self.dissipation]))
        sidecar = {
            "weights": list(self.weights),
            "dissipation_cum": list(self.dissipation_cum),
            "converged": bool(self.converged),
            "metadata": self.metadata,
        }
        write_json(json_path, sidecar)
        return csv_path, json_path

    @classmethod
    def load(cls, prefix) -> "Trajectory":
        prefix = str(prefix)
        with open(prefix + ".csv") as fh:
            names = fh.readline().rstrip("\n").split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        with open(prefix + ".json") as fh:
            sidecar = json.load(fh)
        col = dict(zip(names, data.T))
        return cls(
            times=col["t"],
            values=np.column_stack([c for nm, c in col.items() if nm.startswith("p_")]),
            weights=np.asarray(sidecar["weights"], dtype=float),
            stress_mean=col["c"],
            energy=col["energy"],
            dissipation=col["dissipation"],
            dissipation_cum=np.asarray(sidecar["dissipation_cum"], dtype=float),
            metadata=sidecar.get("metadata", {}),
            converged=sidecar.get("converged", False),
        )


def write_csv(path, header: list[str], rows) -> None:
    """Write the 2-d array ``rows`` under a one-line ``header``, every value
    as %.17g, which reads back to the same float64."""
    rows = np.asarray(rows, dtype=float)
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % tuple(row) for row in rows.tolist())


def write_json(path, payload) -> None:
    """Write ``payload`` as indented JSON with sorted keys to a temporary
    file renamed over ``path``, so no reader sees a partly written file and
    a failed write leaves no temporary file behind."""
    tmp = str(path) + ".tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # left only by a failed write or rename
            os.remove(tmp)
