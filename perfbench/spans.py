"""Span recorder and the wrappers that time strainflow's layers from outside.

The program is not edited: ``Tracer.install()`` replaces each traced name at
the attribute its caller looks it up through (``cli`` and the layers import
with ``from .x import y``, so a name can live in several modules), and
``Tracer.uninstall()`` puts the originals back. Spans are kept in memory with
their parent span and written out at the end of a run.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import time
from collections import Counter

import numpy as np

SIGMA_POINTS = "stress_models.sigma_points"

# span name -> the (module, attribute) lookups that reach it
MODULE_TARGETS = {
    "stress_models.make_model": [("strainflow.cli", "make_model")],
    "stress_models.roots_at": [
        ("strainflow.asymptotics", "roots_at"),
        ("strainflow.stress_models", "roots_at"),
    ],
    "numerics.bisect_root": [
        ("strainflow.stress_models", "bisect_root"),
        ("strainflow.numerics", "bisect_root"),
    ],
    "numerics.quad_adaptive": [
        ("strainflow.numerics", "quad_adaptive"),
        ("strainflow.stress_models", "quad_adaptive"),
    ],
    "numerics.rk45": [
        ("strainflow.displacement", "rk45"),
        ("strainflow.mixed", "rk45"),
        ("strainflow.counterexample", "rk45"),
    ],
    "asymptotics.asymptotics_report": [("strainflow.cli", "asymptotics_report")],
    "asymptotics.volume_fractions": [
        ("strainflow.cli", "volume_fractions"),
        ("strainflow.asymptotics", "volume_fractions"),
    ],
    "asymptotics.nc3_check": [("strainflow.asymptotics", "nc3_check")],
    "displacement.integrate": [("strainflow.cli", "integrate")],
    "displacement.prox_step": [("strainflow.displacement", "prox_step")],
    "mixed.solve_field": [("strainflow.cli", "solve_field")],
    "mixed.solve_pointwise": [("strainflow.mixed", "solve_pointwise")],
    "mixed.zero_bootstrap": [("strainflow.mixed", "time_from_zero_curve")],
    "bounds.bounds_profile": [("strainflow.cli", "bounds_profile")],
    "bounds.mixed_lower": [("strainflow.bounds", "mixed_lower")],
    "bounds.displacement_lower": [("strainflow.bounds", "displacement_lower")],
    "bounds.displacement_upper": [("strainflow.bounds", "displacement_upper")],
    "counterexample.simulate_cyl": [
        ("strainflow.cli", "simulate_cyl"),
        ("strainflow.counterexample", "simulate_cyl"),
    ],
}

# span name -> (module, class, attribute) wrapped on the class itself
CLASS_TARGETS = {
    "numerics.curve_build": ("strainflow.numerics", "CumulativeCurve", "__init__"),
    "numerics.curve_invert": ("strainflow.numerics", "CumulativeCurve", "invert"),
    "state.save": ("strainflow.state", "Trajectory", "save"),
    "state.load": ("strainflow.state", "Trajectory", "load"),
}

class Recorder:
    """In-memory spans, each ``[name, parent, start, end, sigma_points_at_start,
    sigma_points_at_end]`` with ``parent`` the index of the enclosing span or -1,
    plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.clock(), None, self.counters[SIGMA_POINTS], None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")
        span = self.spans[idx]
        span[3] = self.clock()
        span[5] = self.counters[SIGMA_POINTS]

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(args, result)`` updates counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, result)
            return result

        return traced

    def write(self, path) -> None:
        """Spans as JSON lines ``[name, parent, start_s, end_s]`` (times
        relative to the first span) followed by one line of counters."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, parent, start, end, _, _ in self.spans:
                fh.write(json.dumps([name, parent, start - t0, end - t0]) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")


def span_totals(spans) -> dict[str, dict]:
    """Per span name: ``calls``, ``busy`` (summed durations of the spans with
    no enclosing span of the same name, so recursion is not counted twice),
    ``self`` (each span's duration minus the union of its children's
    intervals, summed) and ``sigma_points`` (sigma points evaluated inside the
    outermost spans)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, parent, start, end, *_ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, dict] = {}
    for idx, (name, parent, start, end, sp0, sp1) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0, "sigma_points": 0})
        row["calls"] += 1
        row["self"] += (end - start) - _covered(start, end, children.get(idx, []))
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][1]
        if anc < 0:
            row["busy"] += end - start
            row["sigma_points"] += sp1 - sp0
    return out


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


class Tracer:
    """Installs the layer wrappers on strainflow around a traced experiment."""

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        rec, counters = self.rec, self.rec.counters
        after = {
            "numerics.rk45": self._after_rk45,
            "state.save": self._after_save,
            "state.load": self._after_load,
        }
        for name, targets in MODULE_TARGETS.items():
            for mod_name, attr in targets:
                module = importlib.import_module(mod_name)
                original = getattr(module, attr)
                if name == "stress_models.make_model":
                    fn = _counting_factory(original, counters)
                else:
                    fn = original
                self._replace(module, attr, rec.wrap(name, fn, after.get(name)), original)
        for name, (mod_name, cls_name, attr) in CLASS_TARGETS.items():
            cls = getattr(importlib.import_module(mod_name), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(rec.wrap(name, raw.__func__, after.get(name)))
            else:
                new = rec.wrap(name, raw, after.get(name))
            self._replace(cls, attr, new, raw)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _replace(self, owner, attr, new, original) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, new)

    def _after_rk45(self, args, result) -> None:
        self.rec.counters["numerics.rk45_steps"] += result.n_steps
        self.rec.counters["numerics.rk45_rejected"] += result.n_rejected

    def _after_save(self, args, result) -> None:
        self.rec.counters["state.bytes_written"] += sum(os.path.getsize(p) for p in result)

    def _after_load(self, args, result) -> None:
        prefix = str(args[-1])
        self.rec.counters["state.bytes_read"] += sum(
            os.path.getsize(prefix + ext) for ext in (".csv", ".json")
        )


def _counting_factory(make_model, counters: Counter):
    """``make_model`` whose models count sigma and sigma' calls and points.

    ``dataclasses.replace`` keeps ``lambda_``, so nothing is re-estimated."""

    @functools.wraps(make_model)
    def counted(*args, **kwargs):
        model = make_model(*args, **kwargs)
        return dataclasses.replace(
            model,
            sigma=_counted(model.sigma, counters, "stress_models.sigma"),
            sigma_prime=_counted(model.sigma_prime, counters, "stress_models.sigma_prime"),
        )

    return counted


def _counted(fn, counters: Counter, prefix: str):
    calls, points = prefix + "_calls", prefix + "_points"

    def counted(p):
        counters[calls] += 1
        counters[points] += np.size(p)
        return fn(p)

    return counted
