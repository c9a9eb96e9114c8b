"""Layer tracing installed from outside the program, for the traced run only.

`Tracer.install()` replaces each traced public name, in every `fairline`
module that holds it, with a wrapper that records a span (name, start, end,
parent span, operation id) in flat in-memory arrays, or, for a work
counter, adds to a tally. Spans are written out once, at the end, by
`save()`. Timed runs never import this module.

A span's name is `<layer>.<function>@<calling module>`, so the same function
reached from two callers (say `build_profile` from `audit` and from `model`)
can be told apart. Self time is a span's duration minus the durations of its
direct children; spans of one thread nest, so those children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, attribute, layer name); `MechanismId.apply` is patched on the class.
SPANS = (
    ("model", "build_profile", "model.build_profile"),
    ("objectives", "eval_outcome", "objectives.eval_outcome"),
    ("oracle", "optimize", "oracle.optimize"),
    ("oracle", "ratio", "oracle.ratio"),
    ("audit", "batch_sp_audit", "audit.batch_sp_audit"),
    ("audit", "batch_group_sp_audit", "audit.batch_group_sp_audit"),
    ("adversary", "hill_climb", "adversary.hill_climb"),
    ("instances", "load_instance", "instances.load_instance"),
    ("cli", "main", "cli.main"),
)
# Counted, not timed: their time stays in the caller's self time. Each
# tally adds one call and the length of the result.
COUNTERS = (
    ("oracle", "breakpoints", "oracle.breakpoints"),
    ("audit", "misreport_candidates", "audit.misreport_candidates"),
)
OPERATION = "bench.operation"

# (metric, unit, better); every value is normalized per operation unless the
# name says otherwise.
LAYER_METRICS = (
    ("model.build_profile.calls", "count", "lower"),
    ("model.build_profile.self_ms", "ms", "lower"),
    ("mechanisms.apply.calls", "count", "lower"),
    ("mechanisms.apply.self_ms", "ms", "lower"),
    ("objectives.eval_outcome.self_ms", "ms", "lower"),
    ("oracle.optimize.calls", "count", "lower"),
    ("oracle.optimize.self_ms", "ms", "lower"),
    ("oracle.breakpoints.count", "count", "lower"),
    ("audit.misreport_candidates.count", "count", "lower"),
    ("audit.batch_sp_audit.self_ms", "ms", "lower"),
    ("audit.batch_group_sp_audit.self_ms", "ms", "lower"),
    ("audit.rebuilds_per_candidate", "ratio", "lower"),
    ("adversary.hill_climb.self_ms", "ms", "lower"),
    ("adversary.ratio.calls", "count", "lower"),
    ("adversary.evaluated_share", "ratio", "higher"),
    ("instances.load_instance.self_ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
)


def _search_steps(fn):
    """Measure of a hill climb's attempted steps: one start and every iteration, per restart."""
    signature = inspect.signature(fn)

    def steps(args, kwargs, result) -> int:
        config = signature.bind(*args, **kwargs).arguments["config"]
        return config.restarts * (config.iterations + 1)

    return steps


class Tracer:
    """In-memory span recorder for one traced run in one thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: dict[str, list[int]] = {}
        self.current_op = -1
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        """`fn` wrapped to record one span per call."""
        nid = self._id(name)
        clock = time.perf_counter_ns
        stack = self._stack
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.current_op)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def counter(self, name: str, fn, measure=lambda args, kwargs, result: len(result)):
        """`fn` wrapped to add one call and `measure(args, kwargs, result)` to a tally."""
        tally = self.counters.setdefault(name, [0, 0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            tally[0] += 1
            tally[1] += measure(args, kwargs, result)
            return result

        return counted

    def _replace(self, module: str, attr: str, make) -> None:
        original = getattr(importlib.import_module(f"fairline.{module}"), attr)
        for mod_name, mod in sorted(sys.modules.items()):
            if mod_name.startswith("fairline.") and getattr(mod, attr, None) is original:
                caller = mod_name.rsplit(".", 1)[1]
                setattr(mod, attr, make(original, caller))
                self._undo.append((mod, attr, original))

    def install(self) -> None:
        """Wrap every traced name in the modules that call it."""
        from fairline.mechanisms import MechanismId

        self._undo.append((MechanismId, "apply", MechanismId.apply))
        MechanismId.apply = self.span("mechanisms.apply", MechanismId.apply)
        for module, attr, layer in SPANS:
            self._replace(module, attr, lambda fn, caller, layer=layer: self.span(f"{layer}@{caller}", fn))
        self._replace(
            "adversary",
            "hill_climb",
            lambda fn, caller: self.counter("adversary.search_steps", fn, _search_steps(fn)),
        )
        for module, attr, layer in COUNTERS:
            self._replace(module, attr, lambda fn, caller, layer=layer: self.counter(layer, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def save(self, path: Path) -> None:
        """Write every span, and the name table, to one compressed .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self._columns())

    def metrics(self, operations: int) -> dict[str, float]:
        """Per-layer metrics, normalized per operation, from the recorded spans."""
        cols = self._columns()
        dur = (cols["end_ns"] - cols["start_ns"]).astype(float)
        parent = cols["parent"]
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_ms = (dur - covered) / 1e6
        calls = np.bincount(cols["name"], minlength=len(self.names))
        self_by_name = np.bincount(cols["name"], weights=self_ms, minlength=len(self.names))

        def total(column, layer: str, caller: str | None = None) -> float:
            return float(
                sum(
                    column[i]
                    for i, name in enumerate(self.names)
                    if name.split("@")[0] == layer and (caller is None or name.endswith(f"@{caller}"))
                )
            )

        def share(num: float, den: float) -> float:
            return num / den if den else 0.0

        breakpoints = self.counters.get("oracle.breakpoints", [0, 0])
        candidates = self.counters.get("audit.misreport_candidates", [0, 0])
        per_op = 1.0 / operations
        return {
            "model.build_profile.calls": total(calls, "model.build_profile") * per_op,
            "model.build_profile.self_ms": total(self_by_name, "model.build_profile") * per_op,
            "mechanisms.apply.calls": total(calls, "mechanisms.apply") * per_op,
            "mechanisms.apply.self_ms": total(self_by_name, "mechanisms.apply") * per_op,
            "objectives.eval_outcome.self_ms": total(self_by_name, "objectives.eval_outcome") * per_op,
            "oracle.optimize.calls": total(calls, "oracle.optimize") * per_op,
            "oracle.optimize.self_ms": total(self_by_name, "oracle.optimize") * per_op,
            "oracle.breakpoints.count": share(breakpoints[1], breakpoints[0]),
            "audit.misreport_candidates.count": share(candidates[1], candidates[0]),
            "audit.batch_sp_audit.self_ms": total(self_by_name, "audit.batch_sp_audit") * per_op,
            "audit.batch_group_sp_audit.self_ms": total(self_by_name, "audit.batch_group_sp_audit") * per_op,
            "audit.rebuilds_per_candidate": share(total(calls, "model.build_profile", "audit"), candidates[1]),
            "adversary.hill_climb.self_ms": total(self_by_name, "adversary.hill_climb") * per_op,
            "adversary.ratio.calls": total(calls, "oracle.ratio", "adversary") * per_op,
            "adversary.evaluated_share": share(
                total(calls, "oracle.ratio", "adversary"), self.counters.get("adversary.search_steps", [0, 0])[1]
            ),
            "instances.load_instance.self_ms": total(self_by_name, "instances.load_instance") * per_op,
            "cli.self_ms": total(self_by_name, "cli.main") * per_op,
        }
