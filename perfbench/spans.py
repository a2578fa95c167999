"""In-process span tracing of garbagegame's layers, without editing the package.

Every traced function is wrapped at each place that imports it: the defining
module's own global and every other garbagegame module global bound to the
same object is swapped for a wrapper that records a span (name, start, end,
parent) and, for some functions, a small note about the call (an edge count,
a graph order, the returned trajectory).  ``uninstall`` puts the originals
back.  The xoshiro stream is counted, not spanned: one span per draw would
cost more than the draw.

A span's self time is its duration minus the durations of its child spans;
calls are sequential, so children never overlap.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

MODULES = ("rng", "graph", "dynamics", "analysis", "spectral", "cli")

# span name -> the (module, attribute) pairs that define the traced function
TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "graph.generate": (("graph", "generate_graph"), ("cli", "random_connected_graph")),
    "dynamics.run": (("dynamics", "run"),),
    "dynamics.step": (("dynamics", "step"),),
    "dynamics.effective_edges": (("dynamics", "effective_edges"),),
    "analysis.lyapunov_z": (("analysis", "lyapunov_z"),),
    "analysis.decrement_lower_bound": (("analysis", "decrement_lower_bound"),),
    "analysis.convergence_report": (("analysis", "convergence_report"),),
    "spectral.lambda2": (("spectral", "lambda2"),),
    "spectral.isoperimetric_number": (("spectral", "isoperimetric_number"),),
    "cli.trajectory_csv": (("cli", "trajectory_csv"),),
    "cli.validate_trajectory": (("cli", "validate_trajectory"),),
    "cli.run_verify": (("cli", "run_verify"),),
}

# span name -> what to remember about a call, from (args, result)
NOTES: dict[str, Callable[[tuple, Any], Any]] = {
    "graph.generate": lambda args, result: result.edge_count,
    "dynamics.run": lambda args, result: result,
    "dynamics.effective_edges": lambda args, result: result.edge_count / max(args[0].edge_count, 1),
    "spectral.isoperimetric_number": lambda args, result: (1 << args[0].n) - 1,
    "cli.trajectory_csv": lambda args, result: len(result),
    "cli.run_verify": lambda args, result: result["trials"],
}

# per-layer metric -> unit, in the order they are reported
UNITS = {
    "rng.draws": "count",
    "graph.generate_s": "s",
    "graph.edges": "count",
    "dynamics.step_calls": "count",
    "dynamics.step_us": "us",
    "dynamics.effective_edges_us": "us",
    "dynamics.run_s": "s",
    "dynamics.active_edge_frac": "fraction",
    "dynamics.repeat_share": "fraction",
    "dynamics.trajectory_bytes": "bytes",
    "analysis.lyapunov_z_calls": "count",
    "analysis.lyapunov_z_us": "us",
    "analysis.decrement_bound_us": "us",
    "analysis.convergence_report_s": "s",
    "spectral.isoperimetric_calls": "count",
    "spectral.isoperimetric_ms": "ms",
    "spectral.subsets": "count",
    "spectral.lambda2_us": "us",
    "cli.trajectory_csv_s": "s",
    "cli.csv_bytes": "bytes",
    "cli.validate_s": "s",
    "cli.verify_trial_ms": "ms",
    "trace.overhead_s": "s",
}


class Tracer:
    """Records spans around the wrapped functions while installed."""

    def __init__(self) -> None:
        self.modules = {name: importlib.import_module(f"garbagegame.{name}") for name in MODULES}
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.notes: dict[str, list] = {name: [] for name in NOTES}
        self.draws = 0
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, note = self.spans, self._stack, NOTES.get(name)
        notes = self.notes.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if note is not None:
                notes.append(note(args, result))
            return result

        return traced

    def install(self) -> None:
        for name, defs in TARGETS.items():
            for module_name, attr in defs:
                original = getattr(self.modules[module_name], attr)
                wrapper = self._wrap(name, original)
                for module in self.modules.values():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, key, value))
                            setattr(module, key, wrapper)
        rng_class = self.modules["rng"].Xoshiro256StarStar
        next_uint64 = rng_class.next_uint64

        def counted(rng):
            self.draws += 1
            return next_uint64(rng)

        self._restore.append((rng_class, "next_uint64", next_uint64))
        rng_class.next_uint64 = counted

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def self_times(self) -> dict[str, list[float]]:
        """Self time of every span, grouped by span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        grouped: dict[str, list[float]] = {name: [] for name in TARGETS}
        for (name, start, end, _), covered in zip(self.spans, child):
            grouped[name].append(end - start - covered)
        return grouped

    def totals(self) -> dict[str, float]:
        """Summed inclusive duration of the spans of each name."""
        total = dict.fromkeys(TARGETS, 0.0)
        for name, start, end, _ in self.spans:
            total[name] += end - start
        return total

    def dump(self, path: Path) -> None:
        """Write the spans as [name, start_us, end_us, parent] rows."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [name, round((start - t0) * 1e6, 1), round((end - t0) * 1e6, 1), parent]
            for name, start, end, parent in self.spans
        ]
        path.write_text(json.dumps({"spans": rows}, separators=(",", ":")) + "\n")


def repeat_steps(traj) -> tuple[int, int]:
    """(steps whose state equals, bit for bit, the state 1 or 2 steps before; steps)."""
    bits = traj.values_matrix().view(np.uint64)
    steps = len(bits) - 1
    repeated = np.zeros(max(steps, 0), dtype=bool)
    if steps >= 1:
        repeated |= (bits[1:] == bits[:-1]).all(axis=1)
    if steps >= 2:
        repeated[1:] |= (bits[2:] == bits[:-2]).all(axis=1)
    return int(repeated.sum()), steps


def retained_bytes(traj) -> int:
    """Bytes held by a trajectory object, not counting its graph and threshold."""
    seen = {id(traj.graph), id(traj.threshold)}
    pending = [traj]
    total = 0
    while pending:
        obj = pending.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)  # includes the data of an ndarray that owns it
        if isinstance(obj, np.ndarray):
            if obj.base is not None:
                pending.append(obj.base)
        elif isinstance(obj, dict):
            pending.extend(obj.keys())
            pending.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            pending.extend(obj)
        elif hasattr(obj, "__dict__"):
            pending.append(vars(obj))
    return total


def _mean(values: list[float], scale: float) -> float:
    return statistics.fmean(values) * scale if values else 0.0


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, float]:
    """Per-layer metric values (units in UNITS) from one traced replay."""
    own = tracer.self_times()
    total = tracer.totals()
    notes = tracer.notes
    trajectories = notes["dynamics.run"]
    repeats = [repeat_steps(traj) for traj in trajectories]
    steps = sum(s for _, s in repeats)
    trials = sum(notes["cli.run_verify"])
    values = {
        "rng.draws": tracer.draws,
        "graph.generate_s": total["graph.generate"],
        "graph.edges": sum(notes["graph.generate"]),
        "dynamics.step_calls": len(own["dynamics.step"]),
        "dynamics.step_us": _mean(own["dynamics.step"], 1e6),
        "dynamics.effective_edges_us": _mean(own["dynamics.effective_edges"], 1e6),
        "dynamics.run_s": total["dynamics.run"],
        "dynamics.active_edge_frac": _mean(notes["dynamics.effective_edges"], 1.0),
        "dynamics.repeat_share": sum(r for r, _ in repeats) / steps if steps else 0.0,
        "dynamics.trajectory_bytes": sum(retained_bytes(traj) for traj in trajectories),
        "analysis.lyapunov_z_calls": len(own["analysis.lyapunov_z"]),
        "analysis.lyapunov_z_us": _mean(own["analysis.lyapunov_z"], 1e6),
        "analysis.decrement_bound_us": _mean(own["analysis.decrement_lower_bound"], 1e6),
        "analysis.convergence_report_s": total["analysis.convergence_report"],
        "spectral.isoperimetric_calls": len(own["spectral.isoperimetric_number"]),
        "spectral.isoperimetric_ms": _mean(own["spectral.isoperimetric_number"], 1e3),
        "spectral.subsets": sum(notes["spectral.isoperimetric_number"]),
        "spectral.lambda2_us": _mean(own["spectral.lambda2"], 1e6),
        "cli.trajectory_csv_s": total["cli.trajectory_csv"],
        "cli.csv_bytes": sum(notes["cli.trajectory_csv"]),
        "cli.validate_s": total["cli.validate_trajectory"],
        "cli.verify_trial_ms": total["cli.run_verify"] * 1e3 / trials if trials else 0.0,
        "trace.overhead_s": overhead_s,
    }
    return values
