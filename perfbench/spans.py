"""Outside-in span recorder for the traced run.

Every public function of the formstab layer modules is wrapped in every
formstab namespace that binds it (modules import each other's functions by
name, so `criterion.is_stabilizable` and `linalg.is_stabilizable` are two
bindings of one function).  A wrapper records a span only while an op is
open; outside ops it passes straight through.  Spans stay in memory as
tuples and are written out once, at the end of the run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import time
from collections import defaultdict

import numpy as np

LAYERS = (
    "model",
    "linalg",
    "criterion",
    "synthesis",
    "controllers",
    "pairwise",
    "simulation",
    "cli",
)
# Modules whose namespaces may bind layer functions.  `instances` only builds
# inputs and `errors` does no work, so neither is a layer, but their
# bindings are wrapped all the same.
NAMESPACES = ("formstab",) + tuple(f"formstab.{m}" for m in LAYERS + ("instances",))


class SpanRecorder:
    """Spans as (name, start_ns, end_ns, parent, op) tuples, plus counters.

    ``parent`` is the index of the enclosing span in ``spans`` or -1.
    Observers attached to a name see (args, kwargs, result) of each
    recorded call and return counts to add to ``counters[name]``.
    """

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(lambda: defaultdict(float))
        self.errors = defaultdict(int)
        self.keys = defaultdict(set)  # (name, op) -> distinct argument keys
        self.op = None
        self._stack = []

    def begin_op(self, op_id):
        self.op = op_id

    def end_op(self):
        self.op = None

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named `name` (a span opened by the benchmark)."""
        return self._call(name, fn, None, args, kwargs)

    def wrap(self, name, fn, observer=None, key=None):
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            if key is not None:
                self.keys[(name, self.op)].add(key(*args, **kwargs))
            return self._call(name, fn, observer, args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _call(self, name, fn, observer, args, kwargs):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.errors[name] += 1
            raise
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)
        if observer is not None:
            for counter, value in observer(args, kwargs, result).items():
                self.counters[name][counter] += value
        return result

    def write(self, path):
        """One JSON object per line: name, start_ns, end_ns, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def self_times(spans) -> list:
    """Self time (ns) of each span: its duration minus the part of its
    interval covered by the union of its children's intervals."""
    children = defaultdict(list)
    for index, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def public_functions():
    """{"<layer>.<function>": function} for every public function defined in
    a layer module, except the CLI's own command handlers (the benchmark
    opens those spans itself, around each `cli.main` call)."""
    found = {}
    for layer in LAYERS:
        if layer == "cli":
            continue
        mod = importlib.import_module(f"formstab.{layer}")
        for name, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and not name.startswith("_")
                and obj.__module__ == mod.__name__
            ):
                found[f"{layer}.{name}"] = obj
    return found


def install(recorder: SpanRecorder):
    """Replace every binding of a public layer function with its wrapper.

    Returns a callable that restores the original bindings."""
    originals = {fn: name for name, fn in public_functions().items()}
    wrappers = {}
    replaced = []
    for mod_name in NAMESPACES:
        mod = importlib.import_module(mod_name)
        for attr, obj in list(vars(mod).items()):
            name = originals.get(obj) if inspect.isfunction(obj) else None
            if name is None:
                continue
            if obj not in wrappers:
                wrappers[obj] = recorder.wrap(name, obj, OBSERVERS.get(name), KEYS.get(name))
            replaced.append((mod, attr, obj))
            setattr(mod, attr, wrappers[obj])

    def restore():
        for mod, attr, obj in replaced:
            setattr(mod, attr, obj)

    return restore


def summarize(recorder: SpanRecorder):
    """Per-name totals: {name: {"calls", "self_ns", "errors"}} over all spans."""
    totals = defaultdict(lambda: {"calls": 0, "self_ns": 0, "errors": 0})
    for (name, *_), own in zip(recorder.spans, self_times(recorder.spans)):
        totals[name]["calls"] += 1
        totals[name]["self_ns"] += own
    for name, count in recorder.errors.items():
        totals[name]["errors"] += count
    return totals


# ---------------------------------------------------------------------------
# per-layer metrics


def _observe_simulate(args, kwargs, trace):
    integrations = 1 + (trace.free_errors is not None)
    dim = sum(v.shape[1] for v in trace.states.values())
    return {"integrations": integrations,
            "state_steps": (len(trace.times) - 1) * dim * integrations}


def _observe_edge_steps(args, kwargs, result):
    trace = args[0]
    return {"edge_steps": len(trace.errors) * len(trace.times)}


def _observe_write(args, kwargs, result):
    return {"bytes": os.path.getsize(args[2])}


def _pbh_key(A, B, *_, **__):
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    return A.shape, B.shape, A.tobytes(), B.tobytes()


OBSERVERS = {
    "simulation.simulate": _observe_simulate,
    "simulation.fit_envelope": _observe_edge_steps,
    "simulation.error_dynamics_check": _observe_edge_steps,
    "simulation.write_trace_csv": _observe_write,
}
KEYS = {"linalg.is_stabilizable": _pbh_key}


def layer_metrics(recorder, passes, ops_traced, report_bytes, overhead):
    """Per-layer metrics, per pass of the workload's op list."""
    totals = summarize(recorder)  # a name never called reads as zeros
    counters = recorder.counters
    names = sorted(public_functions()) + [
        f"cli.{c}" for c in ("check", "synthesize", "pairwise", "simulate", "demo")]
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def ratio(a, b):
        return a / b if b else 0.0

    for name in names:
        put(f"{name}.calls", totals[name]["calls"] / passes, "count")
        put(f"{name}.self_ms", totals[name]["self_ns"] / passes / 1e6, "ms")
        put(f"{name}.errors", totals[name]["errors"] / passes, "count")
    for layer in LAYERS:
        put(f"{layer}.self_ms", sum(t["self_ns"] for n, t in totals.items()
                                    if n.startswith(layer + ".")) / passes / 1e6, "ms")

    pbh = "linalg.is_stabilizable"
    distinct = sum(len(v) for (n, _), v in recorder.keys.items() if n == pbh)
    put("linalg.pbh_useful_ratio", ratio(distinct, totals[pbh]["calls"]), "ratio")
    for name in ("criterion.check", "model.validate"):
        put(f"{name}.calls_per_op", ratio(totals[name]["calls"], ops_traced), "count")
    sim = "simulation.simulate"
    steps = counters[sim]["state_steps"]
    put(f"{sim}.integrations", ratio(counters[sim]["integrations"], totals[sim]["calls"]), "count")
    put(f"{sim}.state_steps", steps / passes, "count")
    put(f"{sim}.ns_per_state_step", ratio(totals[sim]["self_ns"], steps), "ns")
    for name in ("simulation.fit_envelope", "simulation.error_dynamics_check"):
        put(f"{name}.ns_per_edge_step",
            ratio(totals[name]["self_ns"], counters[name]["edge_steps"]), "ns")
    csv = "simulation.write_trace_csv"
    written = counters[csv]["bytes"]
    put(f"{csv}.bytes", written / passes, "B")
    put(f"{csv}.mb_per_s", ratio(written / 1e6, totals[csv]["self_ns"] / 1e9), "MB/s")
    put("cli.report_bytes", report_bytes / passes, "B")
    put("trace_overhead_ratio", overhead, "ratio")
    return out
