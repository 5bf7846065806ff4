"""Outside-in layer tracing for the benchmark.

The program under test carries no instrumentation of its own.  This
module wraps the public entry points of each layer (harness, engine,
cme, scheduler, simulator, memory, steady, service, workloads) from the
outside, records one span per call, and turns the spans into the
per-layer table the benchmark reports.

Two kinds of wrapper keep the overhead small:

* a **span** is kept as its own record (name, start, end, parent span,
  run id, thread, process, self time and counters);
* a **leaf** is a very frequent call (``access_batch``,
  ``state_signature``, CME probes, store lookups).  It is folded into
  its nearest enclosing span as a call count, a self time and counters,
  so tracing does not allocate a record per call.

Stacks are thread-local, so the experiment service's worker thread and
its event-loop thread keep separate span trees.  A frame's self time is
its duration minus the time its nested frames (spans and leaves) cover,
so within any tree the self times add up to the root's duration.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import sys
import threading
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

SPAN = "span"
LEAF = "leaf"

#: Counter hook: ``hook(counts, args, result)`` adds to ``counts`` in
#: place; ``args`` are the wrapped function's positional arguments.
Hook = Callable[[Dict[str, float], tuple, object], None]


class _Leaf:
    __slots__ = ("child",)

    def __init__(self) -> None:
        self.child = 0.0


class _Span:
    __slots__ = ("name", "id", "parent", "run", "phase", "start", "child",
                 "leaves", "counts")

    def __init__(self, name, span_id, parent, run, phase):
        self.name = name
        self.id = span_id
        self.parent = parent
        self.run = run
        self.phase = phase
        self.start = 0.0
        self.child = 0.0
        self.leaves: Dict[str, Dict[str, float]] = {}
        self.counts: Dict[str, float] = {}


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: List[object] = []
        self.span: Optional[_Span] = None


class Tracer:
    """Collects spans in memory; :func:`write_jsonl` writes them out.

    ``phase`` labels every span started while it is set (``"setup"``,
    ``"pass-3"``...), so one process can trace several phases and the
    table can be computed per phase.  A span's ``run`` is the id of the
    root span of its tree: one scenario run, grid run or job.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self.phase = "setup"
        self._state = _ThreadState()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._pid = os.getpid()
        # Leaves that ran outside any span, per phase.
        self._loose: Dict[str, _Span] = {}

    def _loose_span(self) -> _Span:
        with self._lock:
            loose = self._loose.get(self.phase)
            if loose is None:
                loose = self._loose[self.phase] = _Span(
                    "loose", 0, None, 0, self.phase
                )
            return loose

    def wrap(self, fn: Callable, name: str, kind: str,
             hook: Optional[Hook] = None) -> Callable:
        """Return ``fn`` wrapped in a span or leaf frame called ``name``."""
        if kind == SPAN:
            return self._wrap_span(fn, name, hook)
        return self._wrap_leaf(fn, name, hook)

    def _wrap_span(self, fn, name, hook):
        tracer = self
        state = self._state
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = state.stack
            enclosing = state.span
            span_id = next(ids)
            frame = _Span(
                name, span_id,
                enclosing.id if enclosing is not None else None,
                enclosing.run if enclosing is not None else span_id,
                tracer.phase,
            )
            stack.append(frame)
            state.span = frame
            frame.start = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                state.span = enclosing
                if stack:
                    stack[-1].child += end - start
                tracer._finish(frame, end)
            if hook is not None:
                hook(frame.counts, args, result)
            return result

        return traced

    def _wrap_leaf(self, fn, name, hook):
        tracer = self
        state = self._state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = state.stack
            frame = _Leaf()
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1].child += duration
                target = state.span
                if target is None:
                    target = tracer._loose_span()
                agg = target.leaves.get(name)
                if agg is None:
                    agg = target.leaves[name] = {"calls": 0, "self_s": 0.0}
                agg["calls"] += 1
                agg["self_s"] += duration - frame.child
            if hook is not None:
                hook(agg, args, result)
            return result

        return traced

    def _finish(self, frame: _Span, end: float) -> None:
        record = {
            "id": frame.id,
            "parent": frame.parent,
            "run": frame.run,
            "name": frame.name,
            "start": frame.start,
            "end": end,
            "self_s": end - frame.start - frame.child,
            "phase": frame.phase,
            "thread": threading.get_ident(),
            "pid": self._pid,
            # Shared with the frame: span hooks fill them in just after.
            "leaves": frame.leaves,
            "counts": frame.counts,
        }
        with self._lock:
            self.spans.append(record)

    def records(self) -> List[Dict[str, object]]:
        """Every finished span, plus one record per phase for leaves
        that ran outside any span."""
        with self._lock:
            out = list(self.spans)
            for phase, loose in self._loose.items():
                out.append({
                    "id": 0, "parent": None, "run": 0, "name": "loose",
                    "start": 0.0, "end": 0.0, "self_s": 0.0,
                    "phase": phase, "thread": 0, "pid": self._pid,
                    "leaves": loose.leaves, "counts": {},
                })
        return out


def write_jsonl(records: Iterable[Dict[str, object]], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def read_jsonl(path: str) -> List[Dict[str, object]]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# ----------------------------------------------------------------------
# The entry points each layer is observed through
# ----------------------------------------------------------------------
def _add(counts: Dict[str, float], key: str, value: float) -> None:
    counts[key] = counts.get(key, 0) + value


def _accesses(counts, args, result):
    _add(counts, "accesses", result)


def _replay(counts, args, result):
    _add(counts, "replays", 1 if result is not None else 0)


def _lookup(counts, args, result):
    _add(counts, "hits" if result is not None else "misses", 1)


def _schedule(counts, args, result):
    counts["ii"] = result.ii
    counts["mii"] = result.mii


def _sim_run(counts, args, result):
    stats = getattr(args[0], "vector_stats", None) or {}
    counts["fallback"] = 1 if stats.get("fallback") else 0


def _batch(counts, args, result):
    counts["tasks"] = counts["width"] = len(args[0].tasks)


def _one_task(counts, args, result):
    counts["tasks"] = 1


#: (module, class or None, attribute, span name, kind, counter hook).
#: Module-level functions are patched in every loaded ``repro`` module
#: that imported them by name, so re-exports are covered too.
ENTRY_POINTS: Tuple[tuple, ...] = (
    ("repro.harness.scenarios", None, "run_scenario",
     "harness.run_scenario", SPAN, None),
    ("repro.harness.grid", "ExperimentGrid", "run",
     "harness.grid_run", SPAN, None),
    ("repro.engine.plan", "ExecutionPlanner", "plan", "engine.plan", SPAN,
     None),
    ("repro.engine.plan", "ExecutionPlanner", "plan_simulate", "engine.plan",
     SPAN, None),
    ("repro.engine.plan", "ExecutionPlanner", "assemble", "engine.assemble",
     LEAF, None),
    ("repro.engine.plan", None, "run_analyze_task", "engine.task", SPAN,
     _one_task),
    ("repro.engine.plan", None, "run_schedule_task", "engine.task", SPAN,
     _one_task),
    ("repro.engine.plan", None, "run_simulate_batch", "engine.task", SPAN,
     _batch),
    ("repro.engine.stagestore", "StageStore", "lookup",
     "engine.store_lookup", LEAF, _lookup),
    ("repro.engine.stagestore", "StageStore", "store",
     "engine.store_write", LEAF, None),
    ("repro.engine.stagestore", "StageStore", "publish",
     "engine.store_write", LEAF, None),
    ("repro.cme.incremental", "IncrementalCME", "probe_clusters",
     "cme.probe", LEAF, None),
    ("repro.cme.incremental", "IncrementalCME", "estimate", "cme.probe",
     LEAF, None),
    ("repro.cme.incremental", "IncrementalCME", "miss_ratio", "cme.probe",
     LEAF, None),
    ("repro.cme.incremental", "IncrementalCME", "miss_count", "cme.probe",
     LEAF, None),
    ("repro.cme.trace", "TraceStore", "address_trace", "cme.trace_build",
     LEAF, None),
    ("repro.cme.trace", "TraceStore", "geometry_trace", "cme.trace_build",
     LEAF, None),
    ("repro.scheduler.base", "CommunicationAwareScheduler", "schedule",
     "scheduler.schedule", SPAN, _schedule),
    ("repro.simulator.vectorized", "VectorizedSimulator", "run_batch",
     "simulator.run_batch", SPAN, None),
    ("repro.simulator.executor", "LockstepSimulator", "run",
     "simulator.run", SPAN, _sim_run),
    ("repro.memory.hierarchy", "DistributedMemorySystem", "access_batch",
     "memory.access_batch", LEAF, _accesses),
    ("repro.memory.hierarchy", "DistributedMemorySystem", "access",
     "memory.access", LEAF, None),
    ("repro.memory.hierarchy", "DistributedMemorySystem", "state_signature",
     "steady.signature", LEAF, None),
    ("repro.steady.entry", "EntrySteadyDetector", "boundary",
     "steady.boundary", LEAF, _replay),
    ("repro.steady.iteration", "_EntryRun", "boundary", "steady.boundary",
     LEAF, _replay),
    ("repro.harness.scenarios", "ScenarioSpec", "build_kernels",
     "workloads.build", SPAN, None),
    ("repro.workloads.suite", None, "spec_suite", "workloads.build", SPAN,
     None),
    ("repro.workloads.generator", None, "random_kernel", "workloads.build",
     SPAN, None),
)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every entry point; returns a function that undoes it.

    Install and uninstall only while no traced call is in flight.
    """
    import importlib

    undo: List[Callable[[], None]] = []
    for module_name, owner, attr, name, kind, hook in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if owner is not None:
            cls = getattr(module, owner)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(raw.__func__, name, kind,
                                                  hook))
            else:
                wrapped = tracer.wrap(raw, name, kind, hook)
            setattr(cls, attr, wrapped)
            undo.append(functools.partial(setattr, cls, attr, raw))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(original, name, kind, hook)
        for holder in list(sys.modules.values()):
            holder_name = getattr(holder, "__name__", "") or ""
            if not holder_name.startswith("repro"):
                continue
            if getattr(holder, attr, None) is original:
                setattr(holder, attr, wrapped)
                undo.append(functools.partial(setattr, holder, attr,
                                              original))

    def uninstall() -> None:
        for step in reversed(undo):
            step()

    return uninstall


# ----------------------------------------------------------------------
# The per-layer table
# ----------------------------------------------------------------------
#: Every per-layer metric, with its unit, in report order.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("memory.access_batch_s", "s"),
    ("memory.access_batch_calls", "count"),
    ("memory.accesses", "count"),
    ("memory.access_s", "s"),
    ("steady.signature_s", "s"),
    ("steady.signature_probes", "count"),
    ("steady.boundary_s", "s"),
    ("steady.boundary_calls", "count"),
    ("steady.replays", "count"),
    ("steady.replay_ratio", "ratio"),
    ("simulator.run_self_s", "s"),
    ("simulator.runs", "count"),
    ("simulator.fallback_runs", "count"),
    ("cme.probe_s", "s"),
    ("cme.probes", "count"),
    ("cme.trace_build_s", "s"),
    ("scheduler.schedule_self_s", "s"),
    ("scheduler.schedules", "count"),
    ("scheduler.ii_over_mii", "ratio"),
    ("engine.plan_s", "s"),
    ("engine.assemble_s", "s"),
    ("engine.task_self_s", "s"),
    ("engine.tasks_executed", "count"),
    ("engine.batch_width_mean", "count"),
    ("engine.store_lookup_s", "s"),
    ("engine.store_write_s", "s"),
    ("engine.store_hits", "count"),
    ("engine.store_misses", "count"),
    ("engine.store_hit_ratio", "ratio"),
    ("service.queue_s", "s"),
    ("service.run_s", "s"),
    ("service.http_s", "s"),
    ("harness.grid_run_s", "s"),
    ("harness.unattributed_s", "s"),
    ("workloads.build_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

#: The counters that must repeat exactly between two runs of one seed.
WORK_COUNTERS = (
    "cme.probes",
    "memory.accesses",
    "steady.signature_probes",
    "engine.tasks_executed",
    "engine.store_hits",
    "engine.store_misses",
    "scheduler.schedules",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_table(records: Iterable[Dict[str, object]]) -> Dict[str, float]:
    """Per-layer times and counters of the given span records.

    Every ``*_s`` value is a self time (a layer's duration minus the
    time its nested frames cover), except ``harness.grid_run_s``, the
    total duration of the ``ExperimentGrid.run`` calls.  Within one
    ``ExperimentGrid.run`` tree the self times of every frame plus
    ``harness.unattributed_s`` (the grid's own self time) add up to
    ``harness.grid_run_s``.  ``service.*`` and ``workloads.build_s``
    and ``trace.overhead_frac`` are filled in by the caller.
    """
    spans: Dict[str, Dict[str, float]] = {}
    leaves: Dict[str, Dict[str, float]] = {}
    ii_ratios: List[float] = []
    widths: List[float] = []
    for record in records:
        name = str(record["name"])
        if name != "loose":
            agg = spans.setdefault(name, {"calls": 0, "self_s": 0.0,
                                          "total_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += float(record["self_s"])
            agg["total_s"] += float(record["end"]) - float(record["start"])
            counts = record.get("counts") or {}
            for key, value in counts.items():
                agg[key] = agg.get(key, 0) + value
            if name == "scheduler.schedule" and counts.get("mii"):
                ii_ratios.append(counts["ii"] / counts["mii"])
            if "width" in counts:
                widths.append(counts["width"])
        for leaf_name, leaf in (record.get("leaves") or {}).items():
            agg = leaves.setdefault(leaf_name, {})
            for key, value in leaf.items():
                agg[key] = agg.get(key, 0) + value

    def span(name: str, key: str = "self_s") -> float:
        return spans.get(name, {}).get(key, 0)

    def leaf(name: str, key: str = "self_s") -> float:
        return leaves.get(name, {}).get(key, 0)

    hits = leaf("engine.store_lookup", "hits")
    misses = leaf("engine.store_lookup", "misses")
    return {
        "memory.access_batch_s": leaf("memory.access_batch"),
        "memory.access_batch_calls": leaf("memory.access_batch", "calls"),
        "memory.accesses": leaf("memory.access_batch", "accesses")
        + leaf("memory.access", "calls"),
        "memory.access_s": leaf("memory.access"),
        "steady.signature_s": leaf("steady.signature"),
        "steady.signature_probes": leaf("steady.signature", "calls"),
        "steady.boundary_s": leaf("steady.boundary"),
        "steady.boundary_calls": leaf("steady.boundary", "calls"),
        "steady.replays": leaf("steady.boundary", "replays"),
        "steady.replay_ratio": _ratio(leaf("steady.boundary", "replays"),
                                      leaf("steady.boundary", "calls")),
        "simulator.run_self_s": span("simulator.run")
        + span("simulator.run_batch"),
        "simulator.runs": span("simulator.run", "calls"),
        "simulator.fallback_runs": span("simulator.run", "fallback"),
        "cme.probe_s": leaf("cme.probe"),
        "cme.probes": leaf("cme.probe", "calls"),
        "cme.trace_build_s": leaf("cme.trace_build"),
        "scheduler.schedule_self_s": span("scheduler.schedule"),
        "scheduler.schedules": span("scheduler.schedule", "calls"),
        "scheduler.ii_over_mii": statistics.fmean(ii_ratios)
        if ii_ratios else 0.0,
        "engine.plan_s": span("engine.plan"),
        "engine.assemble_s": leaf("engine.assemble"),
        "engine.task_self_s": span("engine.task"),
        "engine.tasks_executed": span("engine.task", "tasks"),
        "engine.batch_width_mean": statistics.fmean(widths)
        if widths else 0.0,
        "engine.store_lookup_s": leaf("engine.store_lookup"),
        "engine.store_write_s": leaf("engine.store_write"),
        "engine.store_hits": hits,
        "engine.store_misses": misses,
        "engine.store_hit_ratio": _ratio(hits, hits + misses),
        "harness.grid_run_s": span("harness.grid_run", "total_s"),
        "harness.unattributed_s": span("harness.grid_run"),
    }


def grid_run_closure(records: List[Dict[str, object]]) -> List[
        Tuple[float, float]]:
    """For every ``ExperimentGrid.run`` tree: (root duration, sum of the
    self times of every frame in the tree).  The two must agree."""
    by_parent: Dict[object, List[Dict[str, object]]] = {}
    for record in records:
        by_parent.setdefault((record["pid"], record["parent"]),
                             []).append(record)
    out = []
    for record in records:
        if record["name"] != "harness.grid_run":
            continue
        total = 0.0
        todo = [record]
        while todo:
            node = todo.pop()
            total += float(node["self_s"])
            for leaf in (node.get("leaves") or {}).values():
                total += float(leaf["self_s"])
            todo.extend(by_parent.get((node["pid"], node["id"]), []))
        out.append((float(record["end"]) - float(record["start"]), total))
    return out
