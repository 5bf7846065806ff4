"""Per-stage content-addressed result store.

The experiment grid's cell cache dedups *whole cells* — but most of the
work inside a cell is shared far more widely than the cell key admits:

* the **analyze** product (a loop's CME address trace) depends only on
  the loop content and the analyzer configuration — every machine,
  scheduler, threshold and scenario probing the same kernel re-walks the
  same iteration space;
* the **schedule** product depends on kernel × machine × scheduler ×
  threshold × analyzer, but *not* on the steady mode, simulate engine or
  iteration overrides that the cell cache keys on — the four groups of
  ``fig6-steady-ablation`` compute the same schedules four times;
* the **simulate/measure** product depends only on the schedule
  *content* (``Schedule.fingerprint()`` — scheduler name and threshold
  deliberately excluded, the same key family the warm-state store uses)
  × simulate engine × steady mode × iteration overrides — a fig6 column
  sweeps thresholds that frequently collapse to byte-identical
  schedules, and every duplicate re-simulates a result some other cell
  already measured.

:class:`StageStore` content-addresses all three products, following the
established :class:`~repro.cme.trace.TraceStore` /
:class:`~repro.simulator.warmstate.WarmStateStore` shape: an in-memory
map per stage, fronted by an optional disk layer under
``<cache_dir>/stages/`` where corrupt, truncated or foreign pickles are
unlinked and treated as misses, never as errors.  The whole-cell cache
stays the outermost layer — stage stores are only consulted for cells
the grid actually executes.  For process fan-out the in-memory layers
ship to the workers pre-primed (:func:`repro.harness.grid._init_worker`)
and each worker's newly computed entries travel back with its results
(:meth:`drain` / :meth:`merge`); values are content-addressed, so the
merge is deterministic regardless of completion order.

The same key families drive plan-based execution
(:mod:`repro.engine.plan`): the planner consumes them *up front* —
one task per unique analyze/schedule/simulate key across the whole
grid — so hits are planned away before anything runs instead of being
discovered cell by cell.

This module is also the canonical home of the grid's content
fingerprints (:func:`kernel_fingerprint`, :func:`machine_key`), which
the stages need without importing the harness layer.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import threading
import uuid
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..cme.trace import AddressTrace
from ..ir.builder import Kernel
from ..machine.config import MachineConfig
from ..scheduler.result import Schedule
from ..simulator.stats import SimulationResult

__all__ = [
    "STAGE_STORE_VERSION",
    "STAGE_STORE_STAGES",
    "StageStore",
    "kernel_fingerprint",
    "machine_key",
]

#: Bump when a key schema or value layout changes: older disk entries
#: are then treated as misses and rewritten.
STAGE_STORE_VERSION = 1

#: The stages with a content-addressed result store, in pipeline order.
STAGE_STORE_STAGES = ("analyze", "schedule", "simulate")

#: What a healthy disk entry's value must be, per stage — anything else
#: is a foreign object and treated as rot.
_VALUE_TYPES = {
    "analyze": AddressTrace,
    "schedule": Schedule,
    "simulate": SimulationResult,
}


# ----------------------------------------------------------------------
# Content fingerprints (shared with the grid's cell cache)
# ----------------------------------------------------------------------
def kernel_fingerprint(kernel: Kernel) -> str:
    """Content hash of a kernel's loop structure and dependence graph.

    Everything the schedulers and the CME analyzers read is covered: loop
    dims, operations (name/class/operands/reference), the memory-reference
    table and the DDG edge multiset.  Two kernels with equal fingerprints
    produce identical cells on identical machines.

    The hash is memoized on the kernel's dependence graph
    (``ddg.fingerprint_memo``) together with the loop object it was
    computed for, so a repeat query is a lookup.  ``ddg.add_edge`` and
    pickling drop the memo, and assigning a different loop to
    ``kernel.loop`` misses it; loops themselves are de-facto immutable
    (the assumption :func:`~repro.cme.trace.loop_fingerprint` already
    memoizes on).
    """
    ddg = kernel.ddg
    memo = ddg.fingerprint_memo
    if memo is not None and memo[0] is kernel.loop:
        return memo[1]
    edges = sorted(
        (e.src, e.dst, e.kind, e.distance) for e in ddg.edges()
    )
    digest = hashlib.sha256()
    digest.update(repr(kernel.loop).encode())
    digest.update(repr(edges).encode())
    fingerprint = digest.hexdigest()[:16]
    ddg.fingerprint_memo = (kernel.loop, fingerprint)
    return fingerprint


#: Attribute memoizing :func:`machine_key` on the (frozen) machine, in
#: its ``__dict__`` as ``functools.cached_property`` would.
_MACHINE_KEY_ATTR = "_stage_machine_key"


def machine_key(machine: MachineConfig) -> str:
    """Canonical JSON encoding of a machine (hashable cache-key part).

    Memoized on the machine object: configs are frozen, and
    ``with_buses`` / ``dataclasses.replace`` build new objects.
    """
    key = machine.__dict__.get(_MACHINE_KEY_ATTR)
    if key is None:
        key = json.dumps(
            machine.to_dict(), sort_keys=True, separators=(",", ":")
        )
        machine.__dict__[_MACHINE_KEY_ATTR] = key
    return key


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class StageStore:
    """In-memory + on-disk content-addressed maps of stage results.

    One instance holds the three per-stage layers.  All keys are pure
    content addresses (fingerprints over what the stage *reads*), so a
    store is safe to pickle into worker processes, share between grids
    and scenarios, and persist across runs.
    """

    def __init__(self, cache_dir: Optional[os.PathLike] = None):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._memory: Dict[str, Dict[str, object]] = {
            stage: {} for stage in STAGE_STORE_STAGES
        }
        #: Entries added locally since the last :meth:`drain` — what a
        #: worker ships back to the parent with its results.
        self._fresh: Dict[str, Dict[str, object]] = {
            stage: {} for stage in STAGE_STORE_STAGES
        }
        self._counters: Dict[str, Dict[str, int]] = {
            stage: {"hits": 0, "misses": 0, "stores": 0}
            for stage in STAGE_STORE_STAGES
        }
        # One store may serve several threads at once (the experiment
        # service runs jobs off the event loop; the grid merges worker
        # deltas while progress callbacks fire), so every mutation of
        # the entry maps and counters happens under this lock.
        self._lock = threading.RLock()

    def __getstate__(self):
        # A pickled copy (shipped to a worker) starts with clean local
        # telemetry and nothing pending to drain: the worker's hits and
        # fresh entries travel back per task and are added to the
        # parent's own counters — shipping the parent's history would
        # double-count it.
        state = self.__dict__.copy()
        del state["_lock"]  # locks don't pickle; workers get their own
        state["_fresh"] = {stage: {} for stage in STAGE_STORE_STAGES}
        state["_counters"] = {
            stage: {"hits": 0, "misses": 0, "stores": 0}
            for stage in STAGE_STORE_STAGES
        }
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    @staticmethod
    def analyze_key(loop_fp: str, locality_fp: str) -> str:
        """Address of one loop's analyze product under one analyzer
        configuration (the locality fingerprint encodes the sampling
        window, so equal keys imply equal traces)."""
        return "|".join(
            [f"s{STAGE_STORE_VERSION}", "analyze", loop_fp, locality_fp]
        )

    @staticmethod
    def schedule_key(
        kernel_name: str,
        kernel_fp: str,
        machine: str,
        scheduler: str,
        threshold: float,
        locality_fp: str,
    ) -> str:
        """Address of one scheduling run's product.

        Deliberately *excludes* the steady mode, simulate engine and
        iteration overrides the cell cache keys on: the schedule does
        not depend on how it will be simulated, so cells differing only
        in simulation strategy share one entry.
        """
        return "|".join(
            [
                f"s{STAGE_STORE_VERSION}",
                "schedule",
                kernel_name,
                kernel_fp,
                machine,
                scheduler,
                repr(threshold),
                locality_fp,
            ]
        )

    @staticmethod
    def simulate_key(
        schedule_fp: str,
        sim: str,
        steady: str,
        n_iterations: Optional[int],
        n_times: Optional[int],
    ) -> str:
        """Address of one simulation's product.

        ``schedule_fp`` is :meth:`Schedule.fingerprint` — the same key
        family the warm-state store uses: scheduler name and threshold
        are excluded, so cells whose schedules land byte-identical
        (neighbouring thresholds, agreeing schedulers) share the result.
        """
        return "|".join(
            [
                f"s{STAGE_STORE_VERSION}",
                "simulate",
                schedule_fp,
                sim,
                steady,
                repr(n_iterations),
                repr(n_times),
            ]
        )

    # ------------------------------------------------------------------
    # Core protocol
    # ------------------------------------------------------------------
    def lookup(self, stage: str, key: str) -> Optional[object]:
        """Return the stored value for ``key`` or ``None`` (a miss)."""
        with self._lock:
            value = self._memory[stage].get(key)
            if value is not None:
                self._counters[stage]["hits"] += 1
                return value
            value = self._disk_load(stage, key)
            if value is not None:
                self._memory[stage][key] = value
                self._counters[stage]["hits"] += 1
                return value
            self._counters[stage]["misses"] += 1
            return None

    def store(self, stage: str, key: str, value: object) -> None:
        """Publish a freshly computed stage result."""
        with self._lock:
            self._memory[stage][key] = value
            self._fresh[stage][key] = value
            self._counters[stage]["stores"] += 1
        self._disk_store(stage, key, value)

    def publish(self, stage: str, key: str, value: object) -> bool:
        """Store ``value`` only if the key is absent (idempotent put).

        Used for results that were computed outside the store's view
        (e.g. traces primed directly on the analyzer) — counted as a
        store the first time, a no-op afterwards.
        """
        with self._lock:
            if key in self._memory[stage]:
                return False
            self.store(stage, key, value)
            return True

    def __len__(self) -> int:
        with self._lock:
            return sum(len(entries) for entries in self._memory.values())

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def counts(self, stage: str) -> Dict[str, int]:
        """Hit/miss/store counters of one stage (a copy)."""
        with self._lock:
            return dict(self._counters[stage])

    def telemetry(self) -> Dict[str, Dict[str, int]]:
        """Per-stage counters plus entry counts, for reports/benchmarks."""
        with self._lock:
            return {
                stage: {
                    **self._counters[stage],
                    "entries": len(self._memory[stage]),
                }
                for stage in STAGE_STORE_STAGES
            }

    # ------------------------------------------------------------------
    # Process fan-out
    # ------------------------------------------------------------------
    def drain(self) -> Dict[str, Dict[str, object]]:
        """Ship-and-reset the local delta: fresh entries plus counters.

        Called by pool workers after each cell; the returned mapping is
        merged into the parent store with :meth:`merge`.
        """
        with self._lock:
            delta = {
                "entries": {
                    stage: self._fresh[stage]
                    for stage in STAGE_STORE_STAGES
                },
                "counters": {
                    stage: self._counters[stage]
                    for stage in STAGE_STORE_STAGES
                },
            }
            self._fresh = {stage: {} for stage in STAGE_STORE_STAGES}
            self._counters = {
                stage: {"hits": 0, "misses": 0, "stores": 0}
                for stage in STAGE_STORE_STAGES
            }
            return delta

    def merge(self, delta: Dict[str, Dict[str, object]]) -> None:
        """Fold one worker's :meth:`drain` into this store.

        Values are content-addressed — two workers computing the same
        key produce equal values — so first-wins insertion keeps the
        merge deterministic regardless of completion order.
        """
        with self._lock:
            for stage, entries in delta.get("entries", {}).items():
                memory = self._memory[stage]
                for key, value in entries.items():
                    memory.setdefault(key, value)
            for stage, counters in delta.get("counters", {}).items():
                mine = self._counters[stage]
                for name, value in counters.items():
                    mine[name] += value

    # ------------------------------------------------------------------
    # Disk layer
    # ------------------------------------------------------------------
    def _disk_path(self, stage: str, key: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:32]
        return self.cache_dir / stage / digest[:2] / f"{digest}.pkl"

    def _disk_load(self, stage: str, key: str) -> Optional[object]:
        path = self._disk_path(stage, key)
        if path is None or not path.exists():
            return None
        try:
            with path.open("rb") as handle:
                record = pickle.load(handle)
            if (
                not isinstance(record, dict)
                or record.get("version") != STAGE_STORE_VERSION
                or record.get("stage") != stage
                or record.get("key") != key
                or not isinstance(record.get("value"), _VALUE_TYPES[stage])
            ):
                raise ValueError("stale or foreign stage-store entry")
            return record["value"]
        except Exception:
            # Corrupt / truncated / foreign / colliding entry: a cache
            # must never turn disk rot into a failed sweep.  Drop the
            # file and recompute.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def _disk_store(self, stage: str, key: str, value: object) -> None:
        path = self._disk_path(stage, key)
        if path is None:
            return
        record = {
            "version": STAGE_STORE_VERSION,
            "stage": stage,
            "key": key,
            "value": value,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}")
        try:
            with tmp.open("wb") as handle:
                pickle.dump(record, handle, protocol=pickle.HIGHEST_PROTOCOL)
            tmp.replace(path)  # atomic on POSIX: readers never see partials
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass

    def clear(self) -> None:
        """Drop every entry: all in-memory layers and the disk layer."""
        with self._lock:
            for stage in STAGE_STORE_STAGES:
                self._memory[stage].clear()
                self._fresh[stage].clear()
        self.clear_disk()

    def clear_disk(self) -> None:
        """Remove every on-disk entry (the in-memory maps are untouched)."""
        if self.cache_dir is None or not self.cache_dir.exists():
            return
        for path in self.cache_dir.glob("*/*/*.pkl"):
            try:
                path.unlink()
            except OSError:
                pass
