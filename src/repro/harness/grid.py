"""Parallel experiment-grid engine with cell caching.

Every figure of the paper's evaluation is a grid of independent
``kernel × machine × scheduler × threshold`` cells.  This module turns
that observation into infrastructure:

* :class:`CellSpec` — a hashable, JSON-serializable description of one
  cell.  The machine is carried as its canonical
  :meth:`~repro.machine.config.MachineConfig.to_dict` JSON encoding and
  the kernel as ``name`` plus a content fingerprint, so a spec fully
  identifies the computation without holding live objects.
* :class:`ExperimentGrid` — an engine that executes a sequence of specs,
  optionally fanning them out over a :class:`ProcessPoolExecutor`
  (``n_jobs``), with results returned **in submission order** regardless
  of completion order.  Identical specs are deduplicated within a call
  and across calls through a content-keyed cache (in-memory always; on
  disk when ``cache_dir`` is set or ``REPRO_GRID_CACHE`` is exported).

The cache key covers the kernel fingerprint, machine encoding, scheduler
name, threshold, iteration overrides and the locality analyzer's
fingerprint, so two sweeps sharing cells — e.g. ``figure5`` and
``figure6`` both normalizing against the Unified reference — never
recompute them.  Cache entries are invalidated implicitly: any change to
a kernel's structure, a machine parameter, the analyzer configuration or
:data:`CACHE_VERSION` changes the key.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import pickle
import threading
import time
import uuid
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from functools import lru_cache
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..cme.locality import (
    LocalityAnalyzer,
    default_analyzer,
    locality_fingerprint,
)
from ..engine.pipeline import CellOutcome, CellPipeline
from ..engine.plan import (
    ExecutionPlanner,
    PlanTask,
    SimulateBatch,
    run_analyze_task,
    run_schedule_task,
    run_simulate_batch,
)
from ..engine.result import RunResult
from ..engine.stages import CellRequest
from ..engine.stagestore import StageStore, kernel_fingerprint, machine_key
from ..ir.builder import Kernel
from ..machine.config import MachineConfig
from ..simulator import DEFAULT_SIM_ENGINE, WarmStateStore, validate_sim_engine
from ..steady import validate_steady_mode
from ..workloads.suite import SPEC_KERNELS, kernel_by_name

__all__ = [
    "CACHE_VERSION",
    "CellSpec",
    "GridStats",
    "ExperimentGrid",
    "kernel_fingerprint",
    "locality_fingerprint",
    "machine_key",
    "machine_from_key",
]

#: Bump to invalidate every existing cache entry (schema or semantics
#: changes in the schedule/simulate pipeline).
CACHE_VERSION = 4

#: Environment variable providing a default on-disk cache directory.
CACHE_ENV_VAR = "REPRO_GRID_CACHE"

ProgressCallback = Callable[[int, int, "CellSpec", str], None]


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
# ``kernel_fingerprint`` and ``machine_key`` now live in
# ``repro.engine.stagestore`` (the stages consult them too) and are
# re-exported here for compatibility — this module remains their
# harness-facing home.


def machine_from_key(key: str) -> MachineConfig:
    """Rebuild the machine a :func:`machine_key` string describes."""
    return MachineConfig.from_dict(json.loads(key))


@lru_cache(maxsize=256)
def _machine_name(key: str) -> str:
    """The ``name`` field of a :func:`machine_key` string.

    Memoized per key: a process sees a handful of machines, and every
    cell of every job asks for its machine's name.
    """
    return json.loads(key)["name"]


# ----------------------------------------------------------------------
# Cell specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellSpec:
    """One ``kernel × machine × scheduler × threshold`` experiment cell.

    Instances are hashable (usable as dict keys / dedup targets) and
    JSON-serializable (:meth:`to_json` / :meth:`from_json`).  Build them
    with :meth:`of`, which captures the kernel content fingerprint and
    the machine encoding.
    """

    kernel: str
    machine: str  # canonical machine_key() JSON
    scheduler: str
    threshold: float
    kernel_fp: str
    n_iterations: Optional[int] = None
    n_times: Optional[int] = None
    #: Steady-state detector selection (results are bit-identical across
    #: modes, but the cache key distinguishes them so mode comparisons —
    #: e.g. the fig6-steady-ablation scenario — never serve one mode's
    #: timing run from another mode's cache entry).
    steady: str = "auto"
    #: Simulate engine (results are bit-identical across engines; keyed
    #: for the same reason as ``steady`` — engine A/B timing runs must
    #: never serve each other's cache entries).
    sim: str = DEFAULT_SIM_ENGINE

    def __post_init__(self) -> None:
        validate_steady_mode(self.steady)
        validate_sim_engine(self.sim)

    @classmethod
    def of(
        cls,
        kernel: Union[Kernel, str],
        machine: MachineConfig,
        scheduler: str,
        threshold: float,
        n_iterations: Optional[int] = None,
        n_times: Optional[int] = None,
        steady: str = "auto",
        sim: str = DEFAULT_SIM_ENGINE,
    ) -> "CellSpec":
        if isinstance(kernel, str):
            kernel = kernel_by_name(kernel)
        return cls(
            kernel=kernel.name,
            machine=machine_key(machine),
            scheduler=scheduler,
            threshold=float(threshold),
            kernel_fp=kernel_fingerprint(kernel),
            n_iterations=n_iterations,
            n_times=n_times,
            steady=steady,
            sim=sim,
        )

    @property
    def machine_name(self) -> str:
        return _machine_name(self.machine)

    def build_machine(self) -> MachineConfig:
        return machine_from_key(self.machine)

    def cache_key(self, locality_fp: str) -> str:
        """Content hash naming this cell's cache entry."""
        material = "|".join(
            (
                f"v{CACHE_VERSION}",
                self.kernel,
                self.kernel_fp,
                self.machine,
                self.scheduler,
                repr(self.threshold),
                repr(self.n_iterations),
                repr(self.n_times),
                self.steady,
                self.sim,
                locality_fp,
            )
        )
        return hashlib.sha256(material.encode()).hexdigest()

    def to_json(self) -> str:
        return json.dumps(
            {
                "kernel": self.kernel,
                "machine": json.loads(self.machine),
                "scheduler": self.scheduler,
                "threshold": self.threshold,
                "kernel_fp": self.kernel_fp,
                "n_iterations": self.n_iterations,
                "n_times": self.n_times,
                "steady": self.steady,
                "sim": self.sim,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "CellSpec":
        data = json.loads(text)
        return cls(
            kernel=data["kernel"],
            machine=json.dumps(
                data["machine"], sort_keys=True, separators=(",", ":")
            ),
            scheduler=data["scheduler"],
            threshold=data["threshold"],
            kernel_fp=data["kernel_fp"],
            n_iterations=data["n_iterations"],
            n_times=data["n_times"],
            steady=data.get("steady", "auto"),
            sim=data.get("sim", DEFAULT_SIM_ENGINE),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.kernel}@{self.machine_name} "
            f"{self.scheduler} thr={self.threshold:.2f}"
        )


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
@dataclass
class GridStats:
    """Where each requested cell came from (one engine instance)."""

    requested: int = 0
    computed: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    deduplicated: int = 0
    #: Wall-clock seconds per pipeline stage, summed over computed cells
    #: (workers report their stage timings back with each result).
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: Planner counters accumulated over plan-executed ``run`` calls:
    #: cells planned, unique/executed task counts per stage, batch
    #: shapes (see :meth:`ExecutionPlanner.plan`).  Empty when every
    #: call used the per-cell path.
    plan: Dict[str, int] = field(default_factory=dict)

    def add_stage_seconds(self, seconds: Mapping[str, float]) -> None:
        for stage, value in seconds.items():
            self.stage_seconds[stage] = (
                self.stage_seconds.get(stage, 0.0) + value
            )

    def add_plan_counters(self, counters: Mapping[str, int]) -> None:
        for key, value in counters.items():
            if key.endswith("_max"):
                self.plan[key] = max(self.plan.get(key, 0), value)
            else:
                self.plan[key] = self.plan.get(key, 0) + value

    def reset(self) -> None:
        self.requested = 0
        self.computed = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.deduplicated = 0
        self.stage_seconds = {}
        self.plan = {}


def _execute_cell(
    spec: CellSpec,
    kernel: Kernel,
    locality: LocalityAnalyzer,
    exact: bool = False,
    warm_store: Optional[WarmStateStore] = None,
    stage_store: Optional[StageStore] = None,
) -> CellOutcome:
    """Execute one cell through the engine pipeline (serial path)."""
    return CellPipeline().run(
        CellRequest(
            kernel=kernel,
            machine=spec.build_machine(),
            scheduler=spec.scheduler,
            threshold=spec.threshold,
            locality=locality,
            n_iterations=spec.n_iterations,
            n_times=spec.n_times,
            exact=exact,
            steady=spec.steady,
            sim=spec.sim,
            warm_store=warm_store,
            stage_store=stage_store,
        )
    )


#: Per-worker analyzer installed by :func:`_init_worker`.  Shipping the
#: analyzer once per worker (instead of once per task) lets its CME memo
#: accumulate across the cells that worker executes.  The warm-state
#: store travels the same way: its in-memory entries accumulated before
#: fan-out arrive pre-primed, and its disk layer (when enabled) lets the
#: workers share warm-ups discovered *during* the sweep.  The stage
#: store's in-memory layer arrives pre-primed too; each task ships its
#: fresh entries back with its result (:meth:`StageStore.drain`) so the
#: parent — and through it, later runs — sees every worker's products.
_WORKER_LOCALITY: Optional[LocalityAnalyzer] = None
_WORKER_EXACT: bool = False
_WORKER_WARM: Optional[WarmStateStore] = None
_WORKER_STAGES: Optional[StageStore] = None


def _init_worker(
    locality: LocalityAnalyzer,
    exact: bool = False,
    warm_store: Optional[WarmStateStore] = None,
    stage_store: Optional[StageStore] = None,
) -> None:
    global _WORKER_LOCALITY, _WORKER_EXACT, _WORKER_WARM, _WORKER_STAGES
    _WORKER_LOCALITY = locality
    _WORKER_EXACT = exact
    _WORKER_WARM = warm_store
    _WORKER_STAGES = stage_store


def _execute_cell_pooled(
    spec: CellSpec, kernel: Kernel
) -> Tuple[RunResult, Dict[str, float], Optional[Dict[str, Dict[str, object]]]]:
    """Pool entry point; ships the result, per-stage timings and the
    stage-store delta (fresh entries + counters) back to the parent."""
    if _WORKER_LOCALITY is None:  # pragma: no cover - defensive
        raise RuntimeError("worker process missing its locality analyzer")
    outcome = _execute_cell(
        spec,
        kernel,
        _WORKER_LOCALITY,
        _WORKER_EXACT,
        _WORKER_WARM,
        _WORKER_STAGES,
    )
    delta = _WORKER_STAGES.drain() if _WORKER_STAGES is not None else None
    return outcome.result, outcome.report.stage_seconds, delta


def _plan_schedule_pooled(
    task: PlanTask, kernel: Kernel, machine: MachineConfig
) -> Tuple[object, float]:
    """Pool entry point for one unique schedule task.

    Workers only *compute* — the parent stores every product into the
    stage store itself, in plan order, so the store's counters match
    the per-cell path exactly (one miss at plan time, one store here).
    """
    if _WORKER_LOCALITY is None:  # pragma: no cover - defensive
        raise RuntimeError("worker process missing its locality analyzer")
    start = time.perf_counter()
    schedule = run_schedule_task(task, kernel, machine, _WORKER_LOCALITY)
    return schedule, time.perf_counter() - start


def _plan_simulate_batch_pooled(
    batch: SimulateBatch, schedules: Dict[str, object]
) -> Tuple[List[object], float]:
    """Pool entry point for one simulate batch (compute-only; the
    parent stores the products — see :func:`_plan_schedule_pooled`)."""
    start = time.perf_counter()
    results = run_simulate_batch(batch, schedules, _WORKER_WARM)
    return results, time.perf_counter() - start


class ExperimentGrid:
    """Executes :class:`CellSpec` grids, in parallel, with caching.

    Parameters
    ----------
    locality:
        The analyzer every cell uses (default: the paper's sampling CME).
        Its fingerprint is part of the cache key.
    n_jobs:
        Worker processes.  ``1`` (default) runs serially in-process;
        results are identical either way — cells are deterministic and
        results are returned in submission order.
    cache:
        ``False`` disables all caching (every run recomputes).
    cache_dir:
        Directory for the on-disk cache layer.  Defaults to
        ``$REPRO_GRID_CACHE`` when exported, else in-memory caching only.
    kernels:
        Optional name → :class:`Kernel` registry for kernels that are not
        part of the SPECfp95 suite; suite kernels resolve automatically.
    progress:
        ``callback(done, total, spec, source)`` invoked once per
        requested cell with ``source`` in ``{"computed", "memory",
        "disk", "dedup"}``.
    exact:
        ``True`` runs every cell with the simulator's steady-state
        memoization disabled.  Results are bit-identical either way (the
        cache key is deliberately execution-strategy-agnostic); the flag
        exists for benchmarking and paranoia runs.
    warm:
        ``True`` (default) shares detector-confirmed post-warm-up memory
        state between cells whose schedules land byte-identical (a
        :class:`~repro.simulator.WarmStateStore` keyed by
        ``Schedule.fingerprint()`` × geometry × steady mode).  The
        store's disk layer lives under ``cache_dir/warm`` and is active
        only while caching is enabled; with ``cache=False`` the store
        still deduplicates warm-ups *within* this run, in memory.
        ``False`` disables warm-state reuse entirely.  Results are
        bit-identical either way: adoption re-proves replay soundness
        against the consuming run's own address tables.
    stage_store:
        ``True`` (default) shares per-stage results between cells
        through a content-addressed :class:`~repro.engine.StageStore`:
        analyze products keyed by loop × analyzer config, schedules by
        kernel × machine × scheduler × threshold × analyzer, and
        simulations by ``Schedule.fingerprint()`` × engine × steady mode
        × iteration overrides — so cells differing only in steady mode
        or simulate engine reuse one schedule, and cells whose schedules
        land byte-identical (neighbouring thresholds) skip simulate
        entirely.  The store's disk layer lives under
        ``cache_dir/stages`` and is active only while caching is
        enabled; with ``cache=False`` it still dedups *within* this
        grid, in memory.  ``False`` disables stage-level reuse; results
        are bit-identical either way.
    cell_cache:
        Separate control over the *whole-cell* result layer.  ``None``
        (default) follows ``cache``.  ``False`` with ``cache=True``
        keeps the trace/warm/stage stores (including their disk layers)
        while disabling whole-cell memoization — the experiment service
        runs this way, so every job's cells execute through the pipeline
        and its per-job telemetry shows exactly which stage products the
        persistent stores served.
    plan:
        ``True`` (default) executes non-cached cells through an explicit
        :class:`~repro.engine.plan.StagePlan`: the planner dedups
        analyze/schedule/simulate work *up front* by the stage store's
        key families, dispatches only the unique tasks (co-batching
        same-kernel simulations through the vectorized engine) and
        assembles every cell's result from the shared products.
        Requires the stage store; ``exact`` runs and store-less grids
        fall back to the per-cell path automatically.  ``False``
        (``--no-plan``) always uses the per-cell path.  Results —
        values, ordering and store telemetry — are bit-identical either
        way.
    """

    def __init__(
        self,
        locality: Optional[LocalityAnalyzer] = None,
        n_jobs: int = 1,
        cache: bool = True,
        cache_dir: Optional[Union[str, pathlib.Path]] = None,
        kernels: Optional[Mapping[str, Kernel]] = None,
        progress: Optional[ProgressCallback] = None,
        exact: bool = False,
        warm: bool = True,
        stage_store: bool = True,
        cell_cache: Optional[bool] = None,
        plan: bool = True,
    ):
        if n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        self.plan_enabled = plan
        self.locality = (
            locality if locality is not None else default_analyzer()
        )
        self.n_jobs = n_jobs
        self.exact = exact
        self.cache_enabled = cache
        self.cell_cache_enabled = (
            cache if cell_cache is None else (cache and cell_cache)
        )
        if cache_dir is None:
            env_dir = os.environ.get(CACHE_ENV_VAR)
            cache_dir = pathlib.Path(env_dir) if env_dir else None
        self.cache_dir = pathlib.Path(cache_dir) if cache_dir else None
        self.progress = progress
        self.stats = GridStats()
        self._memory: Dict[str, RunResult] = {}
        # Guards the in-memory cell cache, the kernel registry and the
        # stats counters: one grid may serve several threads (the
        # experiment service submits jobs concurrently).  Cell
        # *computation* runs outside the lock — only the bookkeeping
        # around it is serialized.
        self._lock = threading.RLock()
        self._kernels: Dict[str, Kernel] = dict(kernels or {})
        self._locality_fp = locality_fingerprint(self.locality)
        warm_dir = (
            self.cache_dir / "warm"
            if (cache and self.cache_dir is not None)
            else None
        )
        self.warm_store: Optional[WarmStateStore] = (
            WarmStateStore(cache_dir=warm_dir) if warm else None
        )
        stages_dir = (
            self.cache_dir / "stages"
            if (cache and self.cache_dir is not None)
            else None
        )
        self.stage_store: Optional[StageStore] = (
            StageStore(cache_dir=stages_dir) if stage_store else None
        )

    # ------------------------------------------------------------------
    # Kernel resolution
    # ------------------------------------------------------------------
    def register(self, kernels: Sequence[Kernel]) -> None:
        """Make non-suite kernels resolvable by the specs naming them."""
        with self._lock:
            for kernel in kernels:
                self._kernels[kernel.name] = kernel

    def _resolve_kernel(self, spec: CellSpec) -> Kernel:
        with self._lock:
            kernel = self._kernels.get(spec.kernel)
            if kernel is None:
                if spec.kernel not in SPEC_KERNELS:
                    raise KeyError(
                        f"cannot resolve kernel {spec.kernel!r}: not in "
                        f"the suite and not registered on this grid"
                    )
                kernel = kernel_by_name(spec.kernel)
                self._kernels[spec.kernel] = kernel
        actual = kernel_fingerprint(kernel)
        if actual != spec.kernel_fp:
            raise ValueError(
                f"kernel {spec.kernel!r} content mismatch: spec expects "
                f"fingerprint {spec.kernel_fp}, resolved kernel has "
                f"{actual} (register the right kernel object)"
            )
        return kernel

    # ------------------------------------------------------------------
    # Cache layers
    # ------------------------------------------------------------------
    def _disk_path(self, key: str) -> Optional[pathlib.Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / key[:2] / f"{key}.pkl"

    def _disk_load(self, key: str) -> Optional[RunResult]:
        path = self._disk_path(key)
        if path is None or not path.exists():
            return None
        try:
            with path.open("rb") as handle:
                result = pickle.load(handle)
            if not isinstance(result, RunResult):
                raise ValueError("foreign object in cell cache")
            return result
        except Exception:
            # Corrupt / truncated / foreign entry: a cache must never
            # turn disk rot into a failed sweep.  Drop the file so the
            # recomputed result can take its slot cleanly.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def _disk_store(self, key: str, result: RunResult) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        # Unique temp name: concurrent processes sharing a cache dir must
        # not clobber each other's in-flight writes before the rename.
        tmp = path.with_name(
            f".{path.stem}.{os.getpid()}.{uuid.uuid4().hex}.tmp"
        )
        with tmp.open("wb") as handle:
            pickle.dump(result, handle)
        tmp.replace(path)  # atomic within one filesystem

    def clear_cache(self) -> None:
        """Drop the in-memory layer and delete on-disk entries.

        Clears the warm-state and stage stores too: their entries key
        off ``CACHE_VERSION``-independent content hashes, but "clear the
        cache" means *all* derived state under ``cache_dir`` — cells,
        traces, warm states and per-stage results alike.
        """
        with self._lock:
            self._memory.clear()
        if self.cache_dir is not None and self.cache_dir.exists():
            for path in self.cache_dir.glob("*/*.pkl"):
                path.unlink(missing_ok=True)
        if self.warm_store is not None:
            self.warm_store.clear_memory()
            self.warm_store.clear_disk()
        if self.stage_store is not None:
            self.stage_store.clear()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_one(self, spec: CellSpec) -> RunResult:
        return self.run([spec])[0]

    def run(self, specs: Sequence[CellSpec]) -> List[RunResult]:
        """Execute the grid; results align with ``specs`` by index.

        Duplicate specs execute once.  Cached cells (memory, then disk)
        are returned without recomputation; the rest run serially or on a
        process pool depending on ``n_jobs``.
        """
        specs = list(specs)
        with self._lock:
            self.stats.requested += len(specs)
        total = len(specs)
        done = 0
        results: Dict[CellSpec, RunResult] = {}
        pending: List[Tuple[CellSpec, str]] = []
        seen: Dict[CellSpec, None] = {}

        def report(spec: CellSpec, source: str) -> None:
            nonlocal done
            done += 1
            if self.progress is not None:
                self.progress(done, total, spec, source)

        for spec in specs:
            if spec in seen:
                with self._lock:
                    self.stats.deduplicated += 1
                report(spec, "dedup")
                continue
            seen[spec] = None
            key = spec.cache_key(self._locality_fp)
            if self.cell_cache_enabled:
                with self._lock:
                    hit = self._memory.get(key)
                    if hit is not None:
                        self.stats.memory_hits += 1
                if hit is not None:
                    results[spec] = hit
                    report(spec, "memory")
                    continue
                hit = self._disk_load(key)
                if hit is not None:
                    with self._lock:
                        self.stats.disk_hits += 1
                        self._memory[key] = hit
                    results[spec] = hit
                    report(spec, "disk")
                    continue
            pending.append((spec, key))

        if pending:
            computed = self._compute(pending, report)
            for (spec, key), result in zip(pending, computed):
                results[spec] = result
                if self.cell_cache_enabled:
                    with self._lock:
                        self._memory[key] = result
                    self._disk_store(key, result)

        with self._lock:
            self.stats.computed += len(pending)
        return [results[spec] for spec in specs]

    def _compute(
        self,
        pending: Sequence[Tuple[CellSpec, str]],
        report: Callable[[CellSpec, str], None],
    ) -> List[RunResult]:
        if (
            self.plan_enabled
            and self.stage_store is not None
            and not self.exact
        ):
            return self._compute_plan(pending, report)
        kernels = [self._resolve_kernel(spec) for spec, _key in pending]
        if self.n_jobs == 1 or len(pending) == 1:
            out = []
            for (spec, _key), kernel in zip(pending, kernels):
                outcome = _execute_cell(
                    spec, kernel, self.locality, self.exact,
                    self.warm_store, self.stage_store,
                )
                with self._lock:
                    self.stats.add_stage_seconds(
                        outcome.report.stage_seconds
                    )
                out.append(outcome.result)
                report(spec, "computed")
            return out
        # Cross-cell trace sharing: build every pending kernel's CME
        # address trace once in the parent, so the analyzer pickled into
        # each worker arrives pre-warmed instead of every worker
        # re-walking the iteration spaces (the traces and memos are
        # content-addressed, hence safe to ship across processes).
        prime = getattr(self.locality, "prime", None)
        if prime is not None:
            for kernel in {kernel.name: kernel for kernel in kernels}.values():
                prime(kernel.loop)
        workers = min(self.n_jobs, len(pending))
        results: List[Optional[RunResult]] = [None] * len(pending)
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(
                self.locality,
                self.exact,
                self.warm_store,
                self.stage_store,
            ),
        ) as pool:
            futures = {
                pool.submit(_execute_cell_pooled, spec, kernel): index
                for index, ((spec, _key), kernel) in enumerate(
                    zip(pending, kernels)
                )
            }
            not_done = set(futures)
            while not_done:
                finished, not_done = wait(
                    not_done, return_when=FIRST_COMPLETED
                )
                for future in finished:
                    index = futures[future]
                    result, stage_seconds, delta = future.result()
                    results[index] = result
                    with self._lock:
                        self.stats.add_stage_seconds(stage_seconds)
                    if delta is not None and self.stage_store is not None:
                        # Content-addressed entries: first-wins merge is
                        # deterministic regardless of completion order.
                        self.stage_store.merge(delta)
                    report(pending[index][0], "computed")
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Plan-based execution
    # ------------------------------------------------------------------
    def _compute_plan(
        self,
        pending: Sequence[Tuple[CellSpec, str]],
        report: Callable[[CellSpec, str], None],
    ) -> List[RunResult]:
        """Execute the pending cells through an explicit stage plan.

        The planner dedups work up front by the stage store's key
        families; only the *unique* tasks run (serially or on the
        pool), the parent stores each product once, and every cell's
        result is assembled from the shared products — value- and
        telemetry-identical to the per-cell path.
        """
        specs = [spec for spec, _key in pending]
        kernels: Dict[str, Kernel] = {}
        for spec in specs:
            kernels[spec.kernel] = self._resolve_kernel(spec)
        assert self.stage_store is not None
        store = self.stage_store
        planner = ExecutionPlanner(self.locality, store)
        plan = planner.plan(specs, kernels)

        pool: Optional[ProcessPoolExecutor] = None

        def ensure_pool() -> ProcessPoolExecutor:
            nonlocal pool
            if pool is None:
                # Trace-prime the analyzer before it is pickled into
                # the workers (idempotent after the analyze wave).
                prime = getattr(self.locality, "prime", None)
                if prime is not None:
                    for kernel in kernels.values():
                        prime(kernel.loop)
                pool = ProcessPoolExecutor(
                    max_workers=self.n_jobs,
                    initializer=_init_worker,
                    initargs=(
                        self.locality,
                        self.exact,
                        self.warm_store,
                        self.stage_store,
                    ),
                )
            return pool

        try:
            # Analyze wave: cheap, shared, and the pickled-to-workers
            # analyzer must carry the traces — run it in the parent.
            for task in plan.analyze_tasks:
                start = time.perf_counter()
                run_analyze_task(
                    task,
                    kernels[str(task.payload["kernel"])],
                    self.locality,
                    store,
                )
                with self._lock:
                    self.stats.add_stage_seconds(
                        {"analyze": time.perf_counter() - start}
                    )

            # Schedule wave: unique tasks only; the parent stores every
            # product in plan order (deterministic store contents).
            produced: List[Optional[object]] = [None] * len(
                plan.schedule_tasks
            )
            if self.n_jobs > 1 and len(plan.schedule_tasks) > 1:
                sched_pool = ensure_pool()
                futures = {
                    sched_pool.submit(
                        _plan_schedule_pooled,
                        task,
                        kernels[str(task.payload["kernel"])],
                        machine_from_key(str(task.payload["machine"])),
                    ): index
                    for index, task in enumerate(plan.schedule_tasks)
                }
                not_done = set(futures)
                while not_done:
                    finished, not_done = wait(
                        not_done, return_when=FIRST_COMPLETED
                    )
                    for future in finished:
                        schedule, seconds = future.result()
                        produced[futures[future]] = schedule
                        with self._lock:
                            self.stats.add_stage_seconds(
                                {"schedule": seconds}
                            )
            else:
                for index, task in enumerate(plan.schedule_tasks):
                    start = time.perf_counter()
                    produced[index] = run_schedule_task(
                        task,
                        kernels[str(task.payload["kernel"])],
                        machine_from_key(str(task.payload["machine"])),
                        self.locality,
                    )
                    with self._lock:
                        self.stats.add_stage_seconds(
                            {"schedule": time.perf_counter() - start}
                        )
            for task, schedule in zip(plan.schedule_tasks, produced):
                store.store("schedule", task.key, schedule)
                plan.schedules[task.key] = schedule

            # Simulate wave: keys need the materialized schedules'
            # fingerprints, so this pass plans, dedups and batches now.
            planner.plan_simulate(plan)
            batch_results: Dict[str, List[object]] = {}
            if self.n_jobs > 1 and len(plan.simulate_tasks) > 1:
                sim_pool = ensure_pool()
                futures = {}
                for batch in plan.batches:
                    needed = {
                        str(task.payload["schedule_key"]): plan.schedules[
                            str(task.payload["schedule_key"])
                        ]
                        for task in batch.tasks
                    }
                    futures[
                        sim_pool.submit(
                            _plan_simulate_batch_pooled, batch, needed
                        )
                    ] = batch.batch_id
                not_done = set(futures)
                while not_done:
                    finished, not_done = wait(
                        not_done, return_when=FIRST_COMPLETED
                    )
                    for future in finished:
                        results_list, seconds = future.result()
                        batch_results[futures[future]] = results_list
                        with self._lock:
                            self.stats.add_stage_seconds(
                                {"simulate": seconds}
                            )
            else:
                for batch in plan.batches:
                    start = time.perf_counter()
                    batch_results[batch.batch_id] = run_simulate_batch(
                        batch, plan.schedules, self.warm_store
                    )
                    with self._lock:
                        self.stats.add_stage_seconds(
                            {"simulate": time.perf_counter() - start}
                        )
            for batch in plan.batches:
                for task, result in zip(
                    batch.tasks, batch_results[batch.batch_id]
                ):
                    store.store("simulate", task.key, result)
                    plan.simulations[task.key] = result
        finally:
            if pool is not None:
                pool.shutdown()

        # Assembly: submission order, one result per pending cell.
        out: List[RunResult] = []
        for node in plan.assembly:
            out.append(planner.assemble(node, plan))
            report(node.spec, "computed")
        with self._lock:
            self.stats.add_plan_counters(plan.counters)
        return out
