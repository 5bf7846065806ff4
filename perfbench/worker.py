"""One benchmark workload, run in its own process.

``run.py`` starts this script, times it from process start until it
prints ``READY`` (that is one ``setup_s`` sample), and reads its result
from the line starting with ``RESULT``::

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \\
        --trace 0|1 [--setup-only] [--spans FILE]

Every workload is a sequence of *passes* over inputs made from the
seed; a pass is the same list of *jobs* each time (one scenario run,
one kernel's cells, one service submission).  Untraced runs repeat
passes until ``--seconds`` have elapsed (at least ``MIN_PASSES``).
Traced runs alternate an untraced and a traced pass, so the per-layer
table and the tracing overhead come from the same run.

Every timing is scaled to the reference speed of ``speed.py``: the
process pins itself to one CPU and a probe thread measures that CPU's
speed while the jobs run, so a host that slows the vCPU down for a
while slows the probe down with it.  Each job's time is then its median
over the passes; the tail is taken from every latency of the run as it
happened, so a stall that hits a job in one pass only still reaches it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402

#: Started before the program is imported, so set-up is probed too.
PROBE: Optional[speed.SpeedProbe] = None
if __name__ == "__main__":
    speed.pin()
    PROBE = speed.SpeedProbe().start()

import numpy as np  # noqa: E402

from repro.cme import IncrementalCME  # noqa: E402
from repro.harness import scenarios  # noqa: E402
from repro.harness.grid import CellSpec, ExperimentGrid  # noqa: E402
from repro.machine import preset  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.service.jobs import _result_payload  # noqa: E402
from repro.workloads import generator, suite  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402

# ----------------------------------------------------------------------
# Workload inputs
# ----------------------------------------------------------------------
#: figures-cold: the paper's fig6 panel, all four steady-detector modes,
#: and the single-entry streaming kernels.
FIGURE_SCENARIOS = ("fig6-2cluster", "fig6-steady-ablation", "streaming")

#: compile-generated: larger kernels than the generator's default, so
#: scheduling (and its CME probes) dominates.  Recurrences stay rare:
#: they give the II search a long tail, so a pass's length would depend
#: on how many of them the seed drew.  Per-kernel cost still has a
#: standard deviation of about 0.65x its mean, so with N_KERNELS the
#: seed-to-seed spread of a pass is about 8% (interquartile range over
#: median).
GENERATOR = generator.GeneratorConfig(
    max_arrays=6, max_loads=10, max_arith=16, max_stores=3,
    recurrence_probability=0.05,
)
N_KERNELS = 120
GEN_PRESETS = ("2-cluster", "4-cluster")
GEN_CONFIGS = (("baseline", 1.0), ("rmca", 1.0), ("rmca", 0.0))
#: Iteration overrides that keep each cell's simulation short.
GEN_ITERATIONS = 16
GEN_TIMES = 2

#: service-replay: ``fig6-smoke`` is the one request the repository
#: documents for the service (README, ``repro submit``, the CI smoke
#: job); it exercises the figure payload.  The grid scenarios cover the
#: service's three analyzer configurations.  The weights are an
#: assumption: fig6-smoke is a third of a pass, so the median job is a
#: grid-scenario repeat and the tail a fig6-smoke repeat.  Every seed
#: replays the same mix in its own order.
SERVICE_MIX = (
    ("fig6-smoke", 20),
    ("dsp-4cluster", 8), ("streaming", 8), ("unified-reference", 8),
    ("ablation-cme-analytic", 8), ("ablation-cme-sampling", 8),
)

#: Untraced runs make at least this many passes.
MIN_PASSES = 4


@dataclass
class PassRecord:
    """One pass, job by job in pass order (``None`` where a job failed).

    Timings are raw while the pass runs; :meth:`Workload.normalize`
    scales them to the reference speed once it has ended."""

    latencies: List[Optional[float]] = field(default_factory=list)
    #: CPU seconds of this process per job (``None`` for service jobs:
    #: the service workload measures its server per pass instead).
    cpus: List[Optional[float]] = field(default_factory=list)
    cells: List[int] = field(default_factory=list)
    #: ``perf_counter`` at each job's start and end.
    windows: List[Tuple[float, float]] = field(default_factory=list)
    server_cpu: Optional[float] = None
    #: Per-job (queue, run, http) seconds, service passes only.
    service: List[Tuple[float, float, float]] = field(default_factory=list)
    #: Per-job speed factors the timings were divided by.
    factors: List[float] = field(default_factory=list)
    #: The pass's raw busy seconds, before scaling.
    raw_busy: float = 0.0

    def add(self, latency: Optional[float], cpu: Optional[float],
            cells: int, window: Tuple[float, float]) -> None:
        self.latencies.append(latency)
        self.cpus.append(cpu)
        self.cells.append(cells)
        self.windows.append(window)

    def scale(self, factors: List[float]) -> None:
        """Divide every timing of job ``i`` by ``factors[i]``."""
        self.raw_busy = sum(x for x in self.latencies if x is not None)
        self.factors = factors
        self.latencies = [None if x is None else x / f
                          for x, f in zip(self.latencies, factors)]
        self.cpus = [None if x is None else x / f
                     for x, f in zip(self.cpus, factors)]
        self.service = [tuple(x / f for x in parts)
                        for parts, f in zip(self.service, factors)]


class Workload:
    """Set-up, passes and correctness checks of one workload."""

    name = ""

    def __init__(self, seed: int, probe: speed.SpeedProbe,
                 tracer: Optional[tracing.Tracer],
                 spans_path: Optional[str] = None):
        self.seed = seed
        self.probe = probe
        self.tracer = tracer
        self.spans_path = spans_path
        self.attempted = 0
        self.failed = 0

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, traced: bool, phase: str) -> PassRecord:
        raise NotImplementedError

    def check(self) -> None:
        """Compare the recorded outputs with the references."""

    def setup_factor(self) -> float:
        """The speed factor over set-up so far."""
        return self.probe.factor()

    def normalize(self, record: PassRecord) -> None:
        """Scale each job's timings by the probes run during it."""
        record.scale([self.probe.factor(*window)
                      for window in record.windows])

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def span_records(self) -> List[Dict[str, object]]:
        return self.tracer.records()

    def pass_records(self, phase: str) -> List[Dict[str, object]]:
        return [r for r in self.span_records() if r["phase"] == phase]

    def close(self) -> None:
        pass

    def _job(self, record: PassRecord, label: str, run: Callable[[], object],
             cells: Callable[[object], int],
             latency: Optional[Callable[[object], float]] = None
             ) -> Optional[object]:
        """Run and time one job; a job that raises is counted as failed
        and the pass goes on.  ``latency`` reads the job's latency from
        its output instead of timing the call."""
        self.attempted += 1
        began, cpu = time.perf_counter(), time.process_time()
        try:
            out = run()
        except Exception as exc:
            self.failed += 1
            print(f"perfbench: {label} raised {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            record.add(None, None, 0, (began, time.perf_counter()))
            return None
        ended = time.perf_counter()
        record.add(latency(out) if latency is not None else ended - began,
                   time.process_time() - cpu, cells(out), (began, ended))
        return out

    def _count_rejections(self, name: str, ok: List[bool]) -> None:
        rejected = ok.count(False)
        if rejected:
            self.failed += rejected
            print(f"perfbench: {rejected} {name} result(s) rejected by the "
                  f"reference", file=sys.stderr)


class FiguresCold(Workload):
    """The three anchor scenarios, each from an empty in-memory stage
    store with the cell cache off."""

    name = "figures-cold"

    def setup(self) -> None:
        suite.spec_suite()
        self.golden = oracle.golden_bars()
        self.outputs: Dict[str, List[object]] = {n: [] for n in
                                                 FIGURE_SCENARIOS}

    def run_pass(self, traced: bool, phase: str) -> PassRecord:
        record = PassRecord()
        for name in FIGURE_SCENARIOS:
            gc.collect()  # start each job from a clean heap
            outcome = self._job(
                record, name,
                lambda: scenarios.run_scenario(name, cache=False),
                lambda out: out.grid.stats.requested,
            )
            if outcome is not None:
                self.outputs[name].append(
                    oracle.figure_bars(outcome.figure)
                    if outcome.figure is not None
                    else oracle.outcome_digest(outcome)
                )
            # Free its grid and stores: the next job must not pay for
            # collecting them, as it would not in a fresh process.
            del outcome
        return record

    def check(self) -> None:
        for name, outputs in self.outputs.items():
            if name == "fig6-2cluster":
                ok = [oracle.bars_match(bars, self.golden) for bars in outputs]
            else:
                reference = oracle.scenario_oracle(name)
                ok = [digest == reference for digest in outputs]
            self._count_rejections(name, ok)


class CompileGenerated(Workload):
    """Seeded random kernels compiled for two machines under three
    scheduler settings, one grid submission per kernel."""

    name = "compile-generated"

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        kernel_seeds: Dict[int, None] = {}
        while len(kernel_seeds) < N_KERNELS:
            kernel_seeds[int(rng.integers(0, 2**31 - 1))] = None
        self.kernels = [generator.random_kernel(s, GENERATOR)
                        for s in kernel_seeds]
        machines = [preset(name) for name in GEN_PRESETS]
        self.jobs = [
            [
                CellSpec.of(kernel, machine, scheduler, threshold,
                            n_iterations=GEN_ITERATIONS, n_times=GEN_TIMES)
                for machine in machines
                for scheduler, threshold in GEN_CONFIGS
            ]
            for kernel in self.kernels
        ]
        self.first: Optional[List[object]] = None
        self.digests: List[List[object]] = []

    @staticmethod
    def _compile(kernel, specs) -> List[object]:
        # A fresh grid per kernel: nothing is shared between distinct
        # kernels, and memory stays bounded.
        grid = ExperimentGrid(locality=IncrementalCME(max_points=512),
                              cache=False)
        grid.register([kernel])
        return grid.run(specs)

    def run_pass(self, traced: bool, phase: str) -> PassRecord:
        record = PassRecord()
        results: List[object] = []
        for kernel, specs in zip(self.kernels, self.jobs):
            gc.collect()  # start each job from a clean heap
            out = self._job(record, kernel.name,
                            lambda: self._compile(kernel, specs), len)
            results.extend(out if out is not None else [None] * len(specs))
        specs = [spec for job in self.jobs for spec in job]
        self.digests.append([
            oracle.cell_digest(spec, result) if result is not None else None
            for spec, result in zip(specs, results)
        ])
        if self.first is None:
            self.first = results
        return record

    def check(self) -> None:
        specs = [spec for job in self.jobs for spec in job]
        pairs = [(s, r) for s, r in zip(specs, self.first) if r is not None]
        reference = dict(zip(
            [s for s, _ in pairs],
            oracle.cells_oracle([s for s, _ in pairs],
                                [r for _, r in pairs]),
        ))
        width = len(GEN_PRESETS) * len(GEN_CONFIGS)
        for digests in self.digests:
            ok = []
            for index in range(0, len(specs), width):
                job = list(zip(specs[index:index + width],
                               digests[index:index + width]))
                if any(digest is None for _, digest in job):
                    continue  # the job raised; already counted
                ok.append(all(digest == reference.get(spec)
                              for spec, digest in job))
            self._count_rejections(self.name, ok)


class ServiceReplay(Workload):
    """A closed-loop client replaying registered scenarios against one
    ``repro serve`` process started through ``serve.py``."""

    name = "service-replay"

    def __init__(self, seed, probe, tracer, spans_path=None):
        super().__init__(seed, probe, tracer, spans_path)
        self.server: Optional[subprocess.Popen] = None
        #: (client, server) speed factors of the last pass.
        self.pass_factors = (1.0, 1.0)
        self.server_rss: Optional[float] = None
        self.server_records: List[Dict[str, object]] = []
        #: One ``service.job`` span per traced client job.
        self.client_records: List[Dict[str, object]] = []

    def _command(self, line: str) -> str:
        self.server.stdin.write(line + "\n")
        self.server.stdin.flush()
        answer = self.server.stdout.readline()
        if not answer:
            raise RuntimeError(f"server exited during {line!r}")
        return answer.strip()

    @staticmethod
    def _canonical(payload: object) -> str:
        return json.dumps(payload, sort_keys=True)

    def setup(self) -> None:
        command = [sys.executable, str(HERE / "serve.py")]
        if self.tracer is not None:
            command += ["--trace", "--spans", self.spans_path + ".server"]
        self.server = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        line = self.server.stdout.readline().split()
        if line[:1] != ["URL"]:
            raise RuntimeError("service launcher did not start")
        self.client = ServiceClient(line[1], timeout=120.0)
        # Warm-up: each scenario once, cold.
        self.cells: Dict[str, int] = {}
        self.answers: List[Tuple[str, str]] = []
        for name, _repeats in SERVICE_MIX:
            self.attempted += 1
            job = self.client.submit(name)
            self.cells[name] = sum(
                1 for event in self.client.events(job["id"])
                if event.get("type") == "cell"
            )
            self.answers.append((name, self._canonical(
                self.client.result(job["id"])["result"])))
        order = [name for name, repeats in SERVICE_MIX
                 for _ in range(repeats)]
        random.Random(self.seed).shuffle(order)
        self.order = order

    def setup_factor(self) -> float:
        # Set-up is mostly the server's warm-up, on its own CPU.
        server = speed.factor_between(
            (0, 0.0), json.loads(self._command("stats"))["probe"])
        return (self.probe.factor() + server) / 2

    def normalize(self, record: PassRecord) -> None:
        """A job's time is spent in the client and in the server, each
        on its own CPU, so the whole pass is scaled by the mean of the
        two processes' factors over it; the server's CPU time by the
        server's alone."""
        client, server = self.pass_factors
        record.scale([(client + server) / 2] * len(record.latencies))
        record.server_cpu /= server

    def run_pass(self, traced: bool, phase: str) -> PassRecord:
        if self.tracer is not None:
            self._command(f"trace on {phase}" if traced else "trace off")
        before = json.loads(self._command("stats"))
        began = time.perf_counter()
        record = PassRecord()
        answers: List[Tuple[str, Dict[str, object]]] = []

        def replay(name: str) -> Dict[str, object]:
            submitted, began = time.time(), time.perf_counter()
            job = self.client.submit(name)
            # Wait as ``repro submit`` does, on the event stream.  The
            # stream polls every 50 ms, so the wait is not the latency.
            for _event in self.client.events(job["id"]):
                pass
            job = self.client.job(job["id"])
            fetched = time.perf_counter()
            result = self.client.result(job["id"])["result"]
            fetch = time.perf_counter() - fetched
            queue = job["started"] - job["created"]
            run = job["finished"] - job["started"]
            # Submit until the server finished, plus the result fetch;
            # server and client read the same wall clock.
            latency = job["finished"] - submitted + fetch
            return {"job": job, "result": result, "latency": latency,
                    "began": began,
                    "service": (queue, run, latency - queue - run)}

        for name in self.order:
            answer = self._job(record, name, lambda: replay(name),
                               lambda _answer: self.cells[name],
                               lambda answer: answer["latency"])
            if answer is not None:
                answers.append((name, answer))
                record.service.append(answer["service"])
        ended = time.perf_counter()
        after = json.loads(self._command("stats"))
        record.cpus = [None] * len(record.cpus)
        record.server_cpu = after["cpu_s"] - before["cpu_s"]
        self.pass_factors = (
            self.probe.factor(began, ended),
            speed.factor_between(before["probe"], after["probe"]),
        )
        if self.server_rss is None:
            # The service keeps every job's record in memory, so its
            # peak grows with the number of jobs a run fits in; read it
            # after a fixed amount of work instead.
            self.server_rss = after["peak_rss_mb"]
        self.answers.extend((name, self._canonical(answer["result"]))
                            for name, answer in answers)
        if traced:
            for _name, answer in answers:
                job, latency = answer["job"], answer["latency"]
                queue, run, http = answer["service"]
                began = answer["began"]
                self.client_records.append({
                    "id": job["id"], "parent": None, "run": job["id"],
                    "name": "service.job", "start": began,
                    "end": began + latency, "self_s": http, "phase": phase,
                    "thread": 0, "pid": os.getpid(), "leaves": {},
                    "scenario": job["scenario"],
                    "counts": {"queue_s": queue, "run_s": run,
                               "http_s": http},
                })
        return record

    def peak_rss_mb(self) -> float:
        return self.server_rss

    def check(self) -> None:
        """Every answer, warm-up included, against the in-process run."""
        reference = {
            name: self._canonical(
                _result_payload(scenarios.run_scenario(name)))
            for name, _repeats in SERVICE_MIX
        }
        ok = [text == reference[name] for name, text in self.answers]
        self.answers = []
        self._count_rejections(self.name, ok)

    def close(self) -> None:
        if self.server is None:
            return
        try:
            self.server.stdin.close()
        except OSError:
            pass
        try:
            self.server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        if self.tracer is not None and self.spans_path:
            server_spans = Path(self.spans_path + ".server")
            if server_spans.exists():
                self.server_records = tracing.read_jsonl(str(server_spans))
                server_spans.unlink()

    def span_records(self) -> List[Dict[str, object]]:
        return self.server_records + self.client_records


WORKLOADS = {cls.name: cls for cls in (FiguresCold, CompileGenerated,
                                       ServiceReplay)}


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail_percentile(n: int) -> int:
    """The highest whole percentile (nearest rank) that still leaves at
    least ten of ``n`` samples above it; 100 (the maximum) when not even
    the median does."""
    for percentile in range(99, 49, -1):
        if n - -(-percentile * n // 100) >= 10:
            return percentile
    return 100


def nearest_rank(values: List[float], percentile: int) -> float:
    ordered = sorted(values)
    return ordered[max(1, -(-percentile * len(ordered) // 100)) - 1]


def median_jobs(passes: List[PassRecord]) -> List[Tuple[float, Optional[
        float], int]]:
    """Per job: (median wall seconds, median CPU seconds, cells) over
    the passes it succeeded in; jobs that never succeeded are left out."""
    jobs = []
    for walls, cpus, cells in zip(zip(*(p.latencies for p in passes)),
                                  zip(*(p.cpus for p in passes)),
                                  zip(*(p.cells for p in passes))):
        ok = [i for i, wall in enumerate(walls) if wall is not None]
        if not ok:
            continue
        cpu = (statistics.median(cpus[i] for i in ok)
               if cpus[ok[0]] is not None else None)
        jobs.append((statistics.median(walls[i] for i in ok), cpu,
                     max(cells)))
    return jobs


def busy_seconds(passes: List[PassRecord]) -> float:
    """A pass's length with each job at its median."""
    return sum(wall for wall, _cpu, _cells in median_jobs(passes))


def pooled_tail(passes: List[PassRecord]) -> Tuple[float, int]:
    """The tail of every latency of the run as it happened, pooled over
    the passes.  The percentile is fixed by the shortest run
    (``MIN_PASSES`` passes), so it does not change with how many passes
    the host's speed lets a run fit."""
    pooled = [x for p in passes for x in p.latencies if x is not None]
    percentile = tail_percentile(MIN_PASSES * len(passes[0].latencies))
    return nearest_rank(pooled, percentile), percentile


#: A service job whose client-side share (latency minus queue and run)
#: reaches this is reported in the notes: it would show a wait that is
#: not the program's, such as the event stream's 50-ms poll.
SLOW_HTTP_S = 0.04


def end_to_end(passes: List[PassRecord], rss: float) -> Tuple[Dict, Dict]:
    jobs = median_jobs(passes)
    walls = [wall for wall, _cpu, _cells in jobs]
    busy = sum(walls)
    if passes[0].server_cpu is not None:
        cpu = statistics.median(p.server_cpu for p in passes)
    else:
        cpu = sum(cpu for _wall, cpu, _cells in jobs)
    tail_value, tail_pct = pooled_tail(passes)
    metrics = {
        "cells_per_s": (sum(cells for _w, _c, cells in jobs) / busy, "1/s"),
        "cpu_s": (cpu, "s"),
        "job_p50_s": (statistics.median(walls), "s"),
        "job_tail_s": (tail_value, "s"),
        "jobs_per_s": (len(jobs) / busy, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    notes = {"passes": len(passes), "jobs_per_pass": len(walls),
             "job_tail_percentile": tail_pct,
             "pass_busy_s": [
                 round(sum(x for x in p.latencies if x is not None), 4)
                 for p in passes
             ],
             "raw_pass_busy_s": [round(p.raw_busy, 4) for p in passes],
             "speed_factor_median": round(statistics.median(
                 f for p in passes for f in p.factors), 4)}
    notes.update(slow_http(passes))
    return metrics, notes


def slow_http(passes: List[PassRecord]) -> Dict[str, float]:
    """The share of service jobs whose client-side time reached
    ``SLOW_HTTP_S`` (no entry for in-process workloads)."""
    http = [s[2] for p in passes for s in p.service]
    if not http:
        return {}
    return {"service_slow_http_share":
            sum(1 for x in http if x >= SLOW_HTTP_S) / len(http)}


def per_layer(workload: Workload, traced: List[Tuple[str, PassRecord]],
              plain: List[PassRecord]) -> Tuple[Dict, Dict, bool]:
    tables = []
    for phase, record in traced:
        table = tracing.layer_table(workload.pass_records(phase))
        queue = sum(s[0] for s in record.service)
        run = sum(s[1] for s in record.service)
        http = sum(s[2] for s in record.service)
        table.update({"service.queue_s": queue, "service.run_s": run,
                      "service.http_s": http})
        tables.append(table)
    steady_counters = all(
        table[name] == tables[0][name]
        for table in tables for name in tracing.WORK_COUNTERS
    )
    setup_build = sum(
        float(r["self_s"]) for r in workload.pass_records("setup")
        if r["name"] == "workloads.build"
    )
    overhead = (busy_seconds([r for _, r in traced])
                / busy_seconds(plain) - 1.0)
    units = dict(tracing.LAYER_METRICS)
    metrics = {}
    for name, unit in tracing.LAYER_METRICS:
        if name == "workloads.build_s":
            value = setup_build
        elif name == "trace.overhead_frac":
            value = overhead
        else:
            value = statistics.median(table[name] for table in tables)
        metrics[name] = (value, units[name])
    notes = {"traced_passes": len(traced), "plain_passes": len(plain),
             "work_counters_repeat": steady_counters,
             **slow_http(plain + [r for _, r in traced])}
    return metrics, notes, steady_counters


def environment(seed: int) -> Dict[str, object]:
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        revision = "unknown"
    return {
        "seed": seed,
        "git_revision": revision,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark workload")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="span JSONL output (traced runs)")
    args = parser.parse_args(argv)

    probe = PROBE
    if probe is None:
        speed.pin()
        probe = speed.SpeedProbe().start()
    tracer = tracing.Tracer() if args.trace else None
    uninstall = tracing.install(tracer) if tracer is not None else None
    workload = WORKLOADS[args.workload](args.seed, probe, tracer, args.spans)

    def run_pass(traced: bool, phase: str) -> PassRecord:
        record = workload.run_pass(traced, phase)
        workload.normalize(record)
        return record

    try:
        workload.setup()
        # run.py divides the set-up time it measures by this factor.
        print(f"READY {workload.setup_factor()!r}", flush=True)
        if args.setup_only:
            return 0
        plain: List[PassRecord] = []
        traced: List[Tuple[str, PassRecord]] = []
        start = time.perf_counter()
        while True:
            if tracer is None:
                plain.append(run_pass(False, "plain"))
            else:
                if uninstall is not None:
                    uninstall()
                    uninstall = None
                plain.append(run_pass(False, "plain"))
                phase = f"pass-{len(traced)}"
                tracer.phase = phase
                uninstall = tracing.install(tracer)
                traced.append((phase, run_pass(True, phase)))
                uninstall()
                uninstall = None
            if (time.perf_counter() - start >= args.seconds
                    and (tracer is not None or len(plain) >= MIN_PASSES)):
                break
        rss = workload.peak_rss_mb()
    finally:
        workload.close()
        probe.stop()
    workload.check()

    notes = environment(args.seed)
    correct = workload.failed == 0
    if tracer is None:
        metrics, extra = end_to_end(plain, rss)
    else:
        metrics, extra, repeat = per_layer(workload, traced, plain)
        correct = correct and repeat
        if args.spans:
            tracing.write_jsonl(workload.span_records(), args.spans)
    notes.update(extra)
    print("NOTES " + json.dumps(notes, sort_keys=True), flush=True)
    result = {
        "correct": correct,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
