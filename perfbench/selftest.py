"""The benchmark's own tests (kept out of the repository's test suite).

    python3 -m pytest -q perfbench/selftest.py

They run the workers on reduced inputs (fewer scenarios, kernels and
repeats) so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

#: Worker module overrides that shrink each workload.
REDUCED = {
    "figures-cold": "FIGURE_SCENARIOS = ('fig6-steady-ablation', 'streaming')",
    "compile-generated": "N_KERNELS = 12",
    "service-replay": (
        "SERVICE_MIX = (('fig6-smoke', 1), ('streaming', 2), "
        "('ablation-cme-analytic', 2))"
    ),
}

#: Frames that can only run inside an ``ExperimentGrid.run`` tree.
INSIDE_GRID_RUN = (
    "memory.access_batch_s", "memory.access_s", "steady.signature_s",
    "steady.boundary_s", "simulator.run_self_s", "cme.probe_s",
    "cme.trace_build_s", "scheduler.schedule_self_s", "engine.plan_s",
    "engine.assemble_s", "engine.task_self_s", "engine.store_lookup_s",
    "engine.store_write_s", "harness.unattributed_s",
)


def traced_run(workload: str, spans: Path) -> dict:
    """One traced worker run with a single traced pass."""
    code = (
        f"import sys; sys.path.insert(0, {str(HERE)!r}); import worker; "
        f"worker.{REDUCED[workload]}; "
        f"sys.exit(worker.main(['--workload', {workload!r}, '--seed', '7', "
        f"'--seconds', '0', '--trace', '1', '--spans', {str(spans)!r}]))"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1][len("RESULT "):])
    assert result["correct"], proc.stderr
    return result


@pytest.fixture(scope="module", params=sorted(REDUCED))
def two_runs(request, tmp_path_factory):
    workload = request.param
    base = tmp_path_factory.mktemp(workload)
    first = traced_run(workload, base / "a.jsonl")
    second = traced_run(workload, base / "b.jsonl")
    return workload, first, second, tracing.read_jsonl(str(base / "a.jsonl"))


def test_work_counters_repeat_for_one_seed(two_runs):
    _workload, first, second, _spans = two_runs
    for name in tracing.WORK_COUNTERS:
        assert (first["metrics"][name]["value"]
                == second["metrics"][name]["value"]), name


def test_every_layer_metric_is_reported(two_runs):
    _workload, first, _second, _spans = two_runs
    assert list(first["metrics"]) == [n for n, _ in tracing.LAYER_METRICS]


def test_self_times_add_up_to_grid_run(two_runs):
    workload, first, _second, spans = two_runs
    closures = tracing.grid_run_closure(spans)
    assert closures
    for duration, covered in closures:
        assert covered == pytest.approx(duration, rel=1e-9, abs=1e-9)
    metrics = {k: v["value"] for k, v in first["metrics"].items()}
    if workload != "service-replay":  # server spans are filtered per pass
        assert sum(metrics[n] for n in INSIDE_GRID_RUN) == pytest.approx(
            metrics["harness.grid_run_s"], rel=1e-6)


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(1, 101))
    percentile = worker.tail_percentile(len(values))
    value = worker.nearest_rank(values, percentile)
    assert percentile == 90 and value == 90
    assert sum(1 for v in values if v > value) >= 10
    assert worker.tail_percentile(3) == 100
    assert worker.nearest_rank([3.0, 1.0, 2.0], 100) == 3.0


def test_tail_pools_latencies_as_they_happened():
    """A stall in one pass only still reaches the tail."""
    passes = []
    for stalled in (True, False, False):
        record = worker.PassRecord()
        for index in range(100):
            record.add(5.0 if stalled and index < 20 else 1.0, None, 1,
                       (0.0, 1.0))
        passes.append(record)
    # Four passes of 100 jobs leave ten beyond p97.
    assert worker.pooled_tail(passes) == (5.0, 97)
    # Each job's median over the passes is 1.0: the per-job rule hides them.
    assert max(w for w, _c, _n in worker.median_jobs(passes)) == 1.0


def test_speed_factor_scales_timings():
    probe = speed.SpeedProbe()
    ref = speed.REFERENCE_S
    probe.samples = [(0.0, ref), (1.0, 2 * ref), (2.0, 2 * ref)]
    assert probe.factor(0.5, 2.5) == pytest.approx(2.0)
    # A window between two probes takes the probes on either side.
    assert probe.factor(1.2, 1.3) == pytest.approx(2.0)
    assert probe.factor() == pytest.approx(5 / 3)
    assert speed.factor_between((1, ref), (3, 5 * ref)) == pytest.approx(2.0)
    record = worker.PassRecord()
    record.add(3.0, 2.0, 7, (0.5, 2.5))
    record.add(None, None, 0, (2.5, 2.6))
    record.scale([2.0, 2.0])
    assert record.latencies == [1.5, None] and record.cpus == [1.0, None]
    assert record.raw_busy == 3.0 and record.cells == [7, 0]


def test_probe_thread_records_its_cost():
    probe = speed.SpeedProbe(period=0.001).start()
    try:
        deadline = time.monotonic() + 5
        while probe.totals()[0] < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        probe.stop()
    count, total = probe.totals()
    assert count >= 3 and total > 0
    assert 0.05 < probe.factor() < 50


def test_golden_fig6_parses():
    import oracle

    bars = oracle.golden_bars()
    assert len(bars) == 9 * 4  # unified + 8 bus/scheduler groups
    assert oracle.bars_match(bars, bars)
    shifted = {k: (c + 0.01, s) for k, (c, s) in bars.items()}
    assert not oracle.bars_match(shifted, bars)


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: no result, exit != 0."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "figures-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
