"""The repository benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload figures-cold --seed 1 \\
        --seconds 30 --trace 0

Runs from the root of a checkout.  Workloads: ``figures-cold``,
``compile-generated`` and ``service-replay`` (see ``perfbench/README.md``).
The work runs in child processes (``worker.py``, and for
``service-replay`` the server launcher ``serve.py``), so this process
can time set-up from the outside: ``setup_s`` is the median, over
``SETUP_SAMPLES`` fresh worker processes, of process start until the
worker is ready to time its first job, scaled to the reference speed by
the factor the worker reports with ``READY`` (see ``speed.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics (spans go to ``--spans``, by default under ``.perfbench/``).
Exits non-zero, printing no result, when a worker cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("figures-cold", "compile-generated", "service-replay")
#: Set-up is timed this many times per untraced run; the median counts.
SETUP_SAMPLES = 3
#: Every child process must have ended by then (seconds).
DEADLINE = 170.0


class WorkerError(RuntimeError):
    pass


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    # A user's grid cache directory would turn cold runs warm.
    env.pop("REPRO_GRID_CACHE", None)
    return env


def run_worker(args: argparse.Namespace, setup_only: bool,
               deadline: float) -> Tuple[float, float, Optional[dict],
                                         Optional[dict]]:
    """Start one worker; return (scaled setup seconds, raw setup
    seconds, notes, result)."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    if args.spans:
        command += ["--spans", args.spans]
    started = time.perf_counter()
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             cwd=ROOT, env=_child_env())
    # A worker past the deadline is killed; its output then ends early.
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()),
                               child.kill)
    watchdog.start()
    setup = raw = None
    notes = result = None
    try:
        for line in child.stdout:
            if line.startswith("READY") and setup is None:
                raw = time.perf_counter() - started
                setup = raw / float(line.split()[1])
            elif line.startswith("NOTES "):
                notes = json.loads(line[len("NOTES "):])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = child.wait()
    finally:
        watchdog.cancel()
        if child.poll() is None:
            child.kill()
            child.wait()
    if code != 0 or setup is None or (not setup_only and result is None):
        raise WorkerError(f"worker for {args.workload} failed "
                          f"(exit code {code})")
    return setup, raw, notes, result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="span JSONL file of a traced run")
    args = parser.parse_args(argv)
    if args.trace and not args.spans:
        spans_dir = ROOT / ".perfbench"
        spans_dir.mkdir(exist_ok=True)
        args.spans = str(spans_dir / f"{args.workload}-seed{args.seed}"
                         f".spans.jsonl")
    deadline = time.monotonic() + DEADLINE

    try:
        samples = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                samples.append(run_worker(args, True, deadline)[:2])
        setup, raw, notes, result = run_worker(args, False, deadline)
    except (WorkerError, OSError, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    samples.append((setup, raw))
    if not args.trace:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(s for s, _raw in samples),
            "unit": "s",
        }
        notes["setup_samples_s"] = [round(s, 4) for s, _raw in samples]
        notes["raw_setup_samples_s"] = [round(r, 4) for _s, r in samples]
    if args.trace:
        notes["spans"] = os.path.relpath(args.spans, ROOT)
    notes["workload"] = args.workload
    print("notes: " + json.dumps(notes, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
