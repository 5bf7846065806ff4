"""Run every workload once and print one row per workload.

    python3 perfbench/suite.py [--seed N] [--seconds S] [--trace]

Each workload runs through ``run.py`` in its own process.  The table
shows every end-to-end metric by name with its unit, plus
``failed_frac`` (operations that raised, got an HTTP error or were
rejected by a reference, over operations attempted) and the percentile
``job_tail_s`` stands for.  ``--trace`` adds a traced run per workload
and prints the per-layer table.  Exits non-zero if any workload fails
or any reference rejects a result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("figures-cold", "compile-generated", "service-replay")


def run(workload: str, seed: int, seconds: float,
        trace: int) -> Tuple[Optional[dict], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, {}
    notes = {}
    for line in lines:
        if line.startswith("notes: "):
            notes = json.loads(line[len("notes: "):])
    return json.loads(lines[-1]), notes


def table(rows: List[List[str]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.rjust(width) if i else cell.ljust(width)
                  for i, (cell, width) in enumerate(zip(row, widths)))
        for row in rows
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    ok = True
    results: Dict[str, dict] = {}
    tails: Dict[str, str] = {}
    for workload in WORKLOADS:
        result, notes = run(workload, args.seed, args.seconds, 0)
        if result is None:
            print(f"{workload}: benchmark run failed", file=sys.stderr)
            ok = False
            continue
        results[workload] = result
        tails[workload] = f"p{notes.get('job_tail_percentile')}"
        ok = ok and result["correct"] and result["failed"] == 0
    if results:
        first = next(iter(results.values()))["metrics"]
        header = ["workload"] + [f"{name} ({metric['unit']})"
                                 for name, metric in first.items()]
        header += ["failed_frac", "tail pct", "correct"]
        rows = [header]
        for workload, result in results.items():
            rows.append(
                [workload]
                + [f"{m['value']:.6g}" for m in result["metrics"].values()]
                + [f"{result['failed'] / result['attempted']:.6g}",
                   tails[workload], str(result["correct"])]
            )
        print(table(rows))

    if args.trace:
        traced: Dict[str, dict] = {}
        for workload in WORKLOADS:
            result, _notes = run(workload, args.seed, args.seconds, 1)
            if result is None:
                print(f"{workload}: traced run failed", file=sys.stderr)
                ok = False
                continue
            traced[workload] = result
            ok = ok and result["correct"]
        if traced:
            names = list(next(iter(traced.values()))["metrics"])
            rows = [["metric (unit)"] + list(traced)]
            for name in names:
                unit = next(iter(traced.values()))["metrics"][name]["unit"]
                rows.append([f"{name} ({unit})"] + [
                    f"{r['metrics'][name]['value']:.6g}"
                    for r in traced.values()
                ])
            print()
            print(table(rows))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
