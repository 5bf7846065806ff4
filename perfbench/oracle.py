"""Correctness references the benchmark checks every result against.

* ``fig6-2cluster`` bars against the committed rendering
  ``benchmarks/results/fig6_2cluster.txt``, within its 3-decimal
  rounding (read only, never rewritten);
* grid scenarios and generated-kernel cells against per-cell cycle and
  stall digests from the independent oracle path: the scalar
  ``LockstepSimulator`` with ``exact=True`` and no stage store.

The references are computed outside the timed passes.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
FIG6_GOLDEN = ROOT / "benchmarks" / "results" / "fig6_2cluster.txt"

#: The renderings round to 3 decimals.
TOLERANCE = 1.5e-3

_BAR_RE = re.compile(
    r"^\s+thr=(?P<thr>[\d.]+) \|.*\| "
    r"(?P<total>[\d.]+) \((?P<compute>[\d.]+)\+(?P<stall>[\d.]+)\)$"
)

Bars = Dict[Tuple[str, float], Tuple[float, float]]


def golden_bars(path: Path = FIG6_GOLDEN) -> Bars:
    """Parse a rendered figure into {(group, threshold): (compute, stall)}."""
    bars: Bars = {}
    group = None
    for line in path.read_text().splitlines():
        match = _BAR_RE.match(line)
        if match:
            if group is None:
                raise ValueError(f"bar before any group in {path}")
            bars[(group, float(match["thr"]))] = (
                float(match["compute"]), float(match["stall"])
            )
            continue
        stripped = line.strip()
        if (
            stripped
            and not line.startswith((" ", "\t"))
            and not stripped.startswith(("Figure", "(full width"))
        ):
            group = stripped
    if not bars:
        raise ValueError(f"no bars in {path}")
    return bars


def figure_bars(figure) -> Bars:
    return {
        (bar.group, bar.threshold): (bar.norm_compute, bar.norm_stall)
        for bar in figure.bars
    }


def bars_match(got: Bars, golden: Bars) -> bool:
    """Every golden bar is present and equal within the rounding."""
    for key, (compute, stall) in golden.items():
        bar = got.get(key)
        if bar is None:
            return False
        if abs(bar[0] - compute) > TOLERANCE or abs(bar[1] - stall) > TOLERANCE:
            return False
    return True


CellDigest = Tuple[object, ...]


def outcome_digest(outcome) -> List[CellDigest]:
    """Per-cell (group, threshold, kernel, II, compute, stall) of a grid
    scenario outcome, in enumeration order."""
    return [
        (label, threshold, kernel, result.schedule.ii,
         result.simulation.compute_cycles, result.simulation.stall_cycles)
        for label, threshold, kernel, result in outcome.iter_rows()
    ]


def scenario_oracle(name: str) -> List[CellDigest]:
    """The grid scenario's digest through the oracle path."""
    from repro.harness.scenarios import run_scenario

    outcome = run_scenario(
        name, cache=False, exact=True, sim="scalar", stage_store=False,
        plan=False,
    )
    return outcome_digest(outcome)


def cell_digest(spec, result) -> CellDigest:
    return (spec.kernel, spec.machine_name, spec.scheduler, spec.threshold,
            result.schedule.ii, result.simulation.compute_cycles,
            result.simulation.stall_cycles)


def cells_oracle(specs: Sequence, results: Sequence) -> List[CellDigest]:
    """Re-simulate each cell's schedule on the scalar engine, exactly and
    without any store, and digest it like :func:`cell_digest`."""
    from repro.simulator import LockstepSimulator

    out = []
    for spec, result in zip(specs, results):
        simulation = LockstepSimulator(
            result.schedule,
            n_iterations=spec.n_iterations,
            n_times=spec.n_times,
            exact=True,
        ).run()
        out.append((spec.kernel, spec.machine_name, spec.scheduler,
                    spec.threshold, result.schedule.ii,
                    simulation.compute_cycles, simulation.stall_cycles))
    return out
