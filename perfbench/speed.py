"""Host-speed probe: scales the benchmark's timings to one reference speed.

The benchmark runs on a vCPU of a shared host.  Other tenants slow that
vCPU down by up to 1.7x, for seconds to minutes at a time, and the
slowdown shows in CPU time as much as in wall time (the guest sees no
steal).  A probe run on another vCPU, or between jobs, does not track
it; a probe interleaved with the program on the program's own vCPU
does.

So every process that does timed work pins itself to one CPU
(:func:`pin`) and runs a :class:`SpeedProbe` thread there.  Every
``PERIOD_S`` the thread runs a fixed piece of Python and NumPy work
(:func:`probe_work`) and records the CPU time it took, read from the
thread's own clock, so time the thread spends waiting for the GIL or
for the CPU does not count.  A timing taken between ``t0`` and ``t1``
is divided by :meth:`SpeedProbe.factor`: the probes' mean cost in that
window over ``REFERENCE_S``.  The result is the time the work would
take on a vCPU where one probe costs ``REFERENCE_S``.

The probe work and ``REFERENCE_S`` are part of the benchmark's
definition: changing either re-bases every timing.  A probe costs 0.6 to
1 ms of CPU every 20 ms, about 4% of the vCPU, on every commit alike.
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from typing import List, Tuple

import numpy as np

#: Seconds between probes.
PERIOD_S = 0.02
#: CPU seconds one probe takes on an uncontended vCPU of the host the
#: benchmark was defined on (an Intel Xeon, Python 3.11, NumPy 2.4);
#: a factor of 1 means "as fast as that".
REFERENCE_S = 0.0006

_TABLE = np.arange(256, dtype=np.int64)


def probe_work() -> int:
    """A fixed mix of interpreter work (dict, int and str operations)
    and small NumPy operations, like the program's own mix."""
    counts: dict = {}
    total = 0
    for i in range(1000):
        key = i & 255
        counts[key] = counts.get(key, 0) + i
        total += len(str(i))
    values = _TABLE
    for _ in range(100):
        values = (values * 3 + 1) & 255
        values = _TABLE[values]
    return total + int(values[0])


def pin(last: bool = False) -> None:
    """Pin this process to one CPU it may run on: the first, or with
    ``last`` the last (so a server and its client get separate CPUs
    where there are two).  Threads started afterwards inherit it."""
    cpus = sorted(os.sched_getaffinity(0))
    cpu = cpus[-1] if last else cpus[0]
    os.sched_setaffinity(0, {cpu})


class SpeedProbe:
    """A daemon thread probing this process's CPU speed.

    ``samples`` holds ``(start, cpu_seconds)`` per probe in start
    order; :meth:`totals` gives a running count and sum that another
    process can difference over a window of its own.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples: List[Tuple[float, float]] = []
        self.count = 0
        self.total = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop,
                                        name="speed-probe", daemon=True)

    def start(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(self.period):
            began = time.perf_counter()
            cpu = time.thread_time()
            probe_work()
            cost = time.thread_time() - cpu
            self.samples.append((began, cost))
            self.count += 1
            self.total += cost

    def totals(self) -> Tuple[int, float]:
        return self.count, self.total

    def factor(self, t0: float = float("-inf"),
               t1: float = float("inf")) -> float:
        """Mean probe cost between ``perf_counter`` readings ``t0`` and
        ``t1``, over ``REFERENCE_S``.  A window too short to hold a
        probe uses the probes nearest to it."""
        samples = self.samples
        lo = bisect.bisect_left(samples, (t0,))
        hi = bisect.bisect_left(samples, (t1,))
        if hi <= lo:
            lo, hi = max(0, lo - 1), min(len(samples), lo + 1)
        if hi <= lo:
            return 1.0
        window = samples[lo:hi]
        mean = sum(cost for _start, cost in window) / len(window)
        return mean / REFERENCE_S


def factor_between(before: Tuple[int, float],
                   after: Tuple[int, float]) -> float:
    """The factor of the probes run between two :meth:`SpeedProbe.totals`
    readings (1.0 when none ran)."""
    count = after[0] - before[0]
    if count <= 0:
        return 1.0
    return (after[1] - before[1]) / count / REFERENCE_S
