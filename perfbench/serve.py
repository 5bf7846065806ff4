"""Benchmark-owned launcher for the experiment service.

Runs the same ``JobManager`` + ``ExperimentServer`` pair ``repro serve``
runs (through the service's embedding entry ``ServerThread``), and
answers a line protocol on stdin so the benchmark can read the server
process's own CPU time and peak memory, and switch the layer tracer on
and off between passes::

    python3 perfbench/serve.py [--trace] [--spans FILE]

The process pins itself to the last CPU it may use (its client takes
the first) and runs a speed probe from start-up on.  It prints
``URL <url>`` once listening.  Commands, one per line, each
answered with one line:

* ``stats``           -> ``{"cpu_s": ..., "peak_rss_mb": ..., "probe": [n, s]}``
  (``probe``: the count and summed cost of this process's speed probes
  so far, see ``speed.py``)
* ``trace on PHASE``  -> ``ok`` (wrappers installed, spans tagged PHASE)
* ``trace off``       -> ``ok`` (wrappers removed)
* ``quit`` or end of input: write the spans (``--spans``) and exit.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import speed  # noqa: E402

speed.pin(last=True)
#: Started before the program is imported, so set-up is probed too.
PROBE = speed.SpeedProbe().start()

from repro.service.jobs import JobManager  # noqa: E402
from repro.service.server import ServerThread  # noqa: E402

import tracing  # noqa: E402


def process_stats() -> dict:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "probe": PROBE.totals(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true",
                        help="trace layers from start-up on")
    parser.add_argument("--spans", help="write the span records here")
    args = parser.parse_args(argv)

    tracer = tracing.Tracer() if args.trace else None
    uninstall = tracing.install(tracer) if tracer is not None else None

    def reply(text: str) -> None:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()

    with ServerThread(manager=JobManager()) as service:
        reply(f"URL {service.url}")
        for line in sys.stdin:
            words = line.split()
            if not words:
                continue
            if words[0] == "quit":
                break
            if words[0] == "stats":
                reply(json.dumps(process_stats()))
            elif words[:2] == ["trace", "on"] and tracer is not None:
                tracer.phase = words[2] if len(words) > 2 else "traced"
                if uninstall is None:
                    uninstall = tracing.install(tracer)
                reply("ok")
            elif words[:2] == ["trace", "off"] and tracer is not None:
                if uninstall is not None:
                    uninstall()
                    uninstall = None
                reply("ok")
            else:
                reply(f"error unknown command {line.strip()!r}")
    PROBE.stop()
    if tracer is not None and args.spans:
        tracing.write_jsonl(tracer.records(), args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
