"""Memoized content keys equal a from-scratch recomputation.

``kernel_fingerprint`` is memoized on the kernel's dependence graph,
``machine_key`` on the machine and ``CellSpec.machine_name`` per key
string.  A stale memo would silently serve one kernel's or machine's
cached products to another, so every memo is checked here against the
formulas the keys have always used, spelled out again below as the
reference.  The suite builders hand out shared, frozen kernels; the
guard on those is tested at the end.
"""

import hashlib
import json
import pickle
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.cme.trace import loop_fingerprint
from repro.engine.stagestore import kernel_fingerprint, machine_key
from repro.harness.grid import CellSpec, machine_from_key
from repro.ir.builder import LoopBuilder
from repro.ir.ddg import DepEdge
from repro.machine import BusConfig
from repro.machine.presets import ALL_PRESETS
from repro.workloads import random_kernel
from repro.workloads.dsp import DSP_KERNELS, dsp_suite
from repro.workloads.suite import (
    SPEC_KERNELS,
    STREAMING_LONG_KERNELS,
    kernel_by_name,
    spec_suite,
    streaming_long_suite,
)


# ----------------------------------------------------------------------
# Reference formulas (the keys' definitions, recomputed from scratch)
# ----------------------------------------------------------------------
def reference_kernel_fp(kernel):
    edges = sorted(
        (src, dst, data["kind"], data["distance"])
        for src, dst, data in kernel.ddg.nx.edges(data=True)
    )
    digest = hashlib.sha256()
    digest.update(repr(kernel.loop).encode())
    digest.update(repr(edges).encode())
    return digest.hexdigest()[:16]


def reference_machine_key(machine):
    return json.dumps(machine.to_dict(), sort_keys=True, separators=(",", ":"))


def reference_machine_name(spec):
    return json.loads(spec.machine)["name"]


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
_FACTORIES = {
    **SPEC_KERNELS,
    **DSP_KERNELS,
    **STREAMING_LONG_KERNELS,
}


def _suite_kernels():
    return spec_suite() + dsp_suite() + streaming_long_suite()


def _all_kernels():
    return _suite_kernels() + [random_kernel(seed) for seed in range(20)]


def _machines():
    machines = []
    for factory in ALL_PRESETS.values():
        base = factory()
        machines.append(base)
        machines.append(base.with_buses(register_bus=BusConfig(None, 1)))
        machines.append(base.with_buses(memory_bus=BusConfig(1, 4)))
        machines.append(
            base.with_buses(BusConfig(2, 2), BusConfig(None, 2))
        )
    return machines


def _builder_kernel():
    b = LoopBuilder("memo")
    b.dim("i", 0, 64)
    x = b.array("X", (64,))
    y = b.array("Y", (64,))
    xi = b.load(x, [b.aff(i=1)])
    yi = b.load(y, [b.aff(i=1)])
    b.store(y, [b.aff(i=1)], b.fadd(xi, yi))
    return b.build()


# Module-level so a ProcessPoolExecutor can pickle it into workers.
def _worker_fingerprints(kernel):
    arrived_without_memo = kernel.ddg.fingerprint_memo is None
    return (
        arrived_without_memo,
        loop_fingerprint(kernel.loop),
        kernel_fingerprint(kernel),
    )


# ----------------------------------------------------------------------
# Differential: memo == from scratch
# ----------------------------------------------------------------------
class TestKernelFingerprintMemo:
    def test_every_kernel_matches_reference(self):
        for kernel in _all_kernels():
            expected = reference_kernel_fp(kernel)
            assert kernel_fingerprint(kernel) == expected, kernel.name
            # The second query is served by the memo.
            assert kernel.ddg.fingerprint_memo == (kernel.loop, expected)
            assert kernel_fingerprint(kernel) == expected, kernel.name

    def test_shared_kernels_match_private_builds(self):
        """A shared suite kernel and a fresh factory build hash equal:
        the fingerprint reads content, not identity or the memo."""
        for kernel in _suite_kernels():
            private = _FACTORIES[kernel.name]()
            assert private is not kernel
            assert loop_fingerprint(private.loop) == loop_fingerprint(
                kernel.loop
            )
            assert kernel_fingerprint(private) == kernel_fingerprint(kernel)
            assert reference_kernel_fp(private) == kernel_fingerprint(kernel)

    def test_cell_spec_carries_reference(self):
        machine = ALL_PRESETS["2-cluster"]()
        for kernel in _all_kernels():
            spec = CellSpec.of(kernel, machine, "rmca", 0.5)
            assert spec.kernel_fp == reference_kernel_fp(kernel)

    def test_add_edge_after_fingerprinting_yields_fresh_value(self):
        kernel = _builder_kernel()
        before = kernel_fingerprint(kernel)
        assert before == reference_kernel_fp(kernel)
        loads = [op.name for op in kernel.loop.memory_operations]
        kernel.ddg.add_edge(DepEdge(loads[0], loads[1], "mem", 1))
        assert kernel.ddg.fingerprint_memo is None
        after = kernel_fingerprint(kernel)
        assert after == reference_kernel_fp(kernel)
        assert after != before

    def test_new_loop_object_misses_memo(self):
        kernel = _builder_kernel()
        kernel_fingerprint(kernel)
        other = _builder_kernel()
        kernel.loop = other.loop
        assert kernel_fingerprint(kernel) == reference_kernel_fp(kernel)
        assert kernel.ddg.fingerprint_memo[0] is other.loop

    def test_pickle_round_trip_keeps_value(self):
        for kernel in _all_kernels():
            expected = kernel_fingerprint(kernel)
            clone = pickle.loads(pickle.dumps(kernel))
            # The memo is not pickled: the clone hashes its content.
            assert clone.ddg.fingerprint_memo is None, kernel.name
            assert kernel_fingerprint(clone) == expected, kernel.name
            assert reference_kernel_fp(clone) == expected, kernel.name
            assert kernel.ddg.fingerprint_memo == (kernel.loop, expected)

    def test_pool_workers_recompute_from_content(self):
        """Workers hash what they receive: shared kernels arrive without
        their memo, and private builds (loops never fingerprinted in
        this process) hash equal to the shared kernels."""
        shared = spec_suite(["applu", "su2cor"]) + dsp_suite()[:1]
        expected = [
            (loop_fingerprint(k.loop), kernel_fingerprint(k)) for k in shared
        ]
        private = [_FACTORIES[k.name]() for k in shared]
        with ProcessPoolExecutor(max_workers=2) as pool:
            from_shared = list(pool.map(_worker_fingerprints, shared))
            from_private = list(pool.map(_worker_fingerprints, private))
        assert from_shared == [(True, *fps) for fps in expected]
        assert from_private == [(True, *fps) for fps in expected]


class TestMachineKeyMemo:
    def test_every_machine_matches_reference(self):
        for machine in _machines():
            expected = reference_machine_key(machine)
            assert machine_key(machine) == expected, machine.name
            assert machine_key(machine) is machine_key(machine)
            assert machine_from_key(machine_key(machine)) == machine

    def test_with_buses_does_not_inherit_memo(self):
        base = ALL_PRESETS["2-cluster"]()
        key = machine_key(base)
        variant = base.with_buses(register_bus=BusConfig(None, 1))
        assert machine_key(variant) == reference_machine_key(variant)
        assert machine_key(variant) != key

    def test_pickle_round_trip_keeps_value(self):
        for machine in _machines():
            expected = machine_key(machine)
            clone = pickle.loads(pickle.dumps(machine))
            assert machine_key(clone) == expected
            assert reference_machine_key(clone) == expected


class TestMachineNameMemo:
    def test_every_machine_matches_reference(self):
        kernel = kernel_by_name("applu")
        for machine in _machines():
            spec = CellSpec.of(kernel, machine, "baseline", 1.0)
            assert spec.machine_name == reference_machine_name(spec)
            assert spec.machine_name == machine.name
            clone = pickle.loads(pickle.dumps(spec))
            assert clone.machine_name == machine.name
            assert CellSpec.from_json(spec.to_json()).machine_name == (
                machine.name
            )


# ----------------------------------------------------------------------
# Shared suite kernels
# ----------------------------------------------------------------------
class TestSharedSuiteKernels:
    def test_builders_return_identical_objects(self):
        for first, second in zip(spec_suite(), spec_suite()):
            assert first is second
        for first, second in zip(dsp_suite(), dsp_suite()):
            assert first is second
        for first, second in zip(
            streaming_long_suite(), streaming_long_suite()
        ):
            assert first is second
        for kernel in spec_suite():
            assert kernel_by_name(kernel.name) is kernel
        assert spec_suite(["applu"])[0] is kernel_by_name("applu")

    @pytest.mark.parametrize(
        "kernel",
        [spec_suite()[0], dsp_suite()[0], streaming_long_suite()[0]],
        ids=lambda k: k.name,
    )
    def test_mutating_shared_kernel_raises(self, kernel):
        fingerprint = kernel_fingerprint(kernel)
        n_edges = kernel.ddg.n_edges
        first, second = (op.name for op in kernel.loop.operations[:2])
        with pytest.raises(TypeError) as info:
            kernel.ddg.add_edge(DepEdge(first, second, "mem", 1))
        message = str(info.value)
        assert repr(kernel.name) in message
        assert "factory" in message and "LoopBuilder" in message
        with pytest.raises(Exception):
            kernel.ddg.nx.add_edge(first, second)
        assert kernel.ddg.n_edges == n_edges
        assert kernel_fingerprint(kernel) == fingerprint

    def test_private_copy_is_mutable(self):
        shared = kernel_by_name("applu")
        private = SPEC_KERNELS["applu"]()
        first, second = (op.name for op in private.loop.operations[:2])
        private.ddg.add_edge(DepEdge(first, second, "mem", 1))
        assert kernel_fingerprint(private) != kernel_fingerprint(shared)
        assert kernel_fingerprint(shared) == reference_kernel_fp(shared)

    def test_frozen_after_pickling(self):
        clone = pickle.loads(pickle.dumps(kernel_by_name("swim")))
        first, second = (op.name for op in clone.loop.operations[:2])
        with pytest.raises(TypeError):
            clone.ddg.add_edge(DepEdge(first, second, "mem", 1))

    def test_racing_first_builds_agree(self):
        """Threads racing on the first build of each kernel all get the
        same objects.  Run in a fresh interpreter, where nothing is
        built yet."""
        script = (
            "import sys, threading\n"
            "sys.setswitchinterval(1e-6)\n"
            "from repro.workloads.dsp import dsp_suite\n"
            "from repro.workloads.suite import spec_suite\n"
            "barrier = threading.Barrier(8)\n"
            "seen = []\n"
            "def work():\n"
            "    barrier.wait()\n"
            "    seen.append([id(k) for k in spec_suite() + dsp_suite()])\n"
            "threads = [threading.Thread(target=work) for _ in range(8)]\n"
            "for t in threads: t.start()\n"
            "for t in threads: t.join(timeout=60)\n"
            "assert not any(t.is_alive() for t in threads)\n"
            "assert len(seen) == 8, len(seen)\n"
            "assert all(ids == seen[0] for ids in seen)\n"
            "assert seen[0] == [id(k) for k in spec_suite() + dsp_suite()]\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        subprocess.run(
            [sys.executable, "-c", script],
            check=True,
            timeout=120,
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
        )
