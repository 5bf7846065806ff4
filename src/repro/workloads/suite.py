"""The benchmark suite registry.

``SPEC_KERNELS`` maps the paper's eight SPECfp95 program names to the
factory producing our synthetic stand-in kernel; :func:`spec_suite`
instantiates all of them.  The registry is ordered as the paper lists the
programs (Section 5.1).

**Shared kernels.**  The suite builders (:func:`spec_suite`,
:func:`kernel_by_name`, :func:`streaming_long_suite` and
:func:`repro.workloads.dsp.dsp_suite`) build each kernel once per
process and hand every caller the same object, so a repeated sweep or
service job neither rebuilds nor re-hashes its kernels (content
fingerprints are memoized on the kernel).  Those shared kernels are
frozen: ``kernel.ddg.add_edge`` raises :class:`TypeError`.  A caller
that needs to mutate a kernel builds a private copy by calling the
factory in the registry (``SPEC_KERNELS[name]()``) or a
:class:`~repro.ir.builder.LoopBuilder`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional

from ..ir.builder import Kernel
from . import kernels as _k

__all__ = [
    "SPEC_KERNELS",
    "STREAMING_LONG_KERNELS",
    "spec_suite",
    "streaming_long_suite",
    "kernel_by_name",
    "suite_stats",
]

SPEC_KERNELS: Mapping[str, Callable[[], Kernel]] = {
    "tomcatv": _k.tomcatv,
    "swim": _k.swim,
    "su2cor": _k.su2cor,
    "hydro2d": _k.hydro2d,
    "mgrid": _k.mgrid,
    "applu": _k.applu,
    "turb3d": _k.turb3d,
    "apsi": _k.apsi,
}

#: Long-stream variants of the ``NTIMES=1`` streaming kernels: 4x NITER
#: with matching array extents (the factories scale every array with
#: ``n``), per the ROADMAP item on showing the iteration-level steady
#: detector's asymptotic win and stressing memoization at production
#: scale.  Registered as their own suite so the short originals keep
#: their paper-scale footprints.
STREAMING_LONG_KERNELS: Mapping[str, Callable[[], Kernel]] = {
    "su2cor-long": lambda: _k.su2cor(n=4 * 512, name="su2cor-long"),
    "applu-long": lambda: _k.applu(n=4 * 1024, name="applu-long"),
    "turb3d-long": lambda: _k.turb3d(n=4 * 512, name="turb3d-long"),
}


#: factory -> the kernel it built, frozen (see the module docstring).
_SHARED: Dict[Callable[[], Kernel], Kernel] = {}


def _shared_kernel(factory: Callable[[], Kernel]) -> Kernel:
    """The process-wide kernel ``factory`` builds, built on first use.

    Its dependence graph is frozen, since every caller shares it.
    """
    kernel = _SHARED.get(factory)
    if kernel is None:
        built = factory()
        built.ddg.freeze(built.name)
        # setdefault: two threads racing on a first build agree on
        # whichever object landed first.
        kernel = _SHARED.setdefault(factory, built)
    return kernel


def streaming_long_suite(names: Optional[List[str]] = None) -> List[Kernel]:
    """The long-stream suite (or a named subset); shared, frozen kernels."""
    selected = list(STREAMING_LONG_KERNELS) if names is None else names
    unknown = [n for n in selected if n not in STREAMING_LONG_KERNELS]
    if unknown:
        raise KeyError(
            f"unknown kernels {unknown}; known: {list(STREAMING_LONG_KERNELS)}"
        )
    return [_shared_kernel(STREAMING_LONG_KERNELS[name]) for name in selected]


def spec_suite(names: Optional[List[str]] = None) -> List[Kernel]:
    """The suite (or the named subset, in registry order).

    The kernels are shared and frozen (see the module docstring).
    """
    selected = list(SPEC_KERNELS) if names is None else names
    unknown = [n for n in selected if n not in SPEC_KERNELS]
    if unknown:
        raise KeyError(f"unknown kernels {unknown}; known: {list(SPEC_KERNELS)}")
    return [_shared_kernel(SPEC_KERNELS[name]) for name in selected]


def kernel_by_name(name: str) -> Kernel:
    """One suite kernel by its SPECfp95 name (shared and frozen)."""
    try:
        factory = SPEC_KERNELS[name]
    except KeyError:
        raise KeyError(
            f"unknown kernel {name!r}; known: {list(SPEC_KERNELS)}"
        ) from None
    return _shared_kernel(factory)


def suite_stats() -> Dict[str, Dict[str, int]]:
    """Per-kernel size statistics (the Section 5.1 workload table)."""
    return {kernel.name: kernel.loop.stats() for kernel in spec_suite()}
