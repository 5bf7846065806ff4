"""DSP / multimedia kernels.

The paper motivates clustered VLIWs with the embedded/DSP processors of
the day (TI TMS320C6000, Equator MAP1000, Analog TigerSharc — Section 1)
and notes modulo scheduling is effective "for both numeric and multimedia
applications".  This module provides the classic DSP kernel set those
machines were benchmarked with; each is a single innermost affine loop
ready for the schedulers.

Compared with the SPECfp95-style suite these loops are smaller, hotter
(footprints closer to the 8KB cache) and richer in reductions — the
regime where register buses, not memory buses, dominate.

:func:`dsp_suite` follows the suite contract of
:mod:`repro.workloads.suite`: each kernel is built once per process,
every caller gets the same frozen object (``ddg.add_edge`` raises
:class:`TypeError`), and a private, mutable copy comes from calling the
factory (``fir()``, ``DSP_KERNELS["fir"]()``) directly.
"""

from __future__ import annotations

from typing import Callable, List, Mapping, Optional

from ..ir.builder import Kernel, LoopBuilder
from .suite import _shared_kernel

__all__ = [
    "fir",
    "iir",
    "dotprod",
    "vecsum",
    "complex_mac",
    "autocorr",
    "DSP_KERNELS",
    "dsp_suite",
]

_NTAPS = 8
_N = 512


def fir(n: int = _N, taps: int = _NTAPS) -> Kernel:
    """Finite impulse response filter, fully unrolled taps.

    ``Y[i] = sum_t H[t] * X[i+t]`` — the inner tap loop is unrolled (as
    DSP compilers do), giving ``taps`` uniformly generated loads of X
    with maximal group reuse.
    """
    b = LoopBuilder("fir")
    i = b.dim("i", 0, n)
    x = b.array("X", (n + taps,))
    y = b.array("Y", (n,))
    acc = None
    for t in range(taps):
        xt = b.load(x, [b.aff(t, i=1)], name=f"ld_x{t}")
        ht = b.fconst(f"h{t}")
        term = b.fmul(xt, ht, name=f"mul{t}")
        acc = term if acc is None else b.fadd(acc, term, name=f"acc{t}")
    b.store(y, [b.aff(i=1)], acc, name="st_y")
    return b.build()


def iir(n: int = _N) -> Kernel:
    """Biquad IIR section: the output recurrence bounds the II.

    ``Y[i] = b0*X[i] + a1*Y[i-1] + a2*Y[i-2]`` with the feedback carried
    in registers (distances 1 and 2).
    """
    b = LoopBuilder("iir")
    i = b.dim("i", 0, n)
    x = b.array("X", (n,))
    y = b.array("Y", (n,))
    xi = b.load(x, [b.aff(i=1)], name="ld_x")
    ff = b.fmul(xi, b.fconst("b0"), name="feedfwd")
    f1 = b.fmul(b.prev_value("yout", 1), b.fconst("a1"), name="fb1")
    f2 = b.fmul(b.prev_value("yout", 2), b.fconst("a2"), name="fb2")
    yout = b.fadd(ff, b.fadd(f1, f2, name="fbsum"), dest="yout", name="out")
    b.store(y, [b.aff(i=1)], yout, name="st_y")
    return b.build()


def dotprod(n: int = _N) -> Kernel:
    """Dot product — the canonical reduction loop."""
    b = LoopBuilder("dotprod")
    i = b.dim("i", 0, n)
    x = b.array("X", (n,))
    y = b.array("Y", (n,))
    xi = b.load(x, [b.aff(i=1)], name="ld_x")
    yi = b.load(y, [b.aff(i=1)], name="ld_y")
    prod = b.fmul(xi, yi, name="mul")
    b.fadd(b.prev_value("acc", 1), prod, dest="acc", name="accum")
    return b.build()


def vecsum(n: int = _N) -> Kernel:
    """Element-wise vector sum — pure streaming, no recurrence."""
    b = LoopBuilder("vecsum")
    i = b.dim("i", 0, n)
    x = b.array("X", (n,))
    y = b.array("Y", (n,))
    z = b.array("Z", (n,))
    xi = b.load(x, [b.aff(i=1)], name="ld_x")
    yi = b.load(y, [b.aff(i=1)], name="ld_y")
    b.store(z, [b.aff(i=1)], b.fadd(xi, yi, name="add"), name="st_z")
    return b.build()


def complex_mac(n: int = _N // 2) -> Kernel:
    """Complex multiply-accumulate over interleaved re/im vectors."""
    b = LoopBuilder("complex_mac")
    i = b.dim("i", 0, n)
    x = b.array("X", (2 * n,))
    w = b.array("W", (2 * n,))
    xr = b.load(x, [b.aff(i=2)], name="ld_xr")
    xi_ = b.load(x, [b.aff(1, i=2)], name="ld_xi")
    wr = b.load(w, [b.aff(i=2)], name="ld_wr")
    wi = b.load(w, [b.aff(1, i=2)], name="ld_wi")
    rr = b.fmul(xr, wr, name="mul_rr")
    ii = b.fmul(xi_, wi, name="mul_ii")
    ri = b.fmul(xr, wi, name="mul_ri")
    ir = b.fmul(xi_, wr, name="mul_ir")
    real = b.fsub(rr, ii, name="real")
    imag = b.fadd(ri, ir, name="imag")
    b.fadd(b.prev_value("acc_re", 1), real, dest="acc_re", name="accum_re")
    b.fadd(b.prev_value("acc_im", 1), imag, dest="acc_im", name="accum_im")
    return b.build()


def autocorr(n: int = _N, lag: int = 16) -> Kernel:
    """Autocorrelation at a fixed lag: two reads of one array.

    ``R += X[i] * X[i+lag]`` — uniformly generated pair ``lag`` elements
    apart; for lags beyond a cache line the pair has no group reuse and
    streams twice through the cache.
    """
    b = LoopBuilder("autocorr")
    i = b.dim("i", 0, n)
    x = b.array("X", (n + lag,))
    x0 = b.load(x, [b.aff(i=1)], name="ld_x0")
    xl = b.load(x, [b.aff(lag, i=1)], name="ld_xl")
    prod = b.fmul(x0, xl, name="mul")
    b.fadd(b.prev_value("acc", 1), prod, dest="acc", name="accum")
    return b.build()


DSP_KERNELS: Mapping[str, Callable[[], Kernel]] = {
    "fir": fir,
    "iir": iir,
    "dotprod": dotprod,
    "vecsum": vecsum,
    "complex_mac": complex_mac,
    "autocorr": autocorr,
}


def dsp_suite(names: Optional[List[str]] = None) -> List[Kernel]:
    """The DSP suite (or a named subset, in registry order).

    The kernels are shared and frozen (see the module docstring).
    """
    selected = list(DSP_KERNELS) if names is None else names
    unknown = [n for n in selected if n not in DSP_KERNELS]
    if unknown:
        raise KeyError(f"unknown kernels {unknown}; known: {list(DSP_KERNELS)}")
    return [_shared_kernel(DSP_KERNELS[name]) for name in selected]
