"""Host-speed calibration: a fixed probe timed beside every measurement.

The benchmark runs on shared hosts whose speed swings by up to half
between stretches of a few seconds to minutes, as other tenants come and
go.  So the benchmark times this probe right before each op and after the
last, and reports each op's wall time scaled to the speed at which the
probe takes REFERENCE_S:

    normalized = wall * REFERENCE_S / mean(probe before, probe after)

The probe's parts were chosen by timing candidate parts next to ops of all
three workloads on the development host for minutes at a time: op time
over probe time then varies least.  The probe imports nothing from
wextrap and allocates no arrays, so a change to the program moves the op
times and not the probe.  The raw wall times are reported beside the
normalized ones.
"""

from __future__ import annotations

import mmap
import time

import numpy as np

# About the probe's time on the development host (2-vCPU Xeon, family 6
# model 143, Python 3.11, numpy 2.4 with OpenBLAS, one BLAS thread) in its
# fast state; in its slow state it takes 15-16 ms.  Normalized seconds are
# seconds on that host in its fast state.
REFERENCE_S = 0.0120

_MATRIX = np.random.default_rng(0).standard_normal((160, 160))
_PRODUCT = np.empty_like(_MATRIX)
# 8 MB: twice the L2 cache of the development host, so the pass streams
# through the shared L3 cache and memory, as the large-array ops do.
_STREAM = np.random.default_rng(1).standard_normal(1_000_000)
_BUFFER = np.empty_like(_STREAM)
_PAGE = mmap.PAGESIZE
_FAULT_BYTES = 4 << 20


def _fault_pages() -> None:
    # Map fresh memory and touch every page: 1024 page faults, the same in
    # every probe whatever the program allocated before.
    with mmap.mmap(-1, _FAULT_BYTES) as region:
        pages = np.frombuffer(region, dtype=np.uint8)
        pages[::_PAGE] = 1
        del pages


def _probe() -> float:
    # Interpreter bytecode, BLAS, a streaming pass over a large array, and
    # page faults, which the ops take on their large temporaries and which
    # slow down more than the rest when the host is loaded.  A further part,
    # many numpy calls on small arrays, was dropped: it swung by twice as
    # much as the ops did.  The probe allocates no arrays: a fresh 8 MB
    # temporary page-faults or not depending on what the program allocated
    # and freed before (glibc adapts its mmap threshold), so a change to the
    # program's memory use would move the probe.
    acc = 0
    table: dict = {}
    for i in range(15000):
        acc += i * i % 7
        table[i & 255] = acc
    for _ in range(12):
        np.matmul(_MATRIX, _MATRIX, out=_PRODUCT)
    np.abs(_STREAM, out=_BUFFER)
    np.add(_BUFFER, 1.0, out=_BUFFER)
    np.sqrt(_BUFFER, out=_BUFFER)
    _fault_pages()
    return acc + float(_BUFFER.sum())


def probe_seconds() -> float:
    """Wall time of one run of the probe."""
    start = time.perf_counter()
    _probe()
    return time.perf_counter() - start


def normalized(wall_s: float, probe_s: float) -> float:
    """`wall_s`, measured while the probe took `probe_s`, at the speed where
    the probe takes REFERENCE_S."""
    return wall_s * REFERENCE_S / probe_s
