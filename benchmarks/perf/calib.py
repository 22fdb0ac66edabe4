"""Host-speed calibration slices.

This box's two CPUs are hyperthreads of one core on a shared host: when
the sibling is busy (another tenant, or any second process here) the
same Python code runs up to 1.9x slower for minutes at a time, and
``process CPU / wall`` does not notice — the process is on-CPU the whole
time, the CPU is just slower.  A few milliseconds of fixed work, timed
at intervals through a run, does notice.

Two slices, because the slowdown differs by kind of work: ``interp``
is interpreter-bound (heap, generator and dict traffic, like the event
loop); ``numeric`` is NumPy sort/scatter on arrays larger than L2 (like
graph generation, partitioning and the app kernels).
"""

from __future__ import annotations

import heapq
import time

import numpy as np

_KEYS = np.random.default_rng(0).integers(0, 1 << 16, size=1 << 16)


def interp_slice(n: int = 12_000) -> float:
    """Seconds for a fixed stretch of interpreter-bound work."""
    def ticker():
        x = 0
        while True:
            x = (yield x) or x + 1

    gen = ticker()
    next(gen)
    heap: list = []
    seen: dict = {}
    t0 = time.perf_counter()
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        if i & 1:
            seen[heapq.heappop(heap)[1] & 1023] = i
        gen.send(i)
    return time.perf_counter() - t0


def numeric_slice() -> float:
    """Seconds for a fixed stretch of NumPy sort/scatter work."""
    t0 = time.perf_counter()
    order = np.argsort(_KEYS, kind="stable")
    counts = np.bincount(_KEYS[order] & 4095, minlength=4096)
    np.cumsum(counts)
    np.add.at(np.zeros(4096), _KEYS & 4095, 1.0)
    return time.perf_counter() - t0
