"""Measurement utilities: peak trackers, time series, geometric mean.

The paper's evaluation reports execution times (Figs 3, 4, 6; Tables II,
IV), communication-buffer memory footprints (Fig 5), and latency/rate
microbenchmarks (Fig 1).  :class:`PeakTracker` is the Fig. 5 footprint
the comm layers write into; :class:`TimeSeries` holds the observability
sampler's probe readings.  Plain event counts are not kept here: each
component counts in ``int`` attributes of its own, read at export.
"""

from __future__ import annotations

import math
from typing import List, Tuple

__all__ = [
    "PeakTracker",
    "TimeSeries",
    "geometric_mean",
]


def geometric_mean(values) -> float:
    """Geometric mean; the paper's headline speedups are geomeans."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("geometric_mean of empty sequence")
    if any(v <= 0 for v in vals):
        raise ValueError("geometric_mean requires positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


class PeakTracker:
    """Tracks a level that rises and falls, remembering its maximum.

    Used for the working set of communication buffers (Fig 5): allocations
    call :meth:`add`, frees call :meth:`sub`, and ``peak`` is the footprint.
    """

    __slots__ = ("name", "current", "peak", "total_added")

    def __init__(self, name: str = ""):
        self.name = name
        self.current = 0
        self.peak = 0
        self.total_added = 0

    def add(self, amount: int) -> None:
        if amount < 0:
            raise ValueError("use sub() to decrease")
        self.current += amount
        self.total_added += amount
        if self.current > self.peak:
            self.peak = self.current

    def sub(self, amount: int) -> None:
        if amount < 0:
            raise ValueError("sub() takes a non-negative amount")
        self.current -= amount
        if self.current < 0:
            raise ValueError(
                f"PeakTracker {self.name!r} went negative ({self.current})"
            )

    def __repr__(self) -> str:
        return f"PeakTracker({self.name!r}, cur={self.current}, peak={self.peak})"


class TimeSeries:
    """(time, value) samples, e.g. per-iteration compute/comm breakdowns."""

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str = ""):
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def record(self, time: float, value: float) -> None:
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return sum(self.values)

    @property
    def mean(self) -> float:
        if not self.values:
            raise ValueError(f"TimeSeries {self.name!r} is empty")
        return self.total / len(self.values)

    @property
    def max(self) -> float:
        return max(self.values)

    def items(self) -> List[Tuple[float, float]]:
        return list(zip(self.times, self.values))
