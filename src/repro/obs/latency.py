"""Per-query latency distributions for the serve layer.

The service reports latency the way production query systems do — tail
percentiles, not means.  Percentiles use the **nearest-rank** method
(ceil(q·N)-th smallest): a member of the sample, no interpolation, so
summaries of a deterministic run are bit-stable and two replays of the
same tape produce byte-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

__all__ = ["percentile_nearest_rank", "LatencySummary"]


def percentile_nearest_rank(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0 < q <= 100) by the nearest-rank method."""
    if not 0.0 < q <= 100.0:
        raise ValueError("percentile must be in (0, 100]")
    if len(values) == 0:
        raise ValueError("no values to take a percentile of")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


@dataclass(frozen=True)
class LatencySummary:
    """p50/p95/p99 + extremes of one latency sample, in seconds."""

    count: int
    p50: float
    p95: float
    p99: float
    min: float
    max: float
    mean: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "LatencySummary":
        if len(values) == 0:
            return cls(count=0, p50=0.0, p95=0.0, p99=0.0,
                       min=0.0, max=0.0, mean=0.0)
        ordered = sorted(float(v) for v in values)
        # Left to right in plain float adds, as builtin ``sum`` did before
        # Python 3.12 compensated it: the mean's bits are the same on
        # every interpreter.
        total = 0.0
        for value in ordered:
            total += value
        return cls(
            count=len(ordered),
            p50=percentile_nearest_rank(ordered, 50),
            p95=percentile_nearest_rank(ordered, 95),
            p99=percentile_nearest_rank(ordered, 99),
            min=ordered[0],
            max=ordered[-1],
            mean=total / len(ordered),
        )

    def as_dict(self) -> dict:
        """Microsecond-rounded dict (stable for JSON round-tripping)."""
        return {
            "count": self.count,
            "p50_us": round(self.p50 * 1e6, 3),
            "p95_us": round(self.p95 * 1e6, 3),
            "p99_us": round(self.p99 * 1e6, 3),
            "min_us": round(self.min * 1e6, 3),
            "max_us": round(self.max * 1e6, 3),
            "mean_us": round(self.mean * 1e6, 3),
        }

    def prometheus_lines(self, name: str, labels: str = "") -> List[str]:
        """Render as a Prometheus summary family (quantile labels)."""
        lab = labels + "," if labels else ""
        return [
            f"# TYPE {name} summary",
            f'{name}{{{lab}quantile="0.5"}} {self.p50!r}',
            f'{name}{{{lab}quantile="0.95"}} {self.p95!r}',
            f'{name}{{{lab}quantile="0.99"}} {self.p99!r}',
            f"# TYPE {name}_count counter",
            f"{name}_count{{{labels}}} {self.count}" if labels
            else f"{name}_count {self.count}",
        ]
