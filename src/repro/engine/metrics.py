"""Run metrics: what the benchmark harness reads after an engine run.

The paper reports (a) total execution time excluding graph construction
(Figs 3-4, Tables II/IV), (b) per-iteration computation vs. non-overlapped
communication, max'd across hosts and summed over iterations (Fig 6), and
(c) communication-buffer memory footprints, max/min across hosts (Fig 5).
:class:`RunMetrics` carries all three plus layer statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["RunMetrics"]


@dataclass
class RunMetrics:
    """Everything measured during one engine run."""

    app: str
    graph: str
    layer: str
    num_hosts: int
    policy: str
    #: Simulated seconds from first round start to termination
    #: (setup/window creation excluded, as the paper does for MPI-RMA).
    total_seconds: float = 0.0
    #: Window-creation / layer-setup seconds (reported separately).
    setup_seconds: float = 0.0
    rounds: int = 0
    #: Per-iteration computation time: max across hosts each iteration.
    compute_per_round: List[float] = field(default_factory=list)
    #: Per-iteration non-overlapped communication time (max across hosts).
    comm_per_round: List[float] = field(default_factory=list)
    #: Per-host peak communication-buffer bytes (Fig 5).
    footprint_per_host: List[int] = field(default_factory=list)
    #: Total blobs/bytes moved (sanity / volume accounting).
    blobs_sent: int = 0
    payload_bytes_sent: int = 0
    #: Total label updates shipped across all sync messages — Abelian's
    #: "only the updated labels" volume optimization is visible here.
    updates_shipped: int = 0
    #: Host wall-clock seconds the run took.  The engine itself NEVER
    #: stamps this (it would break the bit-identical guarantee for
    #: profiled runs); callers that care (``repro run``, the serve
    #: layer, ``repro bench-core``) stamp it after ``run()`` returns
    #: via :meth:`stamp_wall`.  ``0.0`` means "not measured".
    wall_seconds: float = 0.0
    #: Free-form layer counters aggregated across hosts (includes the
    #: recovery-protocol counters: retransmissions, acks, dup drops).
    layer_counters: Dict[str, int] = field(default_factory=dict)
    #: Faults injected during the run (empty when no plan was installed):
    #: drops, duplicates, reorders, stalls, dilations.
    fault_counts: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def compute_seconds(self) -> float:
        """Sum over iterations of the per-iteration max compute time."""
        return float(sum(self.compute_per_round))

    @property
    def comm_seconds(self) -> float:
        """Non-overlapped communication time, the paper's definition:
        total execution time minus the computation time ("the rest of
        the execution time is the non-overlapped communication time").
        ``comm_per_round`` holds the per-round measurements directly."""
        return max(0.0, self.total_seconds - self.compute_seconds)

    @property
    def max_footprint(self) -> int:
        return max(self.footprint_per_host) if self.footprint_per_host else 0

    @property
    def min_footprint(self) -> int:
        return min(self.footprint_per_host) if self.footprint_per_host else 0

    def stamp_wall(self, seconds: float) -> "RunMetrics":
        """Record host wall-clock time, caller-side (chainable).

        Kept out of the engine on purpose: wall-clock is machine noise,
        so the deterministic fields must never depend on whether it was
        measured.
        """
        self.wall_seconds = float(seconds)
        return self

    def row(self, include_wall: bool = False) -> dict:
        """Flat dict for table rendering.

        ``wall_s`` is excluded by default so every table the CLI prints
        stays byte-identical across repeat runs (the repo's stdout
        determinism probe); surfaces whose subject *is* wall-clock
        (``repro profile``) pass ``include_wall=True``.
        """
        out = {
            "app": self.app,
            "graph": self.graph,
            "layer": self.layer,
            "hosts": self.num_hosts,
            "policy": self.policy,
            "time_s": round(self.total_seconds, 6),
            "compute_s": round(self.compute_seconds, 6),
            "comm_s": round(self.comm_seconds, 6),
            "setup_s": round(self.setup_seconds, 6),
            "rounds": self.rounds,
            "blobs_sent": self.blobs_sent,
            "updates_shipped": self.updates_shipped,
            "mem_max_MB": round(self.max_footprint / 2**20, 3),
            "mem_min_MB": round(self.min_footprint / 2**20, 3),
        }
        if include_wall:
            out["wall_s"] = round(self.wall_seconds, 6)
        return out
