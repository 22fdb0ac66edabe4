"""The vertex-program abstraction the engines execute.

A vertex program supplies per-host NumPy state and five hooks the BSP
engine calls each round.  Labels live per *proxy* (local id); the engine
owns dirty-tracking, message construction, and sync-pattern selection, so
programs only describe local semantics:

* ``compute``     — apply the operator along local edges from active
  sources; return which local nodes were written plus work counts.
* ``reduce_values`` / ``apply_reduce`` — what a mirror ships to its
  master and how the master combines it (min or add).
* ``post_reduce`` — master-side per-round step after all reduces landed
  (PageRank's damping update; identity for the min programs).
* ``bcast_values`` / ``apply_bcast`` — what a master ships to mirrors and
  how the mirror installs it.

All state arrays are float64/int64 and the wire field is 8 bytes, like
the single-label graph applications in the paper's evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.graph.csr import CsrGraph
from repro.graph.partition.proxies import LocalGraph

__all__ = [
    "ComputeResult", "VertexProgram", "min_relax", "scatter_min",
    "apply_min", "sorted_unique", "at_columns",
]


@dataclass
class ComputeResult:
    """What one local compute phase did."""

    #: Local ids written (label possibly changed) by this phase.
    updated: np.ndarray
    #: Edges relaxed (drives the compute-time model).
    work_edges: int
    #: Active nodes visited.
    work_nodes: int


class VertexProgram:
    """Base class; subclasses are the paper's four applications."""

    #: Program name, e.g. "bfs".
    name: str = "abstract"
    #: Wire bytes per communicated label.
    field_bytes: int = 8
    #: "min" or "add" — the reduce combining operator.
    reduce_op: str = "min"
    #: Whether edges must carry weights (sssp).
    needs_weights: bool = False
    #: Whether the input must be symmetrized before partitioning (cc).
    needs_symmetric: bool = False
    #: Hard round cap (None = run to quiescence).
    max_rounds: Optional[int] = None
    #: True when the value written by compute/apply_reduce *is* the value
    #: broadcast (the min programs' label).  False for PageRank, where
    #: compute writes partial sums and only post_reduce changes the
    #: broadcast field (contrib).  Drives the engine's dirty tracking.
    label_is_broadcast_field: bool = True
    #: True when incoming sync blobs must be *applied* in a canonical
    #: order (sorted by source host) instead of arrival order.  Needed by
    #: floating-point add-reduce programs whose results must be
    #: bit-reproducible across schedules (the serve layer's batched
    #: personalized PageRank): float addition is not associative, so the
    #: apply order changes the result bits.  The engine still *charges*
    #: scatter costs at arrival time — this reorders values only, never
    #: simulated time.
    ordered_scatter: bool = False

    # ------------------------------------------------------------------
    def init_state(self, lg: LocalGraph, graph: CsrGraph) -> Dict[str, np.ndarray]:
        """Per-host state arrays over local ids (masters then mirrors)."""
        raise NotImplementedError

    def initial_active(self, lg: LocalGraph, state) -> np.ndarray:
        """Boolean mask over local ids: active in round 0."""
        raise NotImplementedError

    def compute(self, lg: LocalGraph, state, active: np.ndarray) -> ComputeResult:
        raise NotImplementedError

    # -- reduce pattern --------------------------------------------------
    def reduce_values(self, state, ids: np.ndarray) -> np.ndarray:
        """Values mirrors ship to masters for local ids ``ids``."""
        raise NotImplementedError

    def apply_reduce(self, state, ids: np.ndarray,
                     values: np.ndarray) -> Optional[np.ndarray]:
        """Combine mirror values into masters.  Returns the changed mask,
        aligned with ``ids``, which the engine reads only when
        ``label_is_broadcast_field``: those masters broadcast this round.
        Other programs return ``None``."""
        raise NotImplementedError

    def reset_after_reduce_send(self, state, ids: np.ndarray) -> None:
        """Clear shipped accumulators on the mirror side (add-style)."""

    def post_reduce(self, lg: LocalGraph, state) -> np.ndarray:
        """Master-side round step; returns local ids of changed masters
        *beyond* those already reported by apply_reduce (default none)."""
        return np.empty(0, dtype=np.int64)

    # -- broadcast pattern ------------------------------------------------
    def bcast_values(self, state, ids: np.ndarray) -> np.ndarray:
        """Values masters ship to mirrors."""
        raise NotImplementedError

    def apply_bcast(self, state, ids: np.ndarray,
                    values: np.ndarray) -> Optional[np.ndarray]:
        """Install master values at mirrors.  The engine never reads what
        it returns (the min programs reuse ``apply_reduce`` here)."""
        raise NotImplementedError

    # -- activeness / termination ------------------------------------------
    def next_active(self, lg: LocalGraph, state) -> np.ndarray:
        """Active mask for the next round (engine calls after sync)."""
        raise NotImplementedError

    def local_quiescent_metric(self, lg: LocalGraph, state, active) -> float:
        """Summed across hosts; 0 means the program terminates."""
        return float(np.count_nonzero(active))

    # ------------------------------------------------------------------
    def extract_masters(self, lg: LocalGraph, state) -> np.ndarray:
        """The canonical per-master result used for verification."""
        raise NotImplementedError

    def reference(self, graph: CsrGraph, **kwargs) -> np.ndarray:
        """Single-machine reference solution over the global graph."""
        raise NotImplementedError


def sorted_unique(ids: np.ndarray, bound: int) -> np.ndarray:
    """The distinct values of ``ids`` (all in ``[0, bound)``), ascending.

    A bitmap sieve: mark, then read the marks back in order — no sort
    and no hash, and the same int64 array ``np.unique(ids)`` returns.
    """
    seen = np.zeros(bound, dtype=bool)
    seen[ids] = True
    return np.flatnonzero(seen)


def at_columns(op: np.ufunc, target: np.ndarray, ids: np.ndarray,
               values: np.ndarray) -> None:
    """``op.at(target, ids, values)`` for a 1-D or an ``(n, K)`` target;
    a 2-D target takes one 1-D ``op.at`` per column (NumPy's fast
    ``ufunc.at`` is 1-D only).

    ``ids`` may repeat.  Each column combines its values in the element
    order the 2-D call uses, so float columns keep their bits.
    """
    if target.ndim == 1:
        op.at(target, ids, values)
        return
    for col in range(target.shape[1]):
        op.at(target[:, col], ids, values[:, col])


def _any_column(lowered: np.ndarray) -> np.ndarray:
    return lowered if lowered.ndim == 1 else lowered.any(axis=1)


def apply_min(label: np.ndarray, ids: np.ndarray,
              values: np.ndarray) -> np.ndarray:
    """The min programs' ``apply_reduce`` / ``apply_bcast``: scatter-min
    ``values`` into rows ``ids`` of a 1-D or ``(n, K)`` label.

    ``ids`` may repeat (``ufunc.at`` semantics).  Returns a mask aligned
    with ``ids``: true where that row now holds a lower label, in any
    column, than it did before the blob.
    """
    before = label[ids]
    at_columns(np.minimum, label, ids, values)
    return _any_column(label[ids] < before)


def scatter_min(label: np.ndarray, dst: np.ndarray,
                cand: np.ndarray) -> np.ndarray:
    """Scatter-min ``cand`` into a 1-D or ``(n, K)`` label at ``dst``;
    return the ascending int64 ids whose label fell, in any column.

    Targets repeat (several sources reach one node), so the scatter keeps
    ``ufunc.at`` semantics.  Only the scatter lowers a label, and only at
    ``dst``, so the rows below a snapshot of the node array are exactly
    the distinct lowered targets: one compare per node instead of a
    gather, compare and dedup per edge.
    """
    before = label.copy()
    at_columns(np.minimum, label, dst, cand)
    return np.flatnonzero(_any_column(label < before))


def min_relax(
    lg: LocalGraph,
    label: np.ndarray,
    active: np.ndarray,
    cand_fn,
) -> ComputeResult:
    """Shared kernel for the label-minimizing programs (bfs/sssp/cc and
    their multi-source batches).

    Relaxes every out-edge of every active local source: candidate values
    from ``cand_fn(src_ids, edge_sel)`` are scatter-min'd into the
    targets (:func:`scatter_min`).  Vectorized: the per-edge selection
    uses ``np.repeat`` over the CSR degree array — no Python loop over
    nodes or edges.

    ``label`` is 1-D, or ``(num_local, K)`` with one column per
    concurrently running query; then ``active`` is the **merged
    frontier**, the union of the per-column frontiers, ``cand_fn``
    returns an ``(E, K)`` matrix, and an edge counts as K relaxations.
    Each column converges to what a 1-D run of its own reaches: relaxing
    an edge for a column whose source label is the INF sentinel proposes
    ``INF + delta``, which never beats a real label, and min is
    idempotent.
    """
    active_ids = np.where(active)[0]
    if len(active_ids) == 0:
        return ComputeResult(np.empty(0, dtype=np.int64), 0, 0)
    degs = np.diff(lg.indptr)
    edge_sel = np.repeat(active, degs)
    dst = lg.indices[edge_sel]
    if len(dst) == 0:
        return ComputeResult(
            np.empty(0, dtype=np.int64), 0, len(active_ids)
        )
    src = np.repeat(active_ids, degs[active_ids])
    updated = scatter_min(label, dst, cand_fn(src, edge_sel))
    columns = 1 if label.ndim == 1 else label.shape[1]
    return ComputeResult(
        updated, int(len(dst)) * columns, int(len(active_ids))
    )
