"""Batched multi-source vertex programs (frontier merging).

The serve scheduler coalesces concurrent same-kind queries into **one**
BSP execution: a batch of K sources runs as a single vertex program
whose label is a ``(num_local, K)`` matrix — one column per query — and
whose active frontier is the *union* of the per-column frontiers.  A
batch therefore shares one edge traversal per round, one round/barrier
structure, and one set of sync messages (K values ride per updated
node), which is where the service's throughput comes from.

Equivalence contract (asserted in ``tests/test_serve.py``): each
column's final answer is **bit-identical** to running that query alone.

* For the min programs (:class:`MultiSourceBfs`,
  :class:`MultiSourceSssp`) this holds structurally: integer labels,
  min is idempotent/commutative, and the engine runs to quiescence, so
  every column reaches the same unique fixed point regardless of which
  other columns share the frontier.
* For :class:`MultiSourcePageRank` (personalized PageRank) the labels
  are floats, so the program (a) runs a **fixed** number of rounds —
  every column does exactly the same update sequence whether batched or
  alone — and (b) sets ``ordered_scatter`` so the engine applies
  incoming add-reduce blobs in source-host order instead of arrival
  order (float addition is not associative; arrival order differs
  between batchings because message sizes differ).

k-core has no multi-source variant: one :class:`repro.apps.KCore` run
answers membership for *every* vertex, so the scheduler batches
same-``k`` queries onto a single execution of the existing program.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.apps.bfs import INF, Bfs
from repro.apps.sssp import Sssp
from repro.engine.vertex_program import (
    ComputeResult,
    VertexProgram,
    apply_min,
    at_columns,
    min_relax,
)
from repro.graph.csr import CsrGraph
from repro.graph.partition.proxies import LocalGraph

__all__ = [
    "MultiSourceBfs",
    "MultiSourceSssp",
    "MultiSourcePageRank",
    "make_batched_program",
]


class _MultiSourceMin(VertexProgram):
    """Shared shell of the multi-source min programs (bfs/sssp)."""

    reduce_op = "min"

    def __init__(self, sources: Sequence[int]):
        if len(sources) == 0:
            raise ValueError("a batch needs at least one source")
        self.sources = tuple(int(s) for s in sources)
        self.num_sources = len(self.sources)

    def init_state(self, lg: LocalGraph, graph: CsrGraph) -> Dict[str, np.ndarray]:
        label = np.full((lg.num_local, self.num_sources), INF, dtype=np.int64)
        for col, src in enumerate(self.sources):
            label[lg.global_ids == src, col] = 0
        return {
            "label": label,
            "last": np.full_like(label, INF),
        }

    def initial_active(self, lg: LocalGraph, state) -> np.ndarray:
        return np.any(state["label"] < state["last"], axis=1)

    # -- sync hooks (min over int64 rows, any-column change masks) -------
    def reduce_values(self, state, ids):
        return state["label"][ids]

    def apply_reduce(self, state, ids, values):
        return apply_min(state["label"], ids, values)

    bcast_values = reduce_values
    apply_bcast = apply_reduce

    def next_active(self, lg: LocalGraph, state) -> np.ndarray:
        return np.any(state["label"] < state["last"], axis=1)

    def extract_masters(self, lg: LocalGraph, state) -> np.ndarray:
        return state["label"][: lg.num_masters]


class MultiSourceBfs(_MultiSourceMin):
    """K concurrent BFS traversals over one merged frontier."""

    name = "bfs-multi"

    #: Wire bytes per communicated row: one 8-byte label per column.
    @property
    def field_bytes(self) -> int:
        return 8 * self.num_sources

    def compute(self, lg: LocalGraph, state, active: np.ndarray) -> ComputeResult:
        label = state["label"]
        state["last"][active] = label[active]

        def cand_fn(src_ids, _edge_sel):
            return label[src_ids] + 1

        return min_relax(lg, label, active, cand_fn)

    def reference(self, graph: CsrGraph, **kwargs) -> np.ndarray:
        cols = [Bfs(source=s).reference(graph) for s in self.sources]
        return np.stack(cols, axis=1)


class MultiSourceSssp(_MultiSourceMin):
    """K concurrent shortest-path relaxations over one merged frontier."""

    name = "sssp-multi"
    needs_weights = True

    @property
    def field_bytes(self) -> int:
        return 8 * self.num_sources

    def compute(self, lg: LocalGraph, state, active: np.ndarray) -> ComputeResult:
        label = state["label"]
        state["last"][active] = label[active]
        weights = lg.edge_data

        def cand_fn(src_ids, edge_sel):
            return label[src_ids] + weights[edge_sel][:, None]

        return min_relax(lg, label, active, cand_fn)

    def reference(self, graph: CsrGraph, **kwargs) -> np.ndarray:
        cols = [Sssp(source=s).reference(graph) for s in self.sources]
        return np.stack(cols, axis=1)


class MultiSourcePageRank(VertexProgram):
    """K personalized-PageRank columns sharing one edge traversal.

    Personalized PageRank teleports to the *query's* source instead of
    uniformly: ``ppr = (1-d)·e_s + d·Pᵀ·ppr``.  The service runs a
    fixed number of power-iteration rounds (production PPR is typically
    fixed-budget), which — together with ``ordered_scatter`` — makes
    each column's result bit-reproducible across batch compositions.
    """

    name = "ppr-multi"
    reduce_op = "add"
    label_is_broadcast_field = False
    ordered_scatter = True

    def __init__(self, sources: Sequence[int], rounds: int = 10,
                 damping: float = 0.85):
        if len(sources) == 0:
            raise ValueError("a batch needs at least one source")
        if rounds < 1:
            raise ValueError("ppr needs at least one round")
        self.sources = tuple(int(s) for s in sources)
        self.num_sources = len(self.sources)
        self.damping = damping
        self.max_rounds = int(rounds)

    @property
    def field_bytes(self) -> int:
        return 8 * self.num_sources

    def init_state(self, lg: LocalGraph, graph: CsrGraph) -> Dict[str, np.ndarray]:
        K = self.num_sources
        outdeg = np.diff(graph.indptr)[lg.global_ids].astype(np.float64)
        safe = np.maximum(outdeg, 1.0)
        rank = np.zeros((lg.num_local, K), dtype=np.float64)
        for col, src in enumerate(self.sources):
            rank[lg.global_ids == src, col] = 1.0
        contrib = np.where(outdeg[:, None] > 0, rank / safe[:, None], 0.0)
        # Only masters read ``rank``, ``teleport`` and ``outdeg`` after
        # this: a mirror's contrib arrives by broadcast from here on.
        rank = rank[: lg.num_masters].copy()
        return {
            "rank": rank,
            "teleport": np.where(rank > 0, 1.0 - self.damping, 0.0),
            "outdeg": outdeg[: lg.num_masters].copy(),
            "contrib": contrib,
            "partial": np.zeros((lg.num_local, K), dtype=np.float64),
        }

    def initial_active(self, lg: LocalGraph, state) -> np.ndarray:
        return np.ones(lg.num_local, dtype=bool)

    def compute(self, lg: LocalGraph, state, active: np.ndarray) -> ComputeResult:
        if lg.num_edges == 0:
            return ComputeResult(np.empty(0, dtype=np.int64), 0, lg.num_local)
        # Rows of ``contrib`` expanded per edge by degree, as
        # PageRank.compute does; the touched set is the static
        # edge-target set.
        at_columns(np.add, state["partial"], lg.indices,
                   np.repeat(state["contrib"], np.diff(lg.indptr), axis=0))
        return ComputeResult(
            np.flatnonzero(lg.is_edge_dst), lg.num_edges * self.num_sources,
            lg.num_local,
        )

    # -- reduce (add) -----------------------------------------------------
    def reduce_values(self, state, ids):
        return state["partial"][ids]

    def apply_reduce(self, state, ids, values):
        at_columns(np.add, state["partial"], ids, values)

    def reset_after_reduce_send(self, state, ids) -> None:
        state["partial"][ids] = 0.0

    def post_reduce(self, lg: LocalGraph, state) -> np.ndarray:
        masters = slice(0, lg.num_masters)
        partial = state["partial"]
        new_rank = state["teleport"] + self.damping * partial[masters]
        changed = np.any(new_rank != state["rank"], axis=1)
        state["rank"] = new_rank
        outdeg = state["outdeg"]
        safe = np.maximum(outdeg, 1.0)
        state["contrib"][masters] = np.where(
            outdeg[:, None] > 0, new_rank / safe[:, None], 0.0
        )
        partial[masters] = 0.0
        return np.where(changed)[0].astype(np.int64)

    # -- broadcast --------------------------------------------------------
    def bcast_values(self, state, ids):
        return state["contrib"][ids]

    def apply_bcast(self, state, ids, values):
        state["contrib"][ids] = values

    # -- termination: run the full fixed budget ---------------------------
    def next_active(self, lg: LocalGraph, state) -> np.ndarray:
        return np.ones(lg.num_local, dtype=bool)

    def local_quiescent_metric(self, lg, state, active) -> float:
        # Never quiesces on its own: the engine stops at max_rounds, so
        # every column runs the identical fixed iteration budget.
        return 1.0

    def extract_masters(self, lg: LocalGraph, state) -> np.ndarray:
        return state["rank"]

    # -- reference --------------------------------------------------------
    def reference(self, graph: CsrGraph, **kwargs) -> np.ndarray:
        """Fixed-round power iteration per column (allclose comparator:
        global edge order differs from the distributed sum order, so the
        reference matches to float tolerance, not bitwise)."""
        n = graph.num_nodes
        outdeg = np.diff(graph.indptr).astype(np.float64)
        safe = np.maximum(outdeg, 1.0)
        src = graph.edge_sources()
        dst = graph.indices
        rank = np.zeros((n, self.num_sources), dtype=np.float64)
        teleport = np.zeros_like(rank)
        for col, s in enumerate(self.sources):
            rank[s, col] = 1.0
            teleport[s, col] = 1.0 - self.damping
        for _ in range(self.max_rounds):
            contrib = np.where(outdeg[:, None] > 0, rank / safe[:, None], 0.0)
            partial = np.zeros_like(rank)
            np.add.at(partial, dst, contrib[src])
            rank = teleport + self.damping * partial
        return rank


def make_batched_program(kind: str, sources: Sequence[int], *,
                         ppr_rounds: int = 10, ppr_damping: float = 0.85,
                         k: int = 3) -> VertexProgram:
    """Program for one batch: ``kind`` plus the deduplicated sources."""
    if kind == "bfs":
        return MultiSourceBfs(sources)
    if kind == "sssp":
        return MultiSourceSssp(sources)
    if kind == "ppr":
        return MultiSourcePageRank(
            sources, rounds=ppr_rounds, damping=ppr_damping
        )
    if kind == "kcore":
        from repro.apps.kcore import KCore

        return KCore(k=k)
    raise ValueError(f"no batched program for query kind {kind!r}")
