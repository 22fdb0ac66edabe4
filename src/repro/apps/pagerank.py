"""PageRank as a topology-driven vertex program with residual cut-off.

Round structure on the partitioned graph:

1. **compute** — every local edge (u, v) accumulates ``contrib[u]`` into
   ``partial[v]`` (vectorized ``np.add.at``), where ``contrib`` is the
   canonical ``rank/out_degree`` installed by the previous broadcast.
2. **reduce (add)** — destination mirrors ship their nonzero partials to
   the masters, which sum them; shipped mirror partials reset to zero.
3. **post_reduce** — masters apply the damping update
   ``rank' = (1-d)/N + d * partial`` and refresh their ``contrib``.
4. **broadcast** — masters with materially changed rank ship the new
   ``contrib`` to their source mirrors.

The paper runs PageRank "up to 100 iterations"; ``max_rounds``
reproduces that cap, and ``tol`` stops earlier once every master's rank
moves less than the tolerance.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.engine.vertex_program import ComputeResult, VertexProgram
from repro.graph.csr import CsrGraph
from repro.graph.partition.proxies import LocalGraph

__all__ = ["PageRank"]


class PageRank(VertexProgram):
    name = "pagerank"
    reduce_op = "add"
    label_is_broadcast_field = False  # compute writes partials, not contrib

    def __init__(self, damping: float = 0.85, max_rounds: int = 100,
                 tol: float = 1e-9):
        self.damping = damping
        self.max_rounds = max_rounds
        self.tol = tol
        self._num_nodes = None

    def init_state(self, lg: LocalGraph, graph: CsrGraph) -> Dict[str, np.ndarray]:
        self._num_nodes = graph.num_nodes
        n = graph.num_nodes
        outdeg = np.diff(graph.indptr)[lg.global_ids].astype(np.float64)
        safe = np.maximum(outdeg, 1.0)
        # Only masters read ``rank`` and ``outdeg`` after this: a mirror's
        # contrib arrives by broadcast from here on.
        return {
            "rank": np.full(lg.num_masters, 1.0 / n, dtype=np.float64),
            "outdeg": outdeg[: lg.num_masters].copy(),
            "contrib": np.where(outdeg > 0, (1.0 / n) / safe, 0.0),
            "partial": np.zeros(lg.num_local, dtype=np.float64),
            "active": np.ones(lg.num_local, dtype=bool),
        }

    def initial_active(self, lg: LocalGraph, state) -> np.ndarray:
        return state["active"].copy()

    def compute(self, lg: LocalGraph, state, active: np.ndarray) -> ComputeResult:
        if lg.num_edges == 0:
            return ComputeResult(np.empty(0, dtype=np.int64), 0, lg.num_local)
        # partial is provably all-zero here (masters reset in post_reduce,
        # shipped mirrors in reset_after_reduce_send, and every position
        # the edge scan touches is shipped), and ``np.add.at`` adds each
        # edge's contribution in edge order, so every bin holds the same
        # float sum a bincount of the edge list gives.  ``contrib`` is
        # expanded per edge by degree (edges are grouped by source), and
        # the frozen ``lg.indices`` is read in place.  The touched set is
        # the static edge-target set.
        np.add.at(state["partial"], lg.indices,
                  np.repeat(state["contrib"], np.diff(lg.indptr)))
        return ComputeResult(np.flatnonzero(lg.is_edge_dst), lg.num_edges,
                             lg.num_local)

    # -- reduce (add) -----------------------------------------------------
    def reduce_values(self, state, ids):
        return state["partial"][ids]

    def apply_reduce(self, state, ids, values):
        # ids within one blob are unique (np.where output), so the fancy
        # in-place add is exactly np.add.at, without its per-element loop.
        state["partial"][ids] += values

    def reset_after_reduce_send(self, state, ids) -> None:
        state["partial"][ids] = 0.0

    def post_reduce(self, lg: LocalGraph, state) -> np.ndarray:
        n = self._num_nodes
        masters = slice(0, lg.num_masters)
        partial = state["partial"]
        new_rank = (1.0 - self.damping) / n + self.damping * partial[masters]
        changed = np.abs(new_rank - state["rank"]) > self.tol
        state["rank"] = new_rank
        outdeg = state["outdeg"]
        safe = np.maximum(outdeg, 1.0)
        state["contrib"][masters] = np.where(outdeg > 0, new_rank / safe, 0.0)
        partial[masters] = 0.0
        state["active"][masters] = changed
        return np.where(changed)[0].astype(np.int64)

    # -- broadcast ----------------------------------------------------------
    def bcast_values(self, state, ids):
        return state["contrib"][ids]

    def apply_bcast(self, state, ids, values):
        state["contrib"][ids] = values

    def next_active(self, lg: LocalGraph, state) -> np.ndarray:
        # Topology-driven: rounds continue while any master anywhere moved
        # more than tol (the engine sums the quiescence metric globally).
        active = np.zeros(lg.num_local, dtype=bool)
        active[: lg.num_masters] = state["active"][: lg.num_masters]
        # Mirrors of still-moving masters keep contributing; since the
        # compute phase is edge-driven over all local edges, activeness
        # here only steers termination, not work selection.
        return active

    def local_quiescent_metric(self, lg, state, active) -> float:
        return float(np.count_nonzero(active[: lg.num_masters]))

    def extract_masters(self, lg: LocalGraph, state) -> np.ndarray:
        return state["rank"]

    # -- reference ------------------------------------------------------------
    def reference(self, graph: CsrGraph, rounds: int = None, **kwargs) -> np.ndarray:
        """Power iteration with the same damping/round cap/tolerance."""
        n = graph.num_nodes
        rounds = rounds if rounds is not None else self.max_rounds
        rank = np.full(n, 1.0 / n)
        outdeg = np.diff(graph.indptr).astype(np.float64)
        safe = np.maximum(outdeg, 1.0)
        src = graph.edge_sources()
        dst = graph.indices
        for _ in range(rounds):
            contrib = np.where(outdeg > 0, rank / safe, 0.0)
            partial = np.zeros(n)
            np.add.at(partial, dst, contrib[src])
            new_rank = (1.0 - self.damping) / n + self.damping * partial
            if np.max(np.abs(new_rank - rank)) <= self.tol:
                rank = new_rank
                break
            rank = new_rank
        return rank
