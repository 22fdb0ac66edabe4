"""k-core decomposition as a data-driven vertex program (extension).

The k-core of a graph is the maximal subgraph in which every node has
degree >= k.  The classic peeling algorithm repeatedly removes nodes of
degree < k; distributed, it becomes a vertex program with a different
flavour from the paper's four benchmarks — an *add*-reduce carrying
removal counts plus a *death flag* broadcast — which exercises the
runtime's generality ("LCI can be used as a communication runtime
plug-in", Section IV-B):

* **compute** — every newly-dead proxy charges one removal to each of
  its local out-neighbours (``np.add.at`` on the removal accumulator);
* **reduce (add)** — destination mirrors ship removal counts to masters;
* **post_reduce** — masters apply the decrements; survivors falling
  below ``k`` die and are queued for propagation;
* **broadcast** — death flags flow to source mirrors so remote edge
  owners relay the removals next round.

Runs on the symmetrized graph (cores are an undirected notion).  The
reference implementation peels sequentially.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.engine.vertex_program import (
    ComputeResult,
    VertexProgram,
    sorted_unique,
)
from repro.graph.csr import CsrGraph
from repro.graph.partition.proxies import LocalGraph

__all__ = ["KCore"]


class KCore(VertexProgram):
    name = "kcore"
    reduce_op = "add"
    needs_symmetric = True
    label_is_broadcast_field = False  # compute writes removal counts

    def __init__(self, k: int = 3):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k

    def init_state(self, lg: LocalGraph, graph: CsrGraph) -> Dict[str, np.ndarray]:
        degree = np.diff(graph.indptr)[lg.global_ids].astype(np.int64)
        return {
            "degree": degree,
            "alive": np.ones(lg.num_local, dtype=bool),
            #: Dead but its local out-edges not yet charged to neighbours.
            "dead_pending": np.zeros(lg.num_local, dtype=bool),
            "removals": np.zeros(lg.num_local, dtype=np.int64),
        }

    def initial_active(self, lg: LocalGraph, state) -> np.ndarray:
        # Round 0 is a bootstrap: no deaths are pending yet; the first
        # post_reduce kills every master whose initial degree < k.
        return np.zeros(lg.num_local, dtype=bool)

    def compute(self, lg: LocalGraph, state, active: np.ndarray) -> ComputeResult:
        pending = state["dead_pending"]
        srcs_pending = np.where(pending)[0]
        if len(srcs_pending) == 0:
            return ComputeResult(np.empty(0, dtype=np.int64), 0, 0)
        degs = np.diff(lg.indptr)
        edge_sel = np.repeat(pending, degs)
        dst = lg.indices[edge_sel]
        pending[srcs_pending] = False
        if len(dst) == 0:
            return ComputeResult(
                np.empty(0, dtype=np.int64), 0, len(srcs_pending)
            )
        np.add.at(state["removals"], dst, 1)
        return ComputeResult(
            sorted_unique(dst, lg.num_local), int(len(dst)),
            int(len(srcs_pending)),
        )

    # -- reduce (add) ------------------------------------------------------
    def reduce_values(self, state, ids):
        return state["removals"][ids]

    def apply_reduce(self, state, ids, values):
        np.add.at(state["removals"], ids, values.astype(np.int64))

    def reset_after_reduce_send(self, state, ids) -> None:
        state["removals"][ids] = 0

    def post_reduce(self, lg: LocalGraph, state) -> np.ndarray:
        masters = slice(0, lg.num_masters)
        degree = state["degree"]
        alive = state["alive"]
        removals = state["removals"]
        degree[masters] -= removals[masters]
        removals[masters] = 0
        newly_dead = np.where(
            alive[masters] & (degree[masters] < self.k)
        )[0].astype(np.int64)
        alive[newly_dead] = False
        state["dead_pending"][newly_dead] = True
        return newly_dead

    # -- broadcast: death flags -------------------------------------------
    def bcast_values(self, state, ids):
        return state["alive"][ids].astype(np.int64)

    def apply_bcast(self, state, ids, values):
        alive = state["alive"]
        newly = alive[ids] & (values == 0)
        sel = ids[newly]
        alive[sel] = False
        state["dead_pending"][sel] = True
        return newly

    # -- termination ---------------------------------------------------------
    def next_active(self, lg: LocalGraph, state) -> np.ndarray:
        return state["dead_pending"].copy()

    def extract_masters(self, lg: LocalGraph, state) -> np.ndarray:
        return state["alive"][: lg.num_masters].astype(np.int64)

    # -- reference -------------------------------------------------------------
    def reference(self, graph: CsrGraph, **kwargs) -> np.ndarray:
        """Sequential peeling on the (symmetric) graph; 1 = in k-core."""
        degree = np.diff(graph.indptr).astype(np.int64)
        alive = np.ones(graph.num_nodes, dtype=bool)
        frontier = list(np.where(degree < self.k)[0])
        alive[degree < self.k] = False
        while frontier:
            u = frontier.pop()
            for v in graph.neighbors(u):
                if alive[v]:
                    degree[v] -= 1
                    if degree[v] < self.k:
                        alive[v] = False
                        frontier.append(int(v))
        return alive.astype(np.int64)
