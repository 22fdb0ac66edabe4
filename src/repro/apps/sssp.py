"""Single-source shortest path (Bellman-Ford-style data-driven relaxation).

Label = tentative distance; the operator relaxes
``dist[v] = min(dist[v], dist[u] + w(u, v))`` along out-edges of active
nodes.  Requires weighted edges.
"""

from __future__ import annotations

import heapq
from typing import Dict

import numpy as np

from repro.apps.bfs import INF
from repro.engine.vertex_program import (
    ComputeResult,
    VertexProgram,
    apply_min,
    min_relax,
)
from repro.graph.csr import CsrGraph
from repro.graph.partition.proxies import LocalGraph

__all__ = ["Sssp"]


class Sssp(VertexProgram):
    name = "sssp"
    reduce_op = "min"
    needs_weights = True

    def __init__(self, source: int = 0):
        self.source = source

    def init_state(self, lg: LocalGraph, graph: CsrGraph) -> Dict[str, np.ndarray]:
        if lg.edge_data is None:
            raise ValueError("sssp requires a weighted graph")
        dist = np.full(lg.num_local, INF, dtype=np.int64)
        dist[lg.global_ids == self.source] = 0
        return {
            "label": dist,
            "last": np.full(lg.num_local, INF, dtype=np.int64),
        }

    def initial_active(self, lg: LocalGraph, state) -> np.ndarray:
        return state["label"] < state["last"]

    def compute(self, lg: LocalGraph, state, active: np.ndarray) -> ComputeResult:
        label = state["label"]
        state["last"][active] = label[active]
        weights = lg.edge_data

        def cand_fn(src_ids, edge_sel):
            return label[src_ids] + weights[edge_sel]

        return min_relax(lg, label, active, cand_fn)

    # -- sync hooks (identical shape to BFS: min over an int64 label) ----
    def reduce_values(self, state, ids):
        return state["label"][ids]

    def apply_reduce(self, state, ids, values):
        return apply_min(state["label"], ids, values)

    bcast_values = reduce_values
    apply_bcast = apply_reduce

    def next_active(self, lg: LocalGraph, state) -> np.ndarray:
        return state["label"] < state["last"]

    def extract_masters(self, lg: LocalGraph, state) -> np.ndarray:
        return state["label"][: lg.num_masters]

    # -- reference --------------------------------------------------------
    def reference(self, graph: CsrGraph, **kwargs) -> np.ndarray:
        """Dijkstra from ``self.source`` (non-negative weights)."""
        if graph.edge_data is None:
            raise ValueError("sssp reference requires weights")
        dist = np.full(graph.num_nodes, INF, dtype=np.int64)
        dist[self.source] = 0
        heap = [(0, self.source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            lo, hi = graph.indptr[u], graph.indptr[u + 1]
            for v, w in zip(graph.indices[lo:hi], graph.edge_data[lo:hi]):
                nd = d + int(w)
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return dist
