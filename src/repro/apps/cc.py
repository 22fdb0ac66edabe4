"""Connected components by label propagation.

Every node starts with its own id; labels propagate by min along edges
until quiescent.  Components are defined on the *undirected* structure,
so the program requires a symmetrized input (``needs_symmetric`` — the
harness adds reverse edges before partitioning, as Galois and Gemini do
for their cc benchmarks).
"""

from __future__ import annotations

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

__all__ = ["ConnectedComponents"]


class ConnectedComponents(VertexProgram):
    name = "cc"
    reduce_op = "min"
    needs_symmetric = True

    def init_state(self, lg: LocalGraph, graph: CsrGraph) -> Dict[str, np.ndarray]:
        label = lg.global_ids.astype(np.int64).copy()
        return {
            "label": label,
            "last": np.full(lg.num_local, INF, dtype=np.int64),
        }

    def initial_active(self, lg: LocalGraph, state) -> np.ndarray:
        # Everyone starts active (own label < INF sentinel).
        return state["label"] < state["last"]

    def compute(self, lg: LocalGraph, state, active: np.ndarray) -> ComputeResult:
        label = state["label"]
        state["last"][active] = label[active]

        def cand_fn(src_ids, _edge_sel):
            return label[src_ids]

        return min_relax(lg, label, active, cand_fn)

    # -- sync hooks -------------------------------------------------------
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

    # -- reference ----------------------------------------------------------
    def reference(self, graph: CsrGraph, **kwargs) -> np.ndarray:
        """Components via scipy; labels canonicalized to min node id."""
        # Imported here: the reference solver is the package's only use
        # of scipy, and no run should pay to load it.
        import scipy.sparse as sp
        import scipy.sparse.csgraph  # noqa: F401  (binds sp.csgraph)

        n = graph.num_nodes
        src, dst = graph.edges()
        mat = sp.coo_matrix(
            (np.ones(len(src)), (src, dst)), shape=(n, n)
        )
        _ncomp, comp = sp.csgraph.connected_components(
            mat, directed=False, return_labels=True
        )
        # canonical representative = min global id in the component
        reps = np.full(comp.max() + 1, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(reps, comp, np.arange(n, dtype=np.int64))
        return reps[comp]
