"""Breadth-first search as a data-driven vertex program.

Label = BFS level; operator relaxes ``level[v] = min(level[v],
level[u] + 1)`` along out-edges of active nodes.  Reduce is min;
broadcast installs canonical levels at source mirrors.
"""

from __future__ import annotations

from collections import deque
from typing import Dict

import numpy as np

from repro.engine.vertex_program import (
    ComputeResult,
    VertexProgram,
    apply_min,
    min_relax,
    scatter_min,
)
from repro.graph.csr import CsrGraph
from repro.graph.partition.proxies import LocalGraph

__all__ = ["Bfs", "INF"]

#: "Unreached" sentinel; large but addable without overflow.
INF = np.int64(2**62)


class Bfs(VertexProgram):
    """BFS, optionally direction-optimizing.

    ``direction`` selects the traversal mode per round:

    * ``"push"`` — relax out-edges of the active frontier (data-driven;
      work ∝ frontier out-degree);
    * ``"pull"`` — relax edges *into* still-unreached nodes (topology
      side; work ∝ in-degree of the unexplored set);
    * ``"auto"`` — Gemini/Beamer-style switching: pull while the global
      frontier exceeds ``pull_threshold`` of all nodes, push otherwise.
      The engine publishes the globally-agreed frontier size after each
      round's allreduce, so every host picks the same mode.
    """

    name = "bfs"
    reduce_op = "min"

    def __init__(self, source: int = 0, direction: str = "push",
                 pull_threshold: float = 0.05):
        if direction not in ("push", "pull", "auto"):
            raise ValueError(f"unknown direction {direction!r}")
        self.source = source
        self.direction = direction
        self.pull_threshold = pull_threshold

    def init_state(self, lg: LocalGraph, graph: CsrGraph) -> Dict[str, np.ndarray]:
        label = np.full(lg.num_local, INF, dtype=np.int64)
        label[lg.global_ids == self.source] = 0
        self._num_nodes = graph.num_nodes
        return {
            "label": label,
            #: label value when the node was last relaxed (activeness).
            "last": np.full(lg.num_local, INF, dtype=np.int64),
        }

    def initial_active(self, lg: LocalGraph, state) -> np.ndarray:
        return state["label"] < state["last"]

    def _mode(self, state) -> str:
        if self.direction != "auto":
            return self.direction
        frontier = state.get("_global_active")
        if frontier is None:
            return "push"  # round 0: the frontier is one node
        return "pull" if frontier > self.pull_threshold * self._num_nodes else "push"

    def compute(self, lg: LocalGraph, state, active: np.ndarray) -> ComputeResult:
        label = state["label"]
        state["last"][active] = label[active]

        def cand_fn(src_ids, _edge_sel):
            return label[src_ids] + 1

        if self._mode(state) == "push":
            return min_relax(lg, label, active, cand_fn)
        return self._pull(lg, state)

    def _pull(self, lg: LocalGraph, state) -> ComputeResult:
        """Dense round: scan edges whose destination is still unreached.

        Same local edge set, selected by destination instead of source —
        this is what "pull" means under an edge partition: the
        synchronization patterns are unchanged.
        """
        label = state["label"]
        unreached = label[lg.indices] >= INF
        dst = lg.indices[unreached]
        if len(dst) == 0:
            return ComputeResult(np.empty(0, dtype=np.int64), 0, 0)
        src = lg.edge_sources()[unreached]
        updated = scatter_min(label, dst, label[src] + 1)
        return ComputeResult(
            updated, int(len(dst)), int(np.count_nonzero(label >= INF)),
        )

    # -- sync hooks ------------------------------------------------------
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
        """Sequential BFS levels from ``self.source``."""
        level = np.full(graph.num_nodes, INF, dtype=np.int64)
        level[self.source] = 0
        frontier = deque([self.source])
        while frontier:
            u = frontier.popleft()
            lu = level[u]
            for v in graph.neighbors(u):
                if level[v] > lu + 1:
                    level[v] = lu + 1
                    frontier.append(v)
        return level
