"""Gemini's blocked edge-cut partitioning.

Nodes are assigned to hosts in contiguous blocks chosen so that each
block carries roughly the same number of out-edges (Gemini balances
"assigned edges across hosts" — the paper's Section IV description).
Each host receives the out-edges of its own nodes, so every edge source
is a local master; only edge destinations produce mirrors, and a full
synchronization needs only the *reduce* pattern for push-style operators.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CsrGraph
from repro.graph.partition.proxies import (
    Partition, build_partition, host_dtype,
)

__all__ = ["blocked_edge_cut", "balanced_node_blocks"]


def balanced_node_blocks(graph: CsrGraph, num_blocks: int, alpha: float = 8.0) -> np.ndarray:
    """Contiguous node blocks balancing ``degree + alpha`` per node.

    Gemini's locality-aware chunking balances a hybrid of edges and
    nodes; ``alpha`` is the per-node weight (its paper uses 8 * (p - 1),
    we default to a fixed 8 which behaves identically at small scale).
    Returns ``owner``: node -> block id.
    """
    if num_blocks < 1:
        raise ValueError("need at least one block")
    weights = graph.out_degree().astype(np.float64) + alpha
    cum = np.cumsum(weights)
    total = cum[-1] if len(cum) else 0.0
    bounds = total * (np.arange(1, num_blocks) / num_blocks)
    splits = np.searchsorted(cum, bounds, side="left")
    owner = np.zeros(graph.num_nodes, dtype=np.int64)
    prev = 0
    for b, s in enumerate(splits):
        owner[prev:s + 1] = b
        prev = s + 1
    owner[prev:] = num_blocks - 1
    return owner


def blocked_edge_cut(graph: CsrGraph, num_hosts: int) -> Partition:
    """Partition with Gemini's policy: edge lives with its source's owner."""
    owner = balanced_node_blocks(graph, num_hosts)
    edge_owner = np.repeat(owner.astype(host_dtype(num_hosts)),
                           np.diff(graph.indptr))
    return build_partition(graph, num_hosts, owner, edge_owner, "edge-cut")
