"""Cartesian vertex cut (CVC) — Abelian's advanced partitioning policy.

Hosts are arranged in an ``r x c`` grid (``r * c == p``).  Nodes are
blocked into ``p`` contiguous ranges (balanced by degree, like the
edge-cut); the edge ``(u, v)`` is assigned to the host sitting at
(row of u's owner, column of v's owner).  Consequences:

* a host's edge *sources* are owned by hosts in its grid **row**, and its
  edge *destinations* by hosts in its grid **column**;
* the reduce pattern only crosses columns (≈ r partners) and broadcast
  only crosses rows (≈ c partners) — each host talks to ~2 sqrt(p) peers
  instead of p-1, which is why Abelian's communication stays structured
  at 128+ hosts (the paper's reference [27]).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.graph.csr import CsrGraph
from repro.graph.partition.edge_cut import balanced_node_blocks
from repro.graph.partition.proxies import (
    Partition, build_partition, host_dtype,
)

__all__ = ["grid_shape", "cartesian_vertex_cut"]


def grid_shape(num_hosts: int) -> Tuple[int, int]:
    """The most-square (rows, cols) factorization of ``num_hosts``."""
    if num_hosts < 1:
        raise ValueError("num_hosts must be >= 1")
    r = int(math.isqrt(num_hosts))
    while num_hosts % r != 0:
        r -= 1
    return r, num_hosts // r


def cartesian_vertex_cut(graph: CsrGraph, num_hosts: int) -> Partition:
    """Partition with the CVC policy."""
    rows, cols = grid_shape(num_hosts)
    owner = balanced_node_blocks(graph, num_hosts)
    # host id of grid cell (i, j) is i * cols + j: the row comes from
    # the source's owner, the column from the target's.  Both parts are
    # per-node, so the one |E| array is written in the host dtype.
    dtype = host_dtype(num_hosts)
    edge_owner = np.repeat((owner // cols * cols).astype(dtype),
                           np.diff(graph.indptr))
    edge_owner += (owner % cols).astype(dtype)[graph.indices]
    part = build_partition(graph, num_hosts, owner, edge_owner, "cvc")
    part.grid = (rows, cols)  # type: ignore[attr-defined]
    return part
