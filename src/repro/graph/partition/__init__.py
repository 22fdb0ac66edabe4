"""Graph partitioning for distributed execution (Section II of the paper).

Edges are assigned to hosts; a host materializes proxies for every node
incident to its edges.  The proxy on the node's *owner* host is the
**master** (holds the canonical value); all others are **mirrors**.
Synchronization composes two patterns: **reduce** (mirrors -> master) and
**broadcast** (master -> mirrors).

Two policies are provided, matching the two systems evaluated:

* :func:`~repro.graph.partition.edge_cut.blocked_edge_cut` — Gemini's
  policy: contiguous node blocks balanced by edge count; each host gets
  the out-edges of its own nodes, so sources are always local masters and
  only *reduce* is needed for push-style operators.
* :func:`~repro.graph.partition.vertex_cut.cartesian_vertex_cut` — the
  advanced 2-D policy Abelian uses (the paper's reference [27]): hosts
  form an r x c grid; the edge (u, v) goes to the host at (row of u's
  owner, column of v's owner).  Reduce then happens only within grid
  columns and broadcast only within grid rows, shrinking each host's
  communication partner set from p-1 to about 2*sqrt(p).
"""

from repro.graph.csr import resident
from repro.graph.partition.proxies import LocalGraph, Partition, build_partition
from repro.graph.partition.edge_cut import blocked_edge_cut
from repro.graph.partition.vertex_cut import cartesian_vertex_cut, grid_shape

__all__ = [
    "LocalGraph",
    "Partition",
    "build_partition",
    "blocked_edge_cut",
    "cartesian_vertex_cut",
    "grid_shape",
    "make_partition",
]


def make_partition(graph, num_hosts, policy="cvc"):
    """Partition ``graph`` with the named policy ("edge-cut" or "cvc").

    The partition of a frozen graph is built once per (graph, hosts,
    policy), frozen and kept resident (:func:`repro.graph.csr.resident`).
    """
    if policy in ("edge-cut", "edge_cut", "ec"):
        return _partition(graph, num_hosts, blocked_edge_cut)
    if policy in ("cvc", "vertex-cut", "vertex_cut"):
        return _partition(graph, num_hosts, cartesian_vertex_cut)
    raise ValueError(f"unknown partition policy {policy!r}")


@resident
def _partition(graph, num_hosts, cut):
    return cut(graph, num_hosts)
