"""Partitioned-graph construction: local graphs, masters/mirrors, and the
precomputed communication metadata the sync phases run on.

A partition policy supplies two arrays — ``owner`` (node -> master host)
and ``edge_owner`` (edge -> host) — and :func:`build_partition` does the
rest: per-host local CSR graphs with masters stored contiguously before
mirrors (the paper's in-memory layout), plus, for every (host, peer)
pair, index arrays for the two synchronization patterns:

* ``reduce``  — mirrors *written* by local edges (edge destinations)
  send to their masters;
* ``broadcast`` — masters send to mirrors *read* by remote edges (edge
  sources).

The index arrays on the two sides of a pattern are aligned element-for-
element, which is the memoized-address-translation trick that lets the
runtime ship bare value arrays with a bitset instead of (id, value)
pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph.csr import CsrGraph, group_offsets, stable_argsort

__all__ = ["LocalGraph", "Partition", "build_partition"]


class LocalGraph:
    """One host's share of the partitioned graph.

    Local node ids: masters occupy ``[0, num_masters)``, mirrors follow —
    both in ascending global-id order.  The CSR arrays are over local ids.
    """

    def __init__(
        self,
        host: int,
        global_ids: np.ndarray,
        num_masters: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        edge_data: Optional[np.ndarray] = None,
    ):
        self.host = host
        self.global_ids = global_ids
        self.num_masters = num_masters
        self.indptr = indptr
        self.indices = indices
        self.edge_data = edge_data
        #: Masks over local ids: does the node appear as an edge source /
        #: destination here?  (drives partition-aware sync selection)
        self.is_edge_src = np.zeros(len(global_ids), dtype=bool)
        self.is_edge_dst = np.zeros(len(global_ids), dtype=bool)
        srcs = np.repeat(
            np.arange(len(global_ids), dtype=np.int64), np.diff(indptr)
        )
        self.is_edge_src[srcs] = True
        self.is_edge_dst[indices] = True
        self._src_cache = srcs

    @property
    def num_local(self) -> int:
        return len(self.global_ids)

    @property
    def num_mirrors(self) -> int:
        return self.num_local - self.num_masters

    @property
    def num_edges(self) -> int:
        return len(self.indices)

    def edge_sources(self) -> np.ndarray:
        return self._src_cache

    def __repr__(self) -> str:
        return (
            f"LocalGraph(host={self.host}, masters={self.num_masters}, "
            f"mirrors={self.num_mirrors}, edges={self.num_edges})"
        )


@dataclass
class SyncPair:
    """Aligned index arrays for one (mirror-host, master-host) pattern.

    ``mirror_ids[i]`` on the mirror host corresponds to ``master_ids[i]``
    on the master host — same global node, ascending global order.
    """

    mirror_host: int
    master_host: int
    mirror_ids: np.ndarray  # local ids at mirror_host
    master_ids: np.ndarray  # local ids at master_host

    def __len__(self) -> int:
        return len(self.mirror_ids)


class Partition:
    """The partitioned graph plus its communication metadata."""

    def __init__(
        self,
        graph: CsrGraph,
        num_hosts: int,
        owner: np.ndarray,
        locals_: List[LocalGraph],
        policy: str,
        reduce_pairs: Dict[Tuple[int, int], SyncPair],
        bcast_pairs: Dict[Tuple[int, int], SyncPair],
    ):
        self.graph = graph
        self.num_hosts = num_hosts
        self.owner = owner
        self.locals = locals_
        self.policy = policy
        #: (mirror_host, master_host) -> SyncPair for the reduce pattern
        #: (mirrors that local edges *write*, i.e. edge destinations).
        self.reduce_pairs = reduce_pairs
        #: (mirror_host, master_host) -> SyncPair for the broadcast
        #: pattern (mirrors that local edges *read*, i.e. edge sources).
        self.bcast_pairs = bcast_pairs
        # Per-host views of the two dicts, in dict order, so an engine
        # build reads its pair lists instead of scanning every pair
        # four times per host.
        self._reduce_out = [[] for _ in range(num_hosts)]
        self._reduce_in = [[] for _ in range(num_hosts)]
        self._bcast_out = [[] for _ in range(num_hosts)]
        self._bcast_in = [[] for _ in range(num_hosts)]
        for (mh, ph), sp in reduce_pairs.items():
            self._reduce_out[mh].append(sp)
            self._reduce_in[ph].append(sp)
        for (mh, ph), sp in bcast_pairs.items():
            self._bcast_out[ph].append(sp)
            self._bcast_in[mh].append(sp)
        self._frozen = False

    def freeze(self) -> "Partition":
        """Make every array read-only and return ``self``.

        A partition kept resident is shared by every engine on its graph
        (as a frozen :class:`CsrGraph` is): an in-place write raises
        ``ValueError: assignment destination is read-only`` at the
        offending line instead of corrupting the runs that follow.
        """
        if not self._frozen:
            self._frozen = True
            arrays = [self.owner]
            for lg in self.locals:
                arrays += [lg.global_ids, lg.indptr, lg.indices, lg.edge_data,
                           lg.is_edge_src, lg.is_edge_dst, lg.edge_sources()]
            for pairs in (self.reduce_pairs, self.bcast_pairs):
                for sp in pairs.values():
                    arrays += [sp.mirror_ids, sp.master_ids]
            for array in arrays:
                if array is not None:
                    array.setflags(write=False)
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    # -- convenience views ---------------------------------------------
    def local(self, host: int) -> LocalGraph:
        return self.locals[host]

    def reduce_out(self, host: int) -> List[SyncPair]:
        """Pairs where ``host`` sends mirror values to masters."""
        return self._reduce_out[host]

    def reduce_in(self, host: int) -> List[SyncPair]:
        """Pairs where ``host`` receives mirror values onto its masters."""
        return self._reduce_in[host]

    def bcast_out(self, host: int) -> List[SyncPair]:
        """Pairs where ``host`` sends master values to mirrors."""
        return self._bcast_out[host]

    def bcast_in(self, host: int) -> List[SyncPair]:
        """Pairs where ``host`` receives master values onto its mirrors."""
        return self._bcast_in[host]

    def comm_partners(self, host: int) -> set:
        """All hosts this host exchanges messages with in a full sync."""
        partners = set()
        for (mh, ph) in list(self.reduce_pairs) + list(self.bcast_pairs):
            if mh == host:
                partners.add(ph)
            elif ph == host:
                partners.add(mh)
        return partners

    def replication_factor(self) -> float:
        """Average number of proxies per graph node (partition quality)."""
        total = sum(lg.num_local for lg in self.locals)
        return total / max(self.graph.num_nodes, 1)

    def __repr__(self) -> str:
        return (
            f"Partition({self.policy}, hosts={self.num_hosts}, "
            f"graph={self.graph.name}, rf={self.replication_factor():.2f})"
        )


def build_partition(
    graph: CsrGraph,
    num_hosts: int,
    owner: np.ndarray,
    edge_owner: np.ndarray,
    policy: str,
) -> Partition:
    """Materialize local graphs and sync metadata from assignments.

    ``owner``: length |V|, master host of each node.
    ``edge_owner``: length |E| aligned with the CSR edge order.

    Edges and nodes are each grouped by host in one stable sort; a host
    then gathers its own slice, so the cost is O(|E| + |V|) plus one
    O(|V|) mirror scan per host rather than ``num_hosts`` passes over
    every edge.
    """
    owner = np.asarray(owner, dtype=np.int64)
    edge_owner = np.asarray(edge_owner, dtype=np.int64)
    if len(owner) != graph.num_nodes:
        raise ValueError("owner array must cover every node")
    if len(edge_owner) != graph.num_edges:
        raise ValueError("edge_owner array must cover every edge")
    for name, hosts in (("owner", owner), ("edge_owner", edge_owner)):
        if len(hosts) and (hosts.min() < 0 or hosts.max() >= num_hosts):
            raise ValueError(f"{name} out of host range")

    num_nodes = graph.num_nodes
    all_src = graph.edge_sources()
    all_dst = graph.indices
    # Host h's edges are edge_order[edge_start[h]:edge_start[h + 1]], in
    # CSR order; its masters node_order[node_start[h]:node_start[h + 1]],
    # ascending.
    edge_order = stable_argsort(edge_owner, num_hosts)
    edge_start = group_offsets(edge_owner, num_hosts)
    node_order = stable_argsort(owner, num_hosts)
    node_start = group_offsets(owner, num_hosts)
    #: Local id of every node at its owner (masters come first there).
    master_lid = np.empty(num_nodes, dtype=np.int64)
    master_lid[node_order] = np.arange(num_nodes) - node_start[owner[node_order]]
    # Scratch reused by every host: ``touched`` is all-False between
    # hosts; ``local_id`` is only ever read at the current host's ids.
    touched = np.zeros(num_nodes, dtype=bool)
    local_id = np.empty(num_nodes, dtype=np.int64)

    locals_: List[LocalGraph] = []
    for h in range(num_hosts):
        edges = edge_order[edge_start[h]:edge_start[h + 1]]
        esrc = all_src[edges]
        edst = all_dst[edges]
        masters = node_order[node_start[h]:node_start[h + 1]]
        num_masters = len(masters)  # every owned node is a master
        touched[esrc] = True
        touched[edst] = True
        touched[masters] = False
        mirrors = np.flatnonzero(touched)
        touched[mirrors] = False
        global_ids = np.concatenate([masters, mirrors])
        local_id[global_ids] = np.arange(len(global_ids))

        lsrc = local_id[esrc]
        ldst = local_id[edst]
        # Local CSR order is the stable sort by local source.  Edges
        # arrive in ascending global source and local ids ascend with
        # global ids among masters and among mirrors, so that sort is
        # "master-source edges, then mirror-source edges".
        from_mirror = lsrc >= num_masters
        order = np.concatenate(
            (np.flatnonzero(~from_mirror), np.flatnonzero(from_mirror))
        )
        lsrc, ldst, edges = lsrc[order], ldst[order], edges[order]
        edata = graph.edge_data[edges] if graph.edge_data is not None else None
        locals_.append(LocalGraph(
            h, global_ids, num_masters,
            group_offsets(lsrc, len(global_ids)), ldst, edata,
        ))

    # ---- sync metadata -------------------------------------------------
    reduce_pairs: Dict[Tuple[int, int], SyncPair] = {}
    bcast_pairs: Dict[Tuple[int, int], SyncPair] = {}
    for h, lg in enumerate(locals_):
        if lg.num_mirrors == 0:
            continue
        mirror_slice = slice(lg.num_masters, lg.num_local)
        mirror_globals = lg.global_ids[mirror_slice]
        mirror_owners = owner[mirror_globals]
        for pairs, mask in (
            (reduce_pairs, lg.is_edge_dst[mirror_slice]),
            (bcast_pairs, lg.is_edge_src[mirror_slice]),
        ):
            selected = np.flatnonzero(mask)
            sel_owners = mirror_owners[selected]
            by_peer = stable_argsort(sel_owners, num_hosts)
            peer_start = group_offsets(sel_owners, num_hosts)
            for p in np.flatnonzero(np.diff(peer_start)):
                p = int(p)
                # A stable sort keeps each peer's mirrors in ascending
                # global order — the alignment both sides rely on.
                pick = selected[by_peer[peer_start[p]:peer_start[p + 1]]]
                pairs[(h, p)] = SyncPair(
                    h, p, pick + lg.num_masters,
                    master_lid[mirror_globals[pick]],
                )
    return Partition(
        graph, num_hosts, owner, locals_, policy, reduce_pairs, bcast_pairs
    )
