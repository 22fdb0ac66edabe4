"""Compressed-sparse-row directed graphs over NumPy arrays.

The whole reproduction computes on real graphs; CSR keeps that fast in
Python by making every per-round kernel a vectorized operation over
``indptr`` / ``indices`` arrays (see the hpc-parallel guide: vectorize the
hot loops, prefer views over copies).
"""

from __future__ import annotations

from functools import lru_cache, wraps
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "CsrGraph", "stable_argsort", "first_occurrences", "group_offsets",
    "csr_order", "index_dtype", "index_range", "resident", "RESIDENT_BOUND",
]

#: How many results each :func:`resident` derivation keeps.
RESIDENT_BOUND = 4


def resident(derive):
    """Keep what ``derive(graph, *key)`` builds from a *frozen* graph.

    A frozen graph cannot change, so whatever is derived from it — its
    symmetrized form, a partition — is built once, frozen in turn
    (``.freeze()``) and handed to every caller that asks again; engines,
    the query service and sweeps share it through this one table
    instead of each keeping its own.  An unfrozen graph is derived
    afresh every time.

    The table is keyed by the graph object itself, which it therefore
    keeps alive: an ``id()`` could be reused after collection, and a
    name does not tell a weighted graph from the plain one of the same
    family and scale.  It holds the ``RESIDENT_BOUND`` most recently
    used results.
    """
    @lru_cache(maxsize=RESIDENT_BOUND)
    def shared(graph, *key):
        return derive(graph, *key).freeze()

    @wraps(derive)
    def lookup(graph, *key):
        return shared(graph, *key) if graph.frozen else derive(graph, *key)

    return lookup


def _packed_sort(keys: np.ndarray, bound: int, in_place: bool = False):
    """Sort ``key << pos_bits | position`` for integer ``0 <= keys < bound``.

    Every packed value is distinct, so the unstable SIMD ``sort`` of the
    ``uint64`` packs *is* the stable order by key: return the sorted
    packs and ``pos_bits``, or ``None`` where key plus position bits
    exceed 64.  ``in_place`` packs into ``keys`` itself (int64 scratch)
    instead of a new array.
    """
    pos_bits = max(len(keys) - 1, 0).bit_length()
    if (bound - 1).bit_length() + pos_bits > 64:
        return None
    if in_place:
        packed = keys.view(np.uint64)
        packed <<= pos_bits
    else:
        packed = np.left_shift(keys, pos_bits, dtype=np.uint64,
                               casting="unsafe")
    positions = index_range(len(keys))
    packed |= positions.view(f"u{positions.itemsize}")
    packed.sort()
    return packed, pos_bits


def stable_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer ``0 <= keys < bound``.

    The bound picks the cheapest sort that gives exactly that order, on
    arithmetic grounds only: keys of at most 16 bits go through NumPy's
    radix sort as ``uint8`` / ``uint16`` (the smallest dtype that holds
    ``bound - 1``, so a key never wraps); wider keys go through
    :func:`_packed_sort`; and where key plus position exceed a
    ``uint64``'s 64 bits the stable argsort itself runs.
    """
    narrow = np.min_scalar_type(bound - 1)
    if narrow.itemsize <= 2:
        return np.argsort(keys.astype(narrow, copy=False), kind="stable")
    sorted_packs = _packed_sort(keys, bound)
    if sorted_packs is None:
        return np.argsort(keys, kind="stable")
    packed, pos_bits = sorted_packs
    packed &= (1 << pos_bits) - 1
    return packed.view(np.int64)


def first_occurrences(keys: np.ndarray, bound: int) -> np.ndarray:
    """Mask over positions: ``True`` where ``keys[p]`` is not in ``keys[:p]``.

    ``keys`` is int64 with ``0 <= keys < bound``, and scratch: where key
    plus position fit 64 bits it is packed in place by
    :func:`_packed_sort` (a run of equal keys then starts at its
    earliest position), so the only other |keys|-sized arrays are one
    narrow position array and two bool masks.  Wider keys go through
    the stable argsort.
    """
    count = len(keys)
    first = np.zeros(count, dtype=bool)
    if count == 0:
        return first
    run_start = np.empty(count, dtype=bool)
    run_start[0] = True
    sorted_packs = _packed_sort(keys, bound, in_place=True)
    if sorted_packs is None:
        pos = np.argsort(keys, kind="stable")
        keys = keys[pos]
    else:
        keys, pos_bits = sorted_packs
        pos = np.empty(count, dtype=index_dtype(count))
        np.bitwise_and(keys, (1 << pos_bits) - 1, out=pos, casting="unsafe")
        keys >>= pos_bits
    np.not_equal(keys[1:], keys[:-1], out=run_start[1:])
    first[pos[run_start]] = True
    return first


def index_dtype(count: int) -> np.dtype:
    """int32 where every index below ``count`` fits, else int64: the
    dtype of positions or node ids held only as scratch, at half the
    bytes."""
    return np.dtype(np.int32 if count <= np.iinfo(np.int32).max + 1
                    else np.int64)


def index_range(count: int) -> np.ndarray:
    """``arange(count)`` in :func:`index_dtype`."""
    return np.arange(count, dtype=index_dtype(count))


def group_offsets(ids: np.ndarray, num_groups: int) -> np.ndarray:
    """CSR-style offsets of ``ids`` grouped by value: group ``g`` spans
    ``[offsets[g], offsets[g + 1])`` of the stably sorted ids."""
    counts = np.bincount(ids, minlength=num_groups)
    return np.concatenate(([0], np.cumsum(counts)))


def csr_order(sources: np.ndarray, num_nodes: int,
              keep: Optional[np.ndarray] = None
              ) -> Tuple[np.ndarray, np.ndarray]:
    """``(indptr, order)`` of the CSR holding the edge positions ``keep``
    marks (every position if ``None``), edge ``e`` starting at node
    ``sources[e]``: ``order`` lists those positions ascending within
    each source, sources ascending, so ``targets[order]`` is the CSR's
    ``indices``."""
    if keep is None:
        return (group_offsets(sources, num_nodes),
                stable_argsort(sources, num_nodes))
    sel = np.flatnonzero(keep)
    kept = sources[sel]
    indptr = group_offsets(kept, num_nodes)
    order = stable_argsort(kept, num_nodes)
    del kept
    return indptr, sel[order]


def _check_edge_list(src, dst, num_nodes, edge_data) -> None:
    """Raise ``ValueError`` unless the pairs can be a graph's edges: one
    length for every column, every id in ``[0, num_nodes)``.  Checked
    before any key arithmetic, where an out-of-range id would alias
    another pair."""
    if len(src) != len(dst):
        raise ValueError("src/dst length mismatch")
    if edge_data is not None and len(edge_data) != len(src):
        raise ValueError(
            f"edge_data has {len(edge_data)} entries for {len(src)} edges"
        )
    for end, ids in (("source", src), ("target", dst)):
        if len(ids) and (ids.min() < 0 or ids.max() >= num_nodes):
            raise ValueError(f"edge {end} out of range [0, {num_nodes})")


class CsrGraph:
    """An immutable directed graph in CSR form, with optional edge data.

    ``indptr`` has length ``num_nodes + 1``; the out-neighbours of node
    ``u`` are ``indices[indptr[u]:indptr[u+1]]``.  ``edge_data`` (if
    present) is aligned with ``indices`` (e.g. sssp weights).
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        num_nodes: Optional[int] = None,
        edge_data: Optional[np.ndarray] = None,
        name: str = "",
    ):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.num_nodes = (
            int(num_nodes) if num_nodes is not None else len(self.indptr) - 1
        )
        if len(self.indptr) != self.num_nodes + 1:
            raise ValueError(
                f"indptr length {len(self.indptr)} != num_nodes+1 "
                f"({self.num_nodes + 1})"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise ValueError("indptr must start at 0 and end at num_edges")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= self.num_nodes
        ):
            raise ValueError("edge target out of range")
        self.edge_data = edge_data
        if edge_data is not None and len(edge_data) != len(self.indices):
            raise ValueError("edge_data must align with indices")
        self.name = name
        self._transpose: Optional["CsrGraph"] = None
        self._frozen = False

    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return len(self.indices)

    def out_degree(self, u: Optional[int] = None):
        """Degree of ``u``, or the full out-degree array."""
        if u is None:
            return np.diff(self.indptr)
        return int(self.indptr[u + 1] - self.indptr[u])

    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.indices, minlength=self.num_nodes)

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def edge_sources(self) -> np.ndarray:
        """Source node of every edge, aligned with ``indices``."""
        return np.repeat(
            np.arange(self.num_nodes, dtype=np.int64), np.diff(self.indptr)
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        num_nodes: int,
        edge_data: Optional[np.ndarray] = None,
        dedup: bool = False,
        name: str = "",
    ) -> "CsrGraph":
        """Build CSR from parallel (src, dst) arrays.

        ``dedup=True`` removes self loops and every repeat of a (src, dst)
        pair after its first occurrence, as the synthetic generators
        produce multi-edges.  Every id must lie in ``[0, num_nodes)`` and
        ``edge_data`` (if given) must have one entry per pair.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if edge_data is not None:
            edge_data = np.asarray(edge_data)
        _check_edge_list(src, dst, num_nodes, edge_data)
        keep = None
        if dedup:
            key = src * num_nodes
            key += dst
            keep = first_occurrences(key, num_nodes * num_nodes)
            del key
            keep &= src != dst
        indptr, order = csr_order(src, num_nodes, keep)
        del keep
        if edge_data is not None:
            edge_data = edge_data[order]
        return cls(indptr, dst[order], num_nodes, edge_data=edge_data,
                   name=name)

    def freeze(self) -> "CsrGraph":
        """Make the underlying arrays read-only and return ``self``.

        Frozen graphs can be shared safely (the scenario cache hands the
        same instance to every run): any attempted in-place write raises
        ``ValueError: assignment destination is read-only`` at the
        offending site instead of silently corrupting later runs.
        """
        if self._frozen:
            return self
        self._frozen = True
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)
        if self.edge_data is not None:
            self.edge_data = np.asarray(self.edge_data)
            self.edge_data.setflags(write=False)
        if self._transpose is not None:
            self._transpose.freeze()
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    def transpose(self) -> "CsrGraph":
        """The reverse graph (cached); in-edges become out-edges."""
        if self._transpose is None:
            srcs = self.edge_sources()
            self._transpose = CsrGraph.from_edges(
                self.indices,
                srcs,
                self.num_nodes,
                edge_data=self.edge_data,
                name=self.name + ".T",
            )
            self._transpose._transpose = self
            if self._frozen:
                self._transpose.freeze()
        return self._transpose

    def edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """(src, dst) arrays for all edges."""
        return self.edge_sources(), self.indices.copy()

    def __repr__(self) -> str:
        return (
            f"CsrGraph({self.name or 'unnamed'}: |V|={self.num_nodes}, "
            f"|E|={self.num_edges})"
        )
