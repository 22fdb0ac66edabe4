"""Reference implementations the fast paths are tested against.

These are the straightforward formulations the program used before its
setup path and array kernels were rewritten: one full-array scan per
host and NumPy set operations in the partition builder, ``np.unique`` in
the CSR builder and the relax kernels, 2-D ``ufunc.at`` in the
multi-source programs, and the R-MAT sampler's one-thread quadrant
logic.  They are slow and obviously right; the tests require the fast
paths to equal them array for array, dtype included.

:func:`unchained` is the reference for the simulator's chained delays:
it runs the same program with every chain replayed wake by wake.
:class:`ListEnvironment` is the reference for its event queue: the same
generator programs over a list re-sorted by ``(when, seq)``.
"""

from contextlib import contextmanager
from typing import Dict, List, Tuple

import numpy as np

from repro.engine.vertex_program import ComputeResult
from repro.graph.csr import CsrGraph
from repro.graph.partition.proxies import LocalGraph, Partition, SyncPair
from repro.sim.engine import Environment, Interrupt


# ----------------------------------------------------------------------
# R-MAT sampling
# ----------------------------------------------------------------------
def rmat_edges(
    scale: int,
    num_edges: int,
    rng: np.random.Generator,
    a: float,
    b: float,
    c: float,
) -> tuple:
    """Sample ``num_edges`` (src, dst) pairs by recursive quadrant choice.

    Vectorized over all edges: each of the ``scale`` bit positions is
    drawn for every edge at once.
    """
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    ab = a + b
    abc = a + b + c
    # One set of buffers for all bit positions; the draws themselves are
    # the same stream as ``rng.random(num_edges)`` per bit.
    r = np.empty(num_edges, dtype=np.float64)
    go_both = np.empty(num_edges, dtype=bool)
    go_side = np.empty(num_edges, dtype=bool)
    below = np.empty(num_edges, dtype=bool)
    bits = np.empty(num_edges, dtype=np.int64)
    for bit in range(scale):
        rng.random(out=r)
        # quadrant: 0 -> (0,0), 1 -> (0,1), 2 -> (1,0), 3 -> (1,1)
        np.greater_equal(r, abc, out=go_both)
        for ids, lo, hi in ((dst, a, ab), (src, ab, abc)):
            # go_right (dst bit set) is a <= r < ab; go_down (src bit
            # set) is ab <= r < abc; go_both sets both.
            np.greater_equal(r, lo, out=go_side)
            np.less(r, hi, out=below)
            go_side &= below
            go_side |= go_both
            np.left_shift(go_side, bit, out=bits, dtype=np.int64)
            ids |= bits
    return src, dst


# ----------------------------------------------------------------------
# CSR construction
# ----------------------------------------------------------------------
def from_edges(src, dst, num_nodes, edge_data=None, dedup=False, name=""):
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if dedup:
        keep = src != dst
        src, dst = src[keep], dst[keep]
        if edge_data is not None:
            edge_data = np.asarray(edge_data)[keep]
        key = src * num_nodes + dst
        _, unique_idx = np.unique(key, return_index=True)
        unique_idx.sort()
        src, dst = src[unique_idx], dst[unique_idx]
        if edge_data is not None:
            edge_data = edge_data[unique_idx]
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    if edge_data is not None:
        edge_data = np.asarray(edge_data)[order]
    counts = np.bincount(src, minlength=num_nodes)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return CsrGraph(indptr, dst, num_nodes, edge_data=edge_data, name=name)


def symmetrize(graph):
    """Every edge plus its reverse through :func:`from_edges` with
    ``dedup=True``: the pair columns and edge data concatenated."""
    src, dst = graph.edges()
    edge_data = None
    if graph.edge_data is not None:
        edge_data = np.concatenate([graph.edge_data, graph.edge_data])
    return from_edges(
        np.concatenate([src, dst]), np.concatenate([dst, src]),
        graph.num_nodes, edge_data=edge_data, dedup=True,
        name=graph.name + ".sym",
    )


# ----------------------------------------------------------------------
# Partition construction
# ----------------------------------------------------------------------
def build_partition(graph, num_hosts, owner, edge_owner, policy):
    owner = np.asarray(owner, dtype=np.int64)
    edge_owner = np.asarray(edge_owner, dtype=np.int64)
    all_src = graph.edge_sources()
    all_dst = graph.indices
    locals_: List[LocalGraph] = []
    g2l_tables: List[Tuple[np.ndarray, np.ndarray]] = []

    for h in range(num_hosts):
        mask = edge_owner == h
        esrc = all_src[mask]
        edst = all_dst[mask]
        edata = graph.edge_data[mask] if graph.edge_data is not None else None

        masters = np.where(owner == h)[0]
        endpoints = np.union1d(esrc, edst)
        mirrors = np.setdiff1d(endpoints, masters, assume_unique=False)
        global_ids = np.concatenate([masters, mirrors])

        sort_perm = np.argsort(global_ids, kind="stable")
        sorted_gids = global_ids[sort_perm]
        g2l_tables.append((sorted_gids, sort_perm))

        lsrc = sort_perm[np.searchsorted(sorted_gids, esrc)]
        ldst = sort_perm[np.searchsorted(sorted_gids, edst)]
        order = np.argsort(lsrc, kind="stable")
        lsrc, ldst = lsrc[order], ldst[order]
        if edata is not None:
            edata = edata[order]
        counts = np.bincount(lsrc, minlength=len(global_ids))
        indptr = np.concatenate(([0], np.cumsum(counts)))
        srcs = np.repeat(
            np.arange(len(global_ids), dtype=np.int64), np.diff(indptr)
        )
        locals_.append(
            LocalGraph(h, global_ids, len(masters), indptr, ldst, srcs, edata)
        )

    reduce_pairs: Dict[Tuple[int, int], SyncPair] = {}
    bcast_pairs: Dict[Tuple[int, int], SyncPair] = {}
    for h, lg in enumerate(locals_):
        if lg.num_mirrors == 0:
            continue
        mirror_slice = slice(lg.num_masters, lg.num_local)
        mirror_globals = lg.global_ids[mirror_slice]
        mirror_locals = np.arange(lg.num_masters, lg.num_local, dtype=np.int64)
        mirror_owners = owner[mirror_globals]
        for pairs, mask in (
            (reduce_pairs, lg.is_edge_dst[mirror_slice]),
            (bcast_pairs, lg.is_edge_src[mirror_slice]),
        ):
            if not mask.any():
                continue
            sel_globals = mirror_globals[mask]
            sel_locals = mirror_locals[mask]
            sel_owners = mirror_owners[mask]
            for p in np.unique(sel_owners):
                p = int(p)
                pick = sel_owners == p
                gids = sel_globals[pick]
                lids = sel_locals[pick]
                srt = np.argsort(gids)
                gids, lids = gids[srt], lids[srt]
                sorted_gids, sort_perm = g2l_tables[p]
                master_lids = sort_perm[np.searchsorted(sorted_gids, gids)]
                pairs[(h, p)] = SyncPair(h, p, lids, master_lids)
    return Partition(
        graph, num_hosts, owner, locals_, policy, reduce_pairs, bcast_pairs
    )


# ----------------------------------------------------------------------
# Relax kernels
# ----------------------------------------------------------------------
def min_relax(lg, label, active, cand_fn):
    """Single- and multi-column relax: ``label`` is 1-D or ``(n, K)``."""
    active_ids = np.where(active)[0]
    columns = label.shape[1] if label.ndim == 2 else 1
    if len(active_ids) == 0:
        return ComputeResult(np.empty(0, dtype=np.int64), 0, 0)
    edge_sel = np.repeat(active, np.diff(lg.indptr))
    dst = lg.indices[edge_sel]
    if len(dst) == 0:
        return ComputeResult(np.empty(0, dtype=np.int64), 0, len(active_ids))
    src = lg.edge_sources()[edge_sel]
    cand = cand_fn(src, edge_sel)
    before = label[dst]
    np.minimum.at(label, dst, cand)
    lowered = label[dst] < before
    if label.ndim == 2:
        lowered = np.any(lowered, axis=1)
    return ComputeResult(
        np.unique(dst[lowered]), int(len(dst)) * columns, int(len(active_ids))
    )


def bfs_pull(lg, label, inf):
    unreached = label[lg.indices] >= inf
    dst = lg.indices[unreached]
    if len(dst) == 0:
        return ComputeResult(np.empty(0, dtype=np.int64), 0, 0)
    src = lg.edge_sources()[unreached]
    before = label[dst]
    np.minimum.at(label, dst, label[src] + 1)
    return ComputeResult(
        np.unique(dst[label[dst] < before]), int(len(dst)),
        int(np.count_nonzero(label >= inf)),
    )


def kcore_compute(lg, state):
    pending = state["dead_pending"]
    srcs_pending = np.where(pending)[0]
    if len(srcs_pending) == 0:
        return ComputeResult(np.empty(0, dtype=np.int64), 0, 0)
    dst = lg.indices[np.repeat(pending, np.diff(lg.indptr))]
    pending[srcs_pending] = False
    if len(dst) == 0:
        return ComputeResult(np.empty(0, dtype=np.int64), 0, len(srcs_pending))
    np.add.at(state["removals"], dst, 1)
    return ComputeResult(np.unique(dst), int(len(dst)), int(len(srcs_pending)))


def ppr_compute(lg, state, num_sources):
    dst = lg.indices
    if len(dst) == 0:
        return ComputeResult(np.empty(0, dtype=np.int64), 0, lg.num_local)
    np.add.at(state["partial"], dst, state["contrib"][lg.edge_sources()])
    return ComputeResult(
        np.unique(dst), int(len(dst)) * num_sources, int(lg.num_local)
    )


def pagerank_compute(lg, state):
    """``PageRank.compute`` as a bincount of a writeable copy of the edge
    targets, weighted by ``contrib`` gathered at every edge's source."""
    dst = lg.indices.copy()
    if len(dst) == 0:
        return ComputeResult(np.empty(0, dtype=np.int64), 0, lg.num_local)
    state["partial"] += np.bincount(
        dst, weights=state["contrib"][lg.edge_sources()],
        minlength=state["partial"].size,
    )
    return ComputeResult(np.unique(dst), int(len(dst)), int(lg.num_local))


# ----------------------------------------------------------------------
# Chained delays
# ----------------------------------------------------------------------
def _unchained(gen):
    """Drive ``gen``, replaying every chained delay it yields as the
    separate waits the chain replaced.

    It wraps the generator handed to ``env.process``, so it sees a
    tuple yielded at any ``yield from`` depth below it.  Everything
    else — events, plain delays, values sent back, exceptions thrown in
    (an ``Interrupt`` may land between two links of a replayed chain) —
    passes through untouched.
    """
    value, thrown = None, None
    while True:
        try:
            if thrown is None:
                item = gen.send(value)
            else:
                item, thrown = gen.throw(thrown), None
        except StopIteration as stop:
            return stop.value
        value = None
        try:
            if item.__class__ is tuple:
                for delay in item:
                    yield delay
            else:
                value = yield item
        except BaseException as exc:  # handed on to the wrapped generator
            thrown = exc


@contextmanager
def unchained():
    """Every process started inside the block runs through
    :func:`_unchained`: the schedule the program had when each CPU
    charge was a wake of its own.  A chain is exact unless an entry of
    *another* process, scheduled while the chain sleeps, is due at the
    very float instant the chain ends (the chain took its sequence
    number earlier than the wake it replaces would have); a run that
    differs from its unchained twin has hit that, or a chain spans
    something another process can see."""
    real = Environment.process

    def process(self, gen, name=""):
        return real(self, _unchained(gen),
                    name or getattr(gen, "__name__", "process"))

    Environment.process = process
    try:
        yield
    finally:
        Environment.process = real


# ----------------------------------------------------------------------
# Event queue
# ----------------------------------------------------------------------
class ListScheduler:
    """The event queue as a list, sorted by ``(when, seq)`` after every
    schedule and popped from the front.  ``seq`` is the count of entries
    ``scheduled`` so far, so ties fire in scheduling order."""

    def __init__(self):
        self.now = 0.0
        self.scheduled = 0
        self._entries = []  # (when, seq, action)

    def schedule(self, when, action):
        """File ``action`` for the instant ``when``; the returned token
        cancels it."""
        self.scheduled += 1
        self._entries.append((when, self.scheduled, action))
        self._entries.sort(key=lambda entry: entry[:2])
        return self.scheduled

    def cancel(self, token):
        """Defuse an entry.  It stays due — the clock still moves to it
        when it drains — and does nothing."""
        self._entries = [(when, seq, None if seq == token else action)
                         for when, seq, action in self._entries]

    def pop(self):
        """Move the clock to the earliest entry; its action, or None."""
        self.now, _seq, action = self._entries.pop(0)
        return action


class _ListTimeout:
    def __init__(self, value):
        self.value = value
        self.waiter = None


class _ListProcess:
    """A generator driven over :class:`ListScheduler`: it may yield a
    delay, a chained delay or a timeout it has just made."""

    def __init__(self, env, gen):
        self.env = env
        self.gen = gen
        self.is_alive = True
        self.parked = None  # token of the entry that will wake it
        env.schedule(env.now, self._advance)  # nothing cancels the start

    def interrupt(self, cause=None):
        if self.is_alive:
            self._unpark()
            self.env.schedule(
                self.env.now, lambda: self._advance(thrown=Interrupt(cause)))

    def _unpark(self):
        if self.parked is not None:
            self.env.cancel(self.parked)
            self.parked = None

    def _advance(self, value=None, thrown=None):
        if not self.is_alive:
            return  # an interrupt for a process that has since finished
        self._unpark()  # ... or has since parked again (else: a no-op)
        env = self.env
        try:
            if thrown is None:
                item = self.gen.send(value)
            else:
                item = self.gen.throw(thrown)
        except StopIteration:
            self.is_alive = False
            env.schedule(env.now, None)  # its completion: nobody waits
            return
        if isinstance(item, _ListTimeout):
            item.waiter = self
            self.parked = item.token
        else:
            when = env.now
            for delay in item if isinstance(item, tuple) else (item,):
                when += delay
            self.parked = env.schedule(when, self._advance)


class ListEnvironment(ListScheduler):
    """Stands in for ``Environment`` under a test workload: ``now``,
    ``process`` (``interrupt``, ``is_alive``), ``timeout``,
    ``call_later``, ``peek``, ``step``, ``run``."""

    def process(self, gen):
        return _ListProcess(self, gen)

    def timeout(self, delay, value=None):
        timeout = _ListTimeout(value)
        timeout.token = self.schedule(
            self.now + delay,
            lambda: timeout.waiter and timeout.waiter._advance(timeout.value))
        return timeout

    def call_later(self, delay, fn):
        self.schedule(self.now + delay, fn)

    def peek(self):
        return self._entries[0][0] if self._entries else float("inf")

    def step(self):
        action = self.pop()
        if action is not None:
            action()

    def run(self):
        while self._entries:
            self.step()
