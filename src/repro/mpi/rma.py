"""MPI one-sided (RMA) windows with generalized active-target sync.

This models the MPI-RMA communication layer of Section III-C:

* Receive buffers are **preallocated at worst-case size** — for ``p``
  hosts, each host exposes one buffer per possible origin, sized to the
  maximum message it could ever receive from that origin (all nodes
  active).  That preallocation is what makes MPI-RMA's memory footprint
  up to an order of magnitude larger than LCI's (Fig. 5).
* Synchronization is **PSCW** (post/start/complete/wait), the
  "generalized active target" model the paper chose over ``MPI_Win_fence``
  because fencing waits for *all* hosts.  POST and COMPLETE notifications
  travel as small control packets handled by the MPI progress engine;
  the data itself moves with hardware RDMA puts that never involve the
  target CPU.

Usage (from a rank's simulated process)::

    win = MpiWindow(world, size_fn=lambda o, t: max_bytes[o][t])
    yield from win.create(rank)          # collective
    ...
    yield from win.post(rank, origins)   # expose my buffers
    yield from win.start(rank, targets)  # open access epoch
    yield from win.put(rank, t, nbytes, payload)
    yield from win.complete(rank)
    blobs = yield from win.wait(rank)    # [(origin, payload, nbytes)]

A put with no open access epoch is an
:class:`~repro.mpi.exceptions.MPIUsageError`.  Two puts into overlapping
byte ranges of one target slot within one access epoch raise
:class:`~repro.sanitize.SanitizerError` ``mpi.rma_overlapping_put``: a
window data race whose outcome is whichever put the NIC orders last.
Both are checked on every run.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.mpi.exceptions import MPIUsageError
from repro.mpi.world import MpiWorld
from repro.netapi.nic import RegisteredBuffer
from repro.netapi.packet import Packet, PacketType
from repro.sanitize import SanitizerError
from repro.sim.engine import Event

__all__ = ["MpiWindow"]

_win_ids = itertools.count(1)


class _RankState:
    """Per-rank epoch bookkeeping for one window."""

    __slots__ = (
        "exposed_to",
        "started_targets",
        "posts_seen",
        "completes_seen",
        "pending_puts",
        "wake",
        "recv_order",
        "epoch_puts",
    )

    def __init__(self):
        self.exposed_to: Set[int] = set()       # origins of current exposure
        self.started_targets: Set[int] = set()  # targets of current access
        self.posts_seen: Set[int] = set()       # targets whose POST arrived
        self.completes_seen: Set[int] = set()   # origins whose COMPLETE arrived
        self.pending_puts = 0                   # local puts awaiting ACK
        self.wake: Optional[Event] = None       # parked waiter, if any
        self.recv_order: List[int] = []         # completes in arrival order
        #: target -> [lo, hi) byte ranges put in the current access epoch.
        self.epoch_puts: Dict[int, List[Tuple[int, int]]] = {}


class MpiWindow:
    """A collective set of worst-case-sized RMA receive buffers."""

    def __init__(
        self,
        world: MpiWorld,
        size_fn: Callable[[int, int], int],
        label: str = "win",
    ):
        """``size_fn(origin, target)`` gives the worst-case bytes origin
        may put to target.  A zero size means that pair never communicates
        and no buffer is allocated for it.
        """
        self.world = world
        self.env = world.env
        self.label = label
        self.win_id = next(_win_ids)
        p = world.size
        self._state = [_RankState() for _ in range(p)]
        #: (origin, target) -> RegisteredBuffer at the target.
        self._bufs: Dict[Tuple[int, int], RegisteredBuffer] = {}
        self._sizes: Dict[Tuple[int, int], int] = {}
        #: target -> bytes of all its slots.
        self._exposed = [0] * p
        #: When True, a dedicated progress thread drains the library and
        #: window waits only sleep on their wake events instead of also
        #: pumping progress themselves (halves per-arrival costs — the
        #: paper's layer runs such a thread, Section III-C).
        self.external_progress = False
        for target in range(p):
            for origin in range(p):
                if origin == target:
                    continue
                nbytes = int(size_fn(origin, target))
                if nbytes <= 0:
                    continue
                self._sizes[(origin, target)] = nbytes
                self._exposed[target] += nbytes
        for ep in world.endpoints:
            ep._rma_handlers[self.win_id] = self._make_handler(ep.rank)
        self._created = [False] * p
        # Observability: puts carry trace ids; epoch waits record stalls.
        self.obs = world.fabric.obs

    # ------------------------------------------------------------------
    # Creation (collective)
    # ------------------------------------------------------------------
    def create(self, rank: int):
        """Collective window creation; call from every rank.

        Charges the per-rank creation cost (scales with world size, as
        window creation is collective) and registers this rank's receive
        buffers with its NIC.  Ends with a barrier, as MPI_Win_create
        returns only when all ranks have created the window.
        """
        world = self.world
        ep = world.endpoint(rank)
        cost = ep.config.win_create_cost_per_rank * world.size
        yield cost
        for (origin, target), nbytes in self._sizes.items():
            if target != rank:
                continue
            buf = ep.nic.register(
                nbytes, label=f"{self.label}.o{origin}->t{target}"
            )
            self._bufs[(origin, target)] = buf
        self._created[rank] = True
        yield from world.barrier(rank)

    def bytes_allocated(self, rank: int) -> int:
        """Window memory exposed at ``rank`` (the Fig. 5 footprint term)."""
        return self._exposed[rank]

    # ------------------------------------------------------------------
    # Control-message plumbing
    # ------------------------------------------------------------------
    def _make_handler(self, rank: int):
        def _on_control(pkt: Packet) -> None:
            st = self._state[rank]
            op = pkt.meta["rma_op"]
            if op == "post":
                st.posts_seen.add(pkt.src)
            elif op == "complete":
                st.completes_seen.add(pkt.src)
                st.recv_order.append(pkt.src)
            else:  # pragma: no cover - exhaustive
                raise MPIUsageError(f"unknown RMA control {op!r}")
            if st.wake is not None and not st.wake.triggered:
                st.wake.succeed(None)
            st.wake = None

        return _on_control

    def _send_control(self, rank: int, dst: int, op: str):
        """POST/COMPLETE notification.

        These are tiny active-message-style notifications on the
        library's lightweight path: half the data-send descriptor cost
        (no user buffer, no protocol selection), then a normal inject.
        """
        ep = self.world.endpoint(rank)
        pkt = Packet(PacketType.EGR, rank, dst, -3, 16)
        pkt.meta["rma_win"] = self.win_id
        pkt.meta["rma_op"] = op
        yield ep.nic.model.send_overhead * 0.5
        while not ep.nic.try_inject(pkt):
            yield 4 * ep.nic.model.injection_gap

    def _await(self, rank: int, ready: Callable[[], bool]):
        """Wait until ``ready()``.

        With ``external_progress`` the dedicated progress thread drains
        the library and this only sleeps on the window's wake event;
        otherwise the caller pumps progress itself between arrivals.
        """
        ep = self.world.endpoint(rank)
        st = self._state[rank]
        while not ready():
            if self.external_progress:
                ev = Event(self.env)
                st.wake = ev
                if ready():  # re-check after arming (handler may have run)
                    st.wake = None
                    return
                yield ev
                continue
            yield from ep.progress()
            if ready():
                return
            ev = Event(self.env)
            st.wake = ev
            yield self.env.any_of([ev, ep.nic.wait_arrival()])

    # ------------------------------------------------------------------
    # PSCW epochs
    # ------------------------------------------------------------------
    def post(self, rank: int, origins: Iterable[int]):
        """Expose this rank's buffers to ``origins`` (MPI_Win_post)."""
        st = self._state[rank]
        if st.exposed_to:
            raise MPIUsageError(f"rank {rank}: nested exposure epoch")
        origins = set(origins)
        ep = self.world.endpoint(rank)
        yield ep.config.rma_sync_overhead
        st.exposed_to = origins
        st.completes_seen = set()
        st.recv_order = []
        for o in sorted(origins):
            yield from self._send_control(rank, o, "post")

    def start(self, rank: int, targets: Iterable[int]):
        """Open an access epoch to ``targets`` (MPI_Win_start).

        Blocks until the matching POST from every target has arrived —
        the generalized active-target handshake.
        """
        st = self._state[rank]
        if st.started_targets:
            raise MPIUsageError(f"rank {rank}: nested access epoch")
        targets = set(targets)
        ep = self.world.endpoint(rank)
        yield ep.config.rma_sync_overhead
        t0 = self.env.now
        yield from self._await(rank, lambda: targets <= st.posts_seen)
        if self.obs is not None:
            self.obs.stall(rank, "epoch_start_wait", t0, self.env.now)
        st.posts_seen -= targets
        st.started_targets = targets
        st.pending_puts = 0
        st.epoch_puts = {}

    def put(self, rank: int, target: int, nbytes: int, payload,
            offset: int = 0, trace: Optional[str] = None):
        """RDMA-put ``payload`` into our slot at ``target`` (MPI_Put)."""
        st = self._state[rank]
        if target not in st.started_targets:
            raise MPIUsageError(
                f"rank {rank}: put to {target} outside access epoch"
            )
        buf = self._bufs.get((rank, target))
        if buf is None:
            raise MPIUsageError(f"no window buffer for pair ({rank},{target})")
        cap = self._sizes[(rank, target)]
        if nbytes > cap:
            raise MPIUsageError(
                f"put of {nbytes}B exceeds worst-case window slot {cap}B "
                f"for pair ({rank},{target})"
            )
        lo, hi = offset, offset + max(nbytes, 1)
        ranges = st.epoch_puts.setdefault(target, [])
        for (plo, phi) in ranges:
            if lo < phi and plo < hi:
                raise SanitizerError(
                    "mpi.rma_overlapping_put", rank, self.env.now,
                    f"window {self.label!r}: put of [{lo},{hi}) to target "
                    f"{target} overlaps an earlier put of [{plo},{phi}) in "
                    "the same access epoch — a window data race (the NIC "
                    "orders the writes arbitrarily)",
                    {"target": target, "offset": lo, "nbytes": nbytes,
                     "earlier_offset": plo, "earlier_end": phi})
        ranges.append((lo, hi))
        ep = self.world.endpoint(rank)
        if self.obs is not None and trace is not None:
            self.obs.emit(trace, "lib", rank,
                          op="put", dst=target, bytes=nbytes)
        pkt = Packet(PacketType.RDMA, rank, target, -3, nbytes, payload=payload)
        pkt.meta["rkey"] = buf.rkey
        pkt.meta["offset"] = offset
        if trace is not None:
            pkt.meta["trace"] = trace
        st.pending_puts += 1

        def _acked() -> None:
            st.pending_puts -= 1
            if st.wake is not None and not st.wake.triggered:
                st.wake.succeed(None)
                st.wake = None

        # Hardware put: the target CPU is not notified.  The put overhead
        # leads the injection's send overhead as one chained delay.
        yield from ep._inject(
            pkt, on_local_complete=_acked, notify_target=False,
            lead=(ep.config.rma_put_overhead,),
        )

    def complete(self, rank: int, flush: bool = True):
        """Close the access epoch (MPI_Win_complete).

        Waits for local ACKs of all outstanding puts (so COMPLETE cannot
        overtake data), then notifies every started target.
        """
        st = self._state[rank]
        ep = self.world.endpoint(rank)
        yield ep.config.rma_sync_overhead
        if flush:
            t0 = self.env.now
            yield from self._await(rank, lambda: st.pending_puts == 0)
            if self.obs is not None:
                self.obs.stall(rank, "epoch_flush_wait", t0, self.env.now)
        # MPI_Win_complete synchronizes: a race cannot span it.
        targets, st.started_targets = st.started_targets, set()
        st.epoch_puts = {}
        for t in sorted(targets):
            yield from self._send_control(rank, t, "complete")

    def wait(self, rank: int):
        """Close the exposure epoch (MPI_Win_wait).

        Returns ``[(origin, payload, nbytes), ...]`` for every origin that
        actually deposited data, in COMPLETE-arrival order.
        """
        st = self._state[rank]
        ep = self.world.endpoint(rank)
        yield ep.config.rma_sync_overhead
        t0 = self.env.now
        yield from self._await(
            rank, lambda: st.exposed_to <= st.completes_seen
        )
        if self.obs is not None:
            self.obs.stall(rank, "epoch_close_wait", t0, self.env.now)
        received = []
        for origin in st.recv_order:
            buf = self._bufs.get((origin, rank))
            if buf is None or not buf.contents:
                continue
            for offset in sorted(buf.contents):
                payload = buf.contents[offset]
                received.append((origin, payload, buf.bytes_written))
            buf.clear()
        st.completes_seen -= st.exposed_to
        st.exposed_to = set()
        st.recv_order = []
        return received

    def test_wait(self, rank: int, origin: int):
        """Fine-grained wait: block until ``origin``'s COMPLETE arrives.

        This is the paper's fine-grained synchronization — the host
        scatters one origin's buffer as soon as that origin completes,
        instead of waiting for everyone.  Returns (payload, nbytes) or
        (None, 0) if the origin deposited nothing.
        """
        st = self._state[rank]
        if origin not in st.exposed_to:
            raise MPIUsageError(
                f"rank {rank}: origin {origin} not in exposure epoch"
            )
        t0 = self.env.now
        yield from self._await(rank, lambda: origin in st.completes_seen)
        if self.obs is not None:
            self.obs.stall(rank, "epoch_collect_wait", t0, self.env.now)
        buf = self._bufs.get((origin, rank))
        if buf is None or not buf.contents:
            return None, 0
        payloads = [buf.contents[o] for o in sorted(buf.contents)]
        nbytes = buf.bytes_written
        buf.clear()
        payload = payloads[0] if len(payloads) == 1 else payloads
        return payload, nbytes

    def finish_exposure(self, rank: int) -> None:
        """Bookkeeping close of the exposure epoch after test_wait use."""
        st = self._state[rank]
        st.completes_seen -= st.exposed_to
        st.exposed_to = set()
        st.recv_order = []
