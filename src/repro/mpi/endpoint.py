"""Per-host MPI endpoint: two-sided p2p, probe, and the progress engine.

Every public operation is a *generator* to be driven by a simulated
process (``req = yield from ep.isend(...)``); the generator charges the
calling thread the modeled software costs as it executes.  This mirrors
reality: MPI work happens on whichever thread enters the library.

Protocol summary (matching mainstream implementations over psm2/verbs):

* payload <= ``eager_limit``: **eager** — the data travels in one packet;
  the sender copies through a bounce buffer and the request completes as
  soon as the NIC accepts the descriptor.  Each eager message parks in a
  receiver-side buffer until matched; those buffers are per-peer credits,
  and exhaustion stalls or aborts depending on the implementation preset
  (the failure mode Section III-B describes).
* payload >  ``eager_limit``: **rendezvous** — RTS control packet; the
  receiver answers with RTR once a matching receive is posted; the sender's
  progress engine then issues an RDMA put of the payload; the receive
  completes when the RDMA packet arrives.

Matching traverses the posted-receive / unexpected queues front-to-back,
charging per element inspected (:mod:`repro.mpi.matching`).

Two MUST-style usage rules are checked on every run and raise
:class:`~repro.sanitize.SanitizerError` where they break (reading state
only, so simulated time never moves):

* ``mpi.wildcard_order_hazard`` — a receive posted while a pending one
  overlaps it through a wildcard, so which message lands in which
  buffer depends on arrival interleaving;
* ``mpi.unexpected_watermark``  — the unexpected queue grew past
  :data:`UNEXPECTED_WATERMARK`, or past one peer's eager credits where
  the configuration provisions more (the Section III-B exhaustion
  failure mode building up).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.mpi.config import MpiConfig, ThreadMode
from repro.mpi.exceptions import (
    MPIProtocolError,
    MPIResourceExhausted,
    MPIUsageError,
)
from repro.mpi.matching import (
    PostedQueue,
    PostedReceive,
    UnexpectedMessage,
    UnexpectedQueue,
    signatures_overlap,
)
from repro.mpi.types import ANY_SOURCE, ANY_TAG, MpiRequest, MpiStatus
from repro.netapi.nic import Nic
from repro.netapi.packet import Packet, PacketType
from repro.sanitize import SanitizerError
from repro.sim.engine import Environment, Event
from repro.sim.machine import CpuModel
from repro.sim.resources import Lock

__all__ = ["MpiEndpoint", "UNEXPECTED_WATERMARK"]

#: Internal tag used by the world barrier.
_BARRIER_TAG = -2

#: Unexpected-queue length above which ``mpi.unexpected_watermark``
#: raises: far above anything a healthy graph run produces.  A
#: configuration that provisions more eager credits per peer (the
#: Fig. 1 message-rate benchmark sizes them to its whole window) raises
#: only past that many.
UNEXPECTED_WATERMARK = 1024


class MpiEndpoint:
    """One rank's view of the simulated MPI library."""

    #: The endpoint's counts: ``int`` attributes, zeroed at construction.
    COUNTERS = (
        "isends", "irecvs", "iprobes", "tests", "eager_sends", "rndv_sends",
        "unexpected_msgs", "tx_retries", "eager_stalls",
        "eager_exhaustion_aborts",
    )

    def __init__(
        self,
        env: Environment,
        rank: int,
        nic: Nic,
        cpu: CpuModel,
        config: MpiConfig,
        thread_mode: ThreadMode = ThreadMode.FUNNELED,
    ):
        self.env = env
        self.rank = rank
        self.nic = nic
        self.cpu = cpu
        self.config = config
        self.thread_mode = thread_mode

        self.posted = PostedQueue()
        self.unexpected = UnexpectedQueue()

        # Eager flow control: credits per destination.
        self._credits: Dict[int, int] = {}
        self._credit_waiters: Dict[int, List[Event]] = {}

        # THREAD_MULTIPLE: all calls serialize through this lock.
        self._lock = Lock(env, acquire_cost=config.thread_multiple_lock_cost)

        # FUNNELED enforcement: the identity of the one thread allowed in.
        self.funneled_owner: Optional[object] = None

        # RMA control-message handlers, registered by MpiWindow.
        self._rma_handlers: Dict[int, Callable[[Packet], None]] = {}

        # Barrier plumbing (used by MpiWorld.barrier).
        self._barrier_msgs: Deque[Tuple[int, Any]] = deque()
        self._barrier_waiters: List[Event] = []

        # Per-source sink buffers for rendezvous RDMA (lazily registered).
        self._rndv_sinks: Dict[int, int] = {}

        self._watermark = max(UNEXPECTED_WATERMARK,
                              config.eager_credits_per_peer)

        # Observability context, discovered like the fault injector.  The
        # matching queues learn about it so they can stamp arrival times,
        # and the queue-depth probes the paper's Fig. 6 narrative implies
        # are registered here.
        self.obs = nic.fabric.obs
        if self.obs is not None:
            self.unexpected.obs = self.obs
            self.unexpected.host = rank
            self.obs.register_probe(
                "mpi.unexpected_depth", rank, self.unexpected.__len__
            )
            self.obs.register_probe(
                "mpi.posted_depth", rank, self.posted.__len__
            )

        # Host-side profiler: the two traversal walks are timed (they
        # only run inside the event loop).  Their probe / enqueue counts
        # are the queues' own ints, read off the finished engine.
        prof = nic.fabric.profiler
        if prof is not None:
            self.posted.match_arrival = prof.timed(
                "sim.engine.run;mpi.matching.posted_walk",
                self.posted.match_arrival, sampled=True,
            )
            self.unexpected.match_receive = prof.timed(
                "sim.engine.run;mpi.matching.unexpected_walk",
                self.unexpected.match_receive, sampled=True,
            )

        # Hoisted per-call costs (the progress engine and the
        # isend/irecv/iprobe entry points are the hottest MPI code).
        self._entry_cost = self.cpu.call_overhead + self.config.call_overhead
        self._entry_lead = (self._entry_cost,)
        self._recv_overhead = self.nic.model.recv_overhead
        self._probe_overhead = self.config.probe_overhead
        self._match_cost = self.config.match_cost_per_element
        self._unexpected_cost = self.config.unexpected_cost_per_element
        self._send_overhead = self.nic.model.send_overhead
        self._tx_backoff = 4 * self.nic.model.injection_gap
        for name in self.COUNTERS:
            setattr(self, name, 0)
        # Send requests completed; the end-of-run audit checks it against
        # ``isends``.  Not a reported count, so not in ``COUNTERS``.
        self.sends_completed = 0

    # ------------------------------------------------------------------
    # Cost & locking helpers
    # ------------------------------------------------------------------
    def _charge(self, seconds: float):
        if seconds > 0:
            yield seconds

    def _enter(self, thread: Optional[object]):
        """Enter the library under the thread mode.

        Returns the entry cost still owed, as the lead of the caller's
        first chained delay: under MULTIPLE the library lock is taken
        once the cost is paid, so it is paid here and nothing is owed;
        otherwise nothing but the ownership check depends on it.
        """
        if self.thread_mode is ThreadMode.MULTIPLE:
            yield self._entry_cost
            yield from self._lock.acquire()
            return ()
        if thread is not None:
            if self.funneled_owner is None:
                self.funneled_owner = thread
            elif self.funneled_owner is not thread:
                raise MPIUsageError(
                    f"rank {self.rank}: MPI_THREAD_FUNNELED violated — "
                    f"thread {thread!r} called MPI but {self.funneled_owner!r} owns it"
                )
        return self._entry_lead

    def _exit(self):
        if self.thread_mode is ThreadMode.MULTIPLE:
            self._lock.release()

    # ------------------------------------------------------------------
    # Eager credits
    # ------------------------------------------------------------------
    def _credits_to(self, dst: int) -> int:
        return self._credits.setdefault(dst, self.config.eager_credits_per_peer)

    def _consume_credit(self, dst: int):
        """Generator: take one eager credit to ``dst``, stalling or aborting."""
        while self._credits_to(dst) <= 0:
            if self.config.crash_on_exhaustion:
                self.eager_exhaustion_aborts += 1
                raise MPIResourceExhausted(
                    f"rank {self.rank}: eager buffers to rank {dst} exhausted "
                    f"({self.config.name} aborts on resource exhaustion)"
                )
            self.eager_stalls += 1
            ev = Event(self.env)
            self._credit_waiters.setdefault(dst, []).append(ev)
            yield ev
        self._credits[dst] -= 1

    def _credit_home(self, dst: int) -> None:
        """Schedule the return of one eager credit for destination ``dst``.

        Credit returns are piggybacked on reverse traffic in real stacks;
        we model them as arriving one wire latency after consumption with
        no extra packet events.
        """

        def _arrive() -> None:
            self._credits[dst] = self._credits_to(dst) + 1
            waiters = self._credit_waiters.get(dst)
            if waiters:
                waiters.pop(0).succeed(None)

        self.env.call_later(self.nic.model.latency, _arrive)

    # ------------------------------------------------------------------
    # Injection with internal retry (MPI hides TX-queue-full)
    # ------------------------------------------------------------------
    def _inject(self, pkt: Packet, on_local_complete=None, notify_target=True,
                lead=()):
        """Charge the send overhead (chained onto ``lead``: the caller's
        charges since its last wake), then inject with internal retry."""
        yield lead + (self._send_overhead,) if lead else self._send_overhead
        while not self.nic.try_inject(pkt, on_local_complete, notify_target):
            self.tx_retries += 1
            yield self._tx_backoff

    # ------------------------------------------------------------------
    # Two-sided API
    # ------------------------------------------------------------------
    def isend(
        self,
        dst: int,
        tag: int,
        size: int,
        payload: Any = None,
        thread: Optional[object] = None,
        trace: Optional[str] = None,
    ):
        """Nonblocking send; returns an :class:`MpiRequest`.

        ``trace`` is an optional observability trace id; when set it
        rides the wire packets so the receive side can link its stage
        events to this send.
        """
        if tag < 0:
            raise MPIUsageError(f"negative user tag {tag}")
        lead = yield from self._enter(thread)
        try:
            req = MpiRequest("send", dst, tag, size)
            self.isends += 1
            if self.obs is not None and trace is not None:
                self.obs.emit(trace, "lib", self.rank, at=self.env.due(lead),
                              op="isend", dst=dst, bytes=size)
            if size <= self.config.eager_limit:
                yield from self._eager_send(
                    req, dst, tag, size, payload, trace, lead
                )
            else:
                yield from self._rndv_send(
                    req, dst, tag, size, payload, trace, lead
                )
            return req
        finally:
            self._exit()

    def _eager_send(self, req, dst, tag, size, payload, trace, lead):
        # Bounce-buffer copy so the user buffer is immediately reusable.
        copy = self.cpu.memcpy_time(size) * self.config.eager_copy_factor
        if copy > 0:
            lead += (copy,)
        if lead:
            yield lead
        yield from self._consume_credit(dst)
        pkt = Packet(PacketType.EGR, self.rank, dst, tag, size, payload=payload)
        pkt.meta["mpi"] = True
        if trace is not None:
            pkt.meta["trace"] = trace
        yield from self._inject(pkt)
        self.eager_sends += 1
        self._send_complete(req)

    def _rndv_send(self, req, dst, tag, size, payload, trace, lead):
        pkt = Packet(PacketType.RTS, self.rank, dst, tag, size)
        pkt.meta["mpi"] = True
        pkt.meta["send_req"] = req
        pkt.meta["data"] = payload
        if trace is not None:
            pkt.meta["trace"] = trace
        yield from self._inject(pkt, lead=lead)
        self.rndv_sends += 1

    def irecv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        thread: Optional[object] = None,
    ):
        """Nonblocking receive (wildcards allowed); returns a request."""
        lead = yield from self._enter(thread)
        try:
            if lead:
                # The walk takes the queue as it is once the entry is paid.
                yield lead
            req = MpiRequest("recv", source, tag, 0)
            self.irecvs += 1
            msg, inspected = self.unexpected.match_receive(source, tag)
            cost = inspected * self._unexpected_cost
            chain = (cost,) if cost > 0 else ()
            if msg is None:
                if chain:
                    yield chain
                self._check_wildcard_order(source, tag)
                self.posted.post(PostedReceive(req, source, tag))
                return req
            if self.obs is not None and msg.trace is not None:
                matched_at = self.env.due(chain)
                self.obs.emit(
                    msg.trace, "handler", self.rank, at=matched_at,
                    waited=matched_at - msg.arrived_at,
                    inspected=inspected, protocol=msg.protocol,
                )
            if msg.protocol == "eager":
                # Copy out of the MPI-internal buffer; credit goes home.
                copy = self.cpu.memcpy_time(msg.size)
                if copy > 0:
                    chain += (copy,)
                if chain:
                    yield chain
                req._complete(
                    msg.payload, MpiStatus(msg.source, msg.tag, msg.size)
                )
                if self.obs is not None and msg.trace is not None:
                    self.obs.emit(msg.trace, "complete", self.rank,
                                  bytes=msg.size)
                self._peer_credit_home(msg.source)
            else:  # rendezvous RTS parked unexpected
                yield from self._answer_rts(msg.token, req, chain)
            return req
        finally:
            self._exit()

    def _check_wildcard_order(self, source: int, tag: int) -> None:
        """MUST's nondeterministic-matching warning, at post time.
        Identical signatures are exempt: FIFO keeps them deterministic,
        and without a wildcard only identical ones overlap."""
        for entry in self.posted.items:
            if (entry.source, entry.tag) != (source, tag) and \
                    signatures_overlap(entry.source, entry.tag, source, tag):
                raise SanitizerError(
                    "mpi.wildcard_order_hazard", self.rank, self.env.now,
                    f"receive ({source},{tag}) posted while pending "
                    f"receive ({entry.source},{entry.tag}) overlaps it "
                    "through a wildcard: which message matches which "
                    "buffer depends on arrival interleaving",
                    {"new_source": source, "new_tag": tag,
                     "pending_source": entry.source,
                     "pending_tag": entry.tag})

    def _watermark_breached(self) -> None:
        queue_len = len(self.unexpected)
        raise SanitizerError(
            "mpi.unexpected_watermark", self.rank, self.env.now,
            f"unexpected-message queue reached {queue_len} entries "
            f"(watermark {self._watermark}): receives are not "
            "keeping up with arrivals — the Section III-B exhaustion "
            "failure mode",
            {"queue_len": queue_len, "watermark": self._watermark})

    def _answer_rts(self, rts_pkt: Packet, req: MpiRequest, lead=()):
        """Post the RTR reply that lets the sender RDMA the payload."""
        if self.cpu.alloc_cost > 0:  # allocate recv buffer
            lead += (self.cpu.alloc_cost,)
        rtr = Packet(
            PacketType.RTR, self.rank, rts_pkt.src, rts_pkt.tag,
            rts_pkt.size,
        )
        rtr.meta["mpi"] = True
        rtr.meta["send_req"] = rts_pkt.meta["send_req"]
        rtr.meta["data"] = rts_pkt.meta["data"]
        rtr.meta["recv_req"] = req
        if rts_pkt.meta.get("trace") is not None:
            rtr.meta["trace"] = rts_pkt.meta["trace"]
        yield from self._inject(rtr, lead=lead)

    def _peer_credit_home(self, src: int) -> None:
        """We consumed an eager message from ``src``; return their credit."""
        peer = self._world_lookup(src)
        if peer is not None:
            peer._credit_home(self.rank)

    # World back-reference, set by MpiWorld so credits can flow home.
    _world = None

    def _world_lookup(self, rank: int) -> Optional["MpiEndpoint"]:
        if self._world is None:
            return None
        return self._world.endpoint(rank)

    def iprobe(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        thread: Optional[object] = None,
    ):
        """Nonblocking probe; returns an :class:`MpiStatus` or ``None``.

        Per MPI semantics a probe must advance the progress engine (else a
        loop of probes would never observe arrivals), which is exactly the
        overhead the paper's "probe" curve in Fig. 1 pays.
        """
        lead = yield from self._enter(thread)
        try:
            self.iprobes += 1
            if self._probe_overhead > 0:
                lead += (self._probe_overhead,)
            yield from self._progress_locked(lead)
            # Probe semantics: report the match, leave it queued.
            msg, inspected = self.unexpected.match_receive(source, tag, False)
            cost = inspected * self._unexpected_cost
            if cost > 0:
                yield cost
            if msg is None:
                return None
            return MpiStatus(msg.source, msg.tag, msg.size)
        finally:
            self._exit()

    def test(self, req: MpiRequest, thread: Optional[object] = None):
        """Nonblocking completion check; returns bool.

        Costs a library call plus a progress pass — the paper contrasts
        this with LCI's free status-flag read.
        """
        lead = yield from self._enter(thread)
        try:
            self.tests += 1
            if self.config.test_overhead > 0:
                lead += (self.config.test_overhead,)
            if lead:
                yield lead
            if not req.done:
                yield from self._progress_locked()
            return req.done
        finally:
            self._exit()

    def wait(self, req: MpiRequest, thread: Optional[object] = None):
        """Block (the simulated thread) until ``req`` completes."""
        while True:
            done = yield from self.test(req, thread=thread)
            if done:
                return req
            # Sleep until either the request completes (e.g. via another
            # thread's progress) or a packet arrives to be progressed.
            done_ev = Event(self.env)
            req.on_complete(
                lambda _r: None if done_ev.triggered else done_ev.succeed(None)
            )
            yield self.env.any_of([done_ev, self.nic.wait_arrival()])

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        thread: Optional[object] = None,
    ):
        """Blocking receive; returns (payload, status)."""
        req = yield from self.irecv(source, tag, thread=thread)
        yield from self.wait(req, thread=thread)
        return req.payload, req.status

    def send(self, dst: int, tag: int, size: int, payload: Any = None,
             thread: Optional[object] = None):
        """Blocking send."""
        req = yield from self.isend(dst, tag, size, payload, thread=thread)
        yield from self.wait(req, thread=thread)
        return req

    # ------------------------------------------------------------------
    # Progress engine
    # ------------------------------------------------------------------
    def progress(self, thread: Optional[object] = None):
        """One externally-invoked progress pass (drains the NIC)."""
        lead = yield from self._enter(thread)
        try:
            yield from self._progress_locked(lead)
        finally:
            self._exit()

    def _progress_locked(self, lead=()):
        """One pass of the progress engine; ``lead`` is what the caller
        has charged since its last wake (chained onto the pass's own
        overhead)."""
        po = self.config.progress_overhead
        if lead:
            yield lead + (po,) if po > 0 else lead
        elif po > 0:
            yield po
        poll = self.nic.poll
        recv_overhead = self._recv_overhead
        while True:
            pkt = poll()
            if pkt is None:
                return
            if recv_overhead > 0:
                yield recv_overhead
            yield from self._handle_packet(pkt)

    def _handle_packet(self, pkt: Packet):
        meta = pkt.meta
        if self.obs is not None and meta.get("trace") is not None:
            self.obs.emit(meta["trace"], "progress", self.rank,
                          ptype=pkt.ptype.name)
        if meta.get("rma_win") is not None:
            handler = self._rma_handlers.get(meta["rma_win"])
            if handler is None:
                raise MPIUsageError(
                    f"rank {self.rank}: RMA control for unknown window "
                    f"{meta['rma_win']}"
                )
            handler(pkt)
            return
        if pkt.tag == _BARRIER_TAG:
            self._barrier_msgs.append((pkt.src, pkt.payload))
            waiters, self._barrier_waiters = self._barrier_waiters, []
            for ev in waiters:
                ev.succeed(None)
            return
        if pkt.ptype is PacketType.EGR:
            yield from self._arrival_eager(pkt)
        elif pkt.ptype is PacketType.RTS:
            yield from self._arrival_rts(pkt)
        elif pkt.ptype is PacketType.RTR:
            yield from self._arrival_rtr(pkt)
        elif pkt.ptype is PacketType.RDMA:
            yield from self._arrival_rdma(pkt)
        else:  # pragma: no cover - exhaustive
            raise MPIUsageError(f"unhandled packet {pkt!r}")

    def _arrival_eager(self, pkt: Packet):
        entry, inspected = self.posted.match_arrival(pkt.src, pkt.tag)
        cost = inspected * self._match_cost
        if cost > 0:
            yield cost
        tr = pkt.meta.get("trace") if self.obs is not None else None
        if entry is not None:
            req = entry.req
            if tr is not None:
                self.obs.emit(tr, "handler", self.rank,
                              inspected=inspected, posted=True)
            yield from self._charge(self.cpu.memcpy_time(pkt.size))
            req._complete(
                pkt.payload, MpiStatus(pkt.src, pkt.tag, pkt.size)
            )
            if tr is not None:
                self.obs.emit(tr, "complete", self.rank, bytes=pkt.size)
            self._peer_credit_home(pkt.src)
        else:
            self.unexpected_msgs += 1
            self.unexpected.add(
                UnexpectedMessage(
                    pkt.src, pkt.tag, pkt.size, pkt.payload, "eager",
                    trace=pkt.meta.get("trace"),
                )
            )
            if len(self.unexpected) > self._watermark:
                self._watermark_breached()

    def _arrival_rts(self, pkt: Packet):
        entry, inspected = self.posted.match_arrival(pkt.src, pkt.tag)
        cost = inspected * self._match_cost
        if cost > 0:
            yield cost
        if entry is not None:
            req = entry.req
            if self.obs is not None and pkt.meta.get("trace") is not None:
                self.obs.emit(pkt.meta["trace"], "handler", self.rank,
                              inspected=inspected, posted=True)
            yield from self._answer_rts(pkt, req)
        else:
            self.unexpected_msgs += 1
            self.unexpected.add(
                UnexpectedMessage(
                    pkt.src, pkt.tag, pkt.size, None, "rndv", token=pkt,
                    trace=pkt.meta.get("trace"),
                )
            )
            if len(self.unexpected) > self._watermark:
                self._watermark_breached()

    def _arrival_rtr(self, pkt: Packet):
        """We are the rendezvous sender; RTR authorizes the RDMA put."""
        send_req: MpiRequest = pkt.meta["send_req"]
        data_pkt = Packet(
            PacketType.RDMA, self.rank, pkt.src, pkt.tag, pkt.size,
            payload=pkt.meta["data"],
        )
        data_pkt.meta["mpi"] = True
        data_pkt.meta["recv_req"] = pkt.meta["recv_req"]
        data_pkt.meta["rkey"] = self._rndv_sink_rkey(pkt.src)
        if pkt.meta.get("trace") is not None:
            data_pkt.meta["trace"] = pkt.meta["trace"]
        # Account for imperfect pipelining of the large transfer.
        eff = self.config.bandwidth_efficiency
        if eff < 1.0:
            penalty = self.nic.model.serialization_time(pkt.size) * (1 / eff - 1)
            yield from self._charge(penalty)
        yield from self._inject(
            data_pkt,
            on_local_complete=lambda: self._send_complete(send_req),
        )

    def _send_complete(self, req: MpiRequest) -> None:
        self.sends_completed += 1
        req._complete()

    def _rndv_sink_rkey(self, dst: int) -> int:
        """rkey of the peer's sink region for our rendezvous payloads."""
        peer = self._world_lookup(dst)
        rkey = peer._rndv_sinks.get(self.rank)
        if rkey is None:
            buf = peer.nic.register(1 << 40, label=f"rndv-sink-from-{self.rank}")
            rkey = buf.rkey
            peer._rndv_sinks[self.rank] = rkey
        return rkey

    def _arrival_rdma(self, pkt: Packet):
        recv_req: MpiRequest = pkt.meta["recv_req"]
        if recv_req.done:
            # MPI assumes a reliable transport: a duplicated rendezvous
            # payload double-completes the request.  No recovery protocol
            # exists at this layer — surface the internal error (only
            # reachable under fault injection).
            raise MPIProtocolError(
                f"rank {self.rank}: rendezvous payload for completed "
                f"request {recv_req.uid} (duplicate delivery — MPI "
                f"assumes reliable transport)"
            )
        yield from self._charge(0)  # data landed by RDMA; no copy here
        recv_req._complete(
            pkt.payload, MpiStatus(pkt.src, pkt.tag, pkt.size)
        )
        if self.obs is not None and pkt.meta.get("trace") is not None:
            self.obs.emit(pkt.meta["trace"], "complete", self.rank,
                          bytes=pkt.size)

    # ------------------------------------------------------------------
    # Barrier support (used by MpiWorld)
    # ------------------------------------------------------------------
    def _barrier_wait_msg(self, src: int, round_no: int):
        """Wait for the dissemination-barrier message of ``round_no``."""
        while True:
            for i, (s, r) in enumerate(self._barrier_msgs):
                if s == src and r == round_no:
                    del self._barrier_msgs[i]
                    return
            ev = Event(self.env)
            self._barrier_waiters.append(ev)
            arrival = self.nic.wait_arrival()
            yield self.env.any_of([ev, arrival])
            yield from self._progress_locked()
