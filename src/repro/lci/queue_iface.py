"""The LCI *Queue* interface: SEND-ENQ and RECV-DEQ (Algorithms 1 & 2).

Communication happens in two steps (Section III-D):

* **Initiation** — ``send_enq`` / ``recv_deq`` obtain resources or check
  for an incoming packet.  Initiation *can fail* (pool empty, nothing
  pending); failure is non-fatal, the caller retries later.  Both are
  short and safe to call from any compute thread concurrently — the only
  shared state is the lock-free pool and queue.
* **Completion** — progress is implicit (the communication server drives
  it); when an operation finishes its request's boolean flag flips.
  Checking the flag costs nothing.

There is no tag matching and no ordering enforcement: ``recv_deq``
returns whatever packet arrived first (the *first-packet policy*).  A
user needing order keeps their own list of requests — Abelian's layer
does exactly that per incoming host.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.lci.backends import BACKENDS
from repro.lci.config import LciConfig
from repro.lci.mpmc_queue import MpmcQueue
from repro.lci.packet_pool import PacketPool
from repro.lci.request import LciRequest
from repro.netapi.nic import Nic
from repro.netapi.packet import Packet, PacketType
from repro.sanitize.lci_checks import LciSanitizer
from repro.sim.engine import Environment
from repro.sim.machine import CpuModel

__all__ = ["LciQueue"]


class LciQueue:
    """One host's LCI endpoint state: pool ``P``, queue ``Q``, NIC."""

    #: The runtime's counts: ``int`` attributes, zeroed at construction.
    #: The last five are the communication server's.
    COUNTERS = (
        "egr_sends", "rts_sends", "egr_recvs", "rtr_sends", "server_pkts",
        "server_pool_stalls", "rdma_recvs", "rdma_puts", "rdma_tx_retries",
    )

    def __init__(
        self,
        env: Environment,
        rank: int,
        nic: Nic,
        cpu: CpuModel,
        num_hosts: int,
        config: Optional[LciConfig] = None,
    ):
        self.env = env
        self.rank = rank
        self.nic = nic
        self.cpu = cpu
        self.config = config or LciConfig()
        if self.config.backend not in BACKENDS:
            raise ValueError(
                f"unknown LCI backend {self.config.backend!r}; "
                f"pick from {sorted(BACKENDS)}"
            )
        self.backend = BACKENDS[self.config.backend]
        self.pool = PacketPool(
            env,
            cpu,
            size=self.config.pool_size(num_hosts),
            packet_data_bytes=self.config.packet_data_bytes,
            local_cache_packets=self.config.local_cache_packets,
            local_hit_cost_factor=self.config.local_hit_cost_factor,
        )
        self.queue = MpmcQueue(env, cpu)
        # Recovery protocol: armed only when an installed fault plan can
        # lose/duplicate/reorder packets; otherwise sends go straight to
        # the NIC and no protocol state exists.
        self.reliability = None
        faults = nic.fabric.faults
        if faults is not None and faults.plan.needs_reliability:
            from repro.lci.reliability import ReliableLink

            self.reliability = ReliableLink(env, nic, self.config)
        # Lifecycle sanitizer, discovered like the fault injector.  The
        # pool cannot see the fabric, so the queue hands it the checker.
        self.sanitizer: Optional[LciSanitizer] = None
        _ctx = nic.fabric.sanitizer
        if _ctx is not None:
            self.sanitizer = LciSanitizer(_ctx, rank)
            self.pool.sanitizer = self.sanitizer
        # Observability: pool-occupancy and queue-depth probes.
        self.obs = nic.fabric.obs
        if self.obs is not None:
            self.pool.register_obs(self.obs, rank)
            self.obs.register_probe(
                "lci.queue_depth", rank, self.queue.__len__
            )
        # Hoisted per-op cost for the hot generators below.
        self._send_overhead = (
            self.nic.model.send_overhead + self.backend.send_extra
        )
        for name in self.COUNTERS:
            setattr(self, name, 0)

    # ------------------------------------------------------------------
    # Algorithm 1: SEND-ENQ
    # ------------------------------------------------------------------
    def send_enq(
        self,
        dst: int,
        tag: int,
        size: int,
        payload: Any = None,
        thread: object = None,
        trace: Optional[str] = None,
    ):
        """Generator: initiate a send; returns an LciRequest or ``None``.

        ``None`` means no packet was available — retry later (the pool is
        the flow control; this is the non-fatal failure MPI lacks).
        ``trace`` is an optional observability trace id carried on the
        wire packets.
        """
        ok = yield from self.pool.alloc(thread)
        if not ok:
            return None
        if self.obs is not None and trace is not None:
            self.obs.emit(trace, "lib", self.rank,
                          op="send_enq", dst=dst, bytes=size)
        req = LciRequest("send", dst, tag, size)
        if size <= self.config.packet_data_bytes:
            # Short protocol: copy into the packet, fire, done.  Nothing
            # happens between the copy and the send overhead, so the two
            # charges are one chained delay.
            yield (self.cpu.memcpy_time(size), self._send_overhead)
            pkt = self.pool.make_packet(
                PacketType.EGR, self.rank, dst, tag, size, payload=payload
            )
            pkt.request = req
            if trace is not None:
                pkt.meta["trace"] = trace
            ok = self._lc_send(
                pkt, on_local_complete=lambda: self.pool.free_nowait(thread)
            )
            if not ok:
                self.pool.free_nowait(thread)
                return None
            self.egr_sends += 1
            req._complete()
        else:
            # Rendezvous: zero-copy RTS advertising the source buffer.
            pkt = self.pool.make_packet(
                PacketType.RTS, self.rank, dst, tag, size
            )
            pkt.request = req
            pkt.meta["data"] = payload
            if trace is not None:
                pkt.meta["trace"] = trace
            yield from self.charge_send_overhead()
            ok = self._lc_send(pkt)
            if not ok:
                self.pool.free_nowait(thread)
                return None
            self.rts_sends += 1
            # req stays PENDING; completes when the RDMA put is ACKed.
        return req

    def _lc_send(self, pkt: Packet, on_local_complete=None) -> bool:
        """The lc_send primitive: non-blocking, short, any thread.

        The send-overhead cost is charged by the caller's generator via
        :meth:`charge_send_overhead`; splitting it out keeps _lc_send
        callable from non-generator callbacks (the server's RTR handler).
        """
        if self.reliability is not None:
            return self.reliability.send(pkt, on_local_complete)
        return self.nic.try_inject(pkt, on_local_complete)

    def charge_send_overhead(self):
        yield self._send_overhead

    # ------------------------------------------------------------------
    # Algorithm 2: RECV-DEQ
    # ------------------------------------------------------------------
    def recv_deq(self, thread: object = None, source: Optional[int] = None):
        """Generator: dequeue one incoming message; LciRequest or ``None``.

        Returns a request whose ``peer``/``tag``/``size`` describe the
        message.  For eager packets the request is already DONE with the
        payload attached; for rendezvous it is PENDING and completes when
        the bulk data lands.  ``source`` is only legal in the
        ``enforce_ordering`` ablation.
        """
        if source is not None and not self.config.enforce_ordering:
            raise ValueError(
                "source-selective dequeue requires enforce_ordering ablation"
            )
        if source is not None:
            pkt = yield from self.queue.dequeue_from(source)
        else:
            pkt = yield from self.queue.dequeue()
        if pkt is None:
            return None
        self.pool.touch(pkt)
        tr = pkt.meta.get("trace") if self.obs is not None else None
        if tr is not None:
            self.obs.emit(tr, "handler", self.rank, ptype=pkt.ptype.name)
        req = LciRequest("recv", pkt.src, pkt.tag, pkt.size)
        if pkt.ptype is PacketType.EGR:
            # Allocate a user buffer and copy out; free the pool packet.
            yield (self.cpu.alloc_cost, self.cpu.memcpy_time(pkt.size))
            req._complete(pkt.payload)
            if tr is not None:
                self.obs.emit(tr, "complete", self.rank, bytes=pkt.size)
            self.pool.retire(pkt)
            yield from self.pool.free(thread)
            self.egr_recvs += 1
        elif pkt.ptype is PacketType.RTS:
            # Rendezvous: allocate the landing buffer, answer with RTR.
            # The received packet is *reused* as the RTR (no new alloc);
            # its pool budget travels with the protocol and is freed when
            # the RDMA completion arrives back here (Algorithm 3).
            yield self.cpu.alloc_cost
            rtr = Packet(
                PacketType.RTR, self.rank, pkt.src, pkt.tag, pkt.size
            )
            rtr.meta["send_req"] = pkt.request
            rtr.meta["data"] = pkt.meta["data"]
            rtr.meta["recv_req"] = req
            if tr is not None:
                rtr.meta["trace"] = tr
            yield from self.charge_send_overhead()
            while not self._lc_send(rtr):
                yield self.config.retry_backoff
            self.rtr_sends += 1
        else:  # pragma: no cover - server never enqueues other types
            raise RuntimeError(f"unexpected packet in Q: {pkt!r}")
        return req

    # ------------------------------------------------------------------
    # Convenience blocking wrappers (used by tests and microbenchmarks;
    # Abelian's layer drives the non-blocking API directly)
    # ------------------------------------------------------------------
    def send_blocking(self, dst, tag, size, payload=None, thread=None):
        """Retry send_enq until initiation succeeds, then wait for DONE."""
        while True:
            req = yield from self.send_enq(dst, tag, size, payload, thread)
            if req is not None:
                break
            yield self.pool.wait_available()
        while not req.done:
            ev = self.env.event()
            req.on_complete(lambda _r: None if ev.triggered else ev.succeed(None))
            yield ev
        return req

    def recv_blocking(self, thread=None):
        """Retry recv_deq until a message is dequeued and complete."""
        while True:
            req = yield from self.recv_deq(thread)
            if req is not None:
                break
            yield self.queue.wait_nonempty()
        while not req.done:
            ev = self.env.event()
            req.on_complete(lambda _r: None if ev.triggered else ev.succeed(None))
            yield ev
        return req
