"""The LCI communication server (Algorithm 3) and the per-host runtime.

One server process runs per host.  It drains the NIC (``lc_progress``)
and executes a short callback per packet type:

* ``EGR`` / ``RTS`` — enqueue onto the MPMC queue for compute threads to
  ``recv_deq`` (first-packet order).  Before enqueueing an arrival the
  server takes a packet budget from the pool — the fixed set of preposted
  receive buffers; when the pool is dry the server stalls, which is the
  backpressure that protects the host from being overrun (instead of the
  MPI failure mode).
* ``RTR`` — the rendezvous reply addressed to one of *our* pending sends:
  the server turns the packet into an RDMA put of the advertised data
  (``p.type := RDMA; lc_put``).
* ``RDMA`` — the bulk data landed: flip the receive request's flag and
  free the packet back to the pool.

The interaction between the server and compute threads is only the
request flag and the lock-free queue — "limited to a single flag", as the
paper puts it.
"""

from __future__ import annotations

from typing import List, Optional

from repro.lci.config import LciConfig
from repro.lci.queue_iface import LciQueue
from repro.netapi.nic import Fabric, Nic
from repro.netapi.packet import Packet, PacketType
from repro.sim.engine import Environment, Process
from repro.sim.machine import CpuModel

__all__ = ["LciRuntime"]


class LciRuntime(LciQueue):
    """LciQueue plus the communication-server process."""

    def __init__(
        self,
        env: Environment,
        rank: int,
        nic: Nic,
        cpu: CpuModel,
        num_hosts: int,
        config: Optional[LciConfig] = None,
        auto_start: bool = True,
    ):
        super().__init__(env, rank, nic, cpu, num_hosts, config=config)
        self._server_proc: Optional[Process] = None
        self._stopping = False
        #: Sibling runtimes, indexed by rank (set by create_world).
        self.peers: Optional[List["LciRuntime"]] = None
        #: Per-source rkeys of this host's rendezvous landing regions.
        self._sink_rkeys: dict = {}
        #: Peers we have already paid the backend's first-put setup for.
        self._put_ready: set = set()
        if auto_start:
            self.start_server()

    # ------------------------------------------------------------------
    @classmethod
    def create_world(
        cls,
        env: Environment,
        fabric: Fabric,
        config: Optional[LciConfig] = None,
        auto_start: bool = True,
    ) -> List["LciRuntime"]:
        """One runtime per host of the fabric, wired as peers."""
        runtimes = [
            cls(
                env,
                rank,
                fabric.nic(rank),
                fabric.machine.cpu,
                fabric.num_hosts,
                config=config,
                auto_start=auto_start,
            )
            for rank in range(fabric.num_hosts)
        ]
        for rt in runtimes:
            rt.peers = runtimes
        return runtimes

    def start_server(self) -> Process:
        if self._server_proc is None or not self._server_proc.is_alive:
            self._stopping = False
            self._server_proc = self.env.process(
                self._server_loop(), name=f"lci-server-{self.rank}"
            )
        return self._server_proc

    def stop_server(self) -> None:
        """Ask the server loop to exit at its next idle point."""
        self._stopping = True
        if self.reliability is not None:
            self.reliability.close()
        if self._server_proc is not None and self._server_proc.is_alive:
            self._server_proc.interrupt("stop")

    # ------------------------------------------------------------------
    # Algorithm 3: NETWORK-PROGRESS, run forever by the server
    # ------------------------------------------------------------------
    def _server_loop(self):
        from repro.sim.engine import Interrupt

        # The host-side cost of one progress-engine turn is harvesting
        # the NIC completion: only this synchronous slice can be timed —
        # the rest of the loop suspends on simulated events.
        poll = self.nic.poll
        prof = self.nic.fabric.profiler
        if prof is not None:
            poll = prof.timed(
                "sim.engine.run;lci.server.progress", poll, sampled=True
            )
        # Per-packet harvest cost, hoisted out of the loop.
        harvest_cost = (
            self.nic.model.recv_overhead + self.backend.progress_extra
        )
        harvest_lead = (harvest_cost,)
        try:
            while not self._stopping:
                pkt = poll()
                if pkt is None:
                    yield self.nic.wait_arrival()
                    continue
                self.server_pkts += 1
                # Harvesting one completion from the NIC.  The recovery
                # protocol answers a harvested packet at once (acks), so
                # its cost is paid here; otherwise it leads the handler's
                # first charge.
                if self.reliability is not None:
                    yield harvest_cost
                    pkt = self.reliability.on_receive(pkt)
                    if pkt is None:
                        continue  # an ACK or a duplicate: consumed
                    yield from self._handle(pkt, ())
                else:
                    yield from self._handle(pkt, harvest_lead)
        except Interrupt:
            return

    def _handle(self, pkt: Packet, lead: tuple):
        """Run the callback for one harvested packet; ``lead`` is the
        harvest cost when the server loop has not paid it yet."""
        # A recycled packet showing up here again (e.g. a duplicate
        # delivery after the receive path freed it) is a use-after-free.
        self.pool.touch(pkt)
        tr = pkt.meta.get("trace") if self.obs is not None else None
        if tr is not None:
            self.obs.emit(tr, "progress", self.rank, at=self.env.due(lead),
                          ptype=pkt.ptype.name)
        if pkt.ptype in (PacketType.EGR, PacketType.RTS):
            # Take a receive-buffer budget; stall (backpressure) if dry.
            # Receive allocs may use the reserve the send path cannot.
            while True:
                ok = yield from self.pool.alloc(for_recv=True, lead=lead)
                if ok:
                    break
                lead = ()
                self.server_pool_stalls += 1
                yield self.pool.wait_available(for_recv=True)
            yield from self.queue.enqueue(pkt)
            if tr is not None:
                self.obs.emit(tr, "queue_wait", self.rank,
                              depth=len(self.queue))
            return
        if lead:
            yield lead
        if pkt.ptype is PacketType.RTR:
            yield from self._serve_rtr(pkt)
        elif pkt.ptype is PacketType.RDMA:
            recv_req = pkt.meta["recv_req"]
            recv_req._complete(pkt.payload)
            if tr is not None:
                self.obs.emit(tr, "complete", self.rank, bytes=pkt.size)
            # packetFree(P, p): the budget taken when the RTS arrived.
            self.pool.retire(pkt)
            yield from self.pool.free()
            self.rdma_recvs += 1
        else:  # pragma: no cover - exhaustive over PacketType
            raise RuntimeError(f"server cannot handle {pkt!r}")

    def _serve_rtr(self, pkt: Packet):
        """p.type := RDMA; lc_put(p) — start the bulk transfer."""
        send_req = pkt.meta["send_req"]
        rdma = Packet(
            PacketType.RDMA,
            self.rank,
            pkt.src,
            pkt.tag,
            send_req.size,
            payload=pkt.meta["data"],
        )
        rdma.meta["recv_req"] = pkt.meta["recv_req"]
        rdma.meta["rkey"] = self._put_sink_rkey(pkt.src)
        if pkt.meta.get("trace") is not None:
            rdma.meta["trace"] = pkt.meta["trace"]

        def _acked() -> None:
            send_req._complete()
            # The RTS's pool budget is released now the data is delivered.
            self.pool.free_nowait()

        put_cost = self.nic.model.send_overhead + self.backend.put_extra
        if pkt.src not in self._put_ready:
            # Memory registration / rkey exchange, once per peer.
            put_cost += self.backend.first_put_setup
            self._put_ready.add(pkt.src)
        yield put_cost
        while not self._lc_send(rdma, on_local_complete=_acked):
            self.rdma_tx_retries += 1
            yield 4 * self.nic.model.injection_gap
        self.rdma_puts += 1

    # ------------------------------------------------------------------
    # RDMA sink registration (address translation for lc_put)
    # ------------------------------------------------------------------
    def _put_sink_rkey(self, dst: int) -> int:
        """rkey of the peer's landing region for our rendezvous payloads.

        In the real implementation the RTR carries the receiver's buffer
        address/key ("a host and key for address translation enclosed in
        the packet"); here the peer runtime registers one logical sink
        region per source on demand and caches the key.
        """
        if self.peers is None:
            raise RuntimeError(
                "LciRuntime.peers not wired; create runtimes via create_world"
            )
        peer = self.peers[dst]
        rkey = peer._sink_rkeys.get(self.rank)
        if rkey is None:
            buf = peer.nic.register(1 << 40, label=f"lci-sink<-{self.rank}")
            rkey = buf.rkey
            peer._sink_rkeys[self.rank] = rkey
        return rkey
