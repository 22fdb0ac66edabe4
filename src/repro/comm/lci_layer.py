"""LCI communication layer (Section III-D).

The thinnest of the three: compute threads talk to the LCI Queue
directly —

* ``send`` retries ``SEND-ENQ`` until the packet pool admits it (back
  pressure instead of crashes), then tracks the request in a completion
  list whose status flags are *free* to check;
* ``collect`` loops ``RECV-DEQ``; eager messages complete instantly,
  rendezvous requests are parked until their flag flips.

The dedicated communication thread is LCI's *communication server*
(started by :class:`~repro.lci.server.LciRuntime`), which also provides
implicit progress — there is no MPI_Test-style call anywhere on this
path.  Memory for communication buffers is the fixed packet pool plus
transient gather/scatter staging, which is why LCI's footprint in Fig. 5
is small, flat across hosts, and an order of magnitude below MPI-RMA's.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.comm.layer_base import CommLayer
from repro.comm.serialization import UpdateBlob
from repro.lci.config import LciConfig
from repro.lci.request import LciRequest
from repro.lci.server import LciRuntime
from repro.netapi.nic import Fabric
from repro.sim.engine import Environment, Event
from repro.sim.machine import MachineModel

__all__ = ["LciCommLayer"]


class LciCommLayer(CommLayer):
    name = "lci"
    COUNTERS = ("blobs_sent", "send_retries")

    def __init__(
        self,
        env: Environment,
        host: int,
        machine: MachineModel,
        runtime: LciRuntime,
    ):
        super().__init__(env, host, machine)
        self.rt = runtime
        self.obs = runtime.nic.fabric.obs
        self.commstats = runtime.nic.fabric.commstats
        #: Rendezvous receive requests not yet complete, keyed by request.
        self._pending_recvs: List[LciRequest] = []
        # Fixed pool memory is communication-buffer memory (Fig. 5).
        self.buf_alloc(self.rt.pool.bytes_allocated())
        self._drain_proc = None

    def preallocated_bytes(self) -> int:
        return self.rt.pool.bytes_allocated()

    def _counted(self) -> tuple:
        rel = self.rt.reliability
        return (self, self.rt) if rel is None else (self, self.rt, rel)

    # ------------------------------------------------------------------
    @classmethod
    def create_world(
        cls,
        env: Environment,
        fabric: Fabric,
        machine: MachineModel,
        lci_config: Optional[LciConfig] = None,
    ) -> List["LciCommLayer"]:
        runtimes = LciRuntime.create_world(env, fabric, config=lci_config)
        return [
            cls(env, h, machine, runtimes[h])
            for h in range(fabric.num_hosts)
        ]

    # ------------------------------------------------------------------
    def send(self, dst: int, blob: UpdateBlob):
        """SEND-ENQ with retry on pool exhaustion.

        While the pool is dry the sender *services the receive side*
        (RECV-DEQ) instead of only waiting: consuming arrivals returns
        their packet budgets to the pool.  Without this interleaving a
        starved pool deadlocks — every budget parked on unconsumed
        arrivals while all threads spin on sends — which is exactly why
        the paper's communication loop "interleaves sending and
        receiving".
        """
        self.buf_alloc(blob.nbytes)
        self.blobs_sent += 1
        thread = f"compute-{self.host}"
        trace = self.trace_send(dst, blob)
        first_fail_at = None
        while True:
            attempt_start = self.env.now
            req = yield from self.rt.send_enq(
                dst, tag=0, size=blob.nbytes, payload=blob, thread=thread,
                trace=trace,
            )
            if req is not None:
                break
            if first_fail_at is None:
                first_fail_at = attempt_start
            self.send_retries += 1
            drained = yield from self.rt.recv_deq(thread=thread)
            if drained is not None:
                self._absorb(drained)
                continue
            yield self.env.any_of([
                self.rt.pool.wait_available(),
                self.rt.queue.wait_nonempty(),
            ])
        if self.obs is not None and first_fail_at is not None:
            # Pool recycling held this send up: the stall runs from the
            # first failed SEND-ENQ to the start of the one that stuck.
            self.obs.stall(self.host, "pool_wait", first_fail_at,
                           attempt_start)
        if req.done:
            self.buf_free(blob.nbytes)
        else:
            # The status flag is free to check and Abelian's layer scans
            # its request list continually, so the gather buffer returns
            # to the allocator as soon as the flag flips.
            req.on_complete(lambda _r, n=blob.nbytes: self.buf_free(n))

    def consume(self, blob: UpdateBlob) -> None:
        self.buf_free(blob.nbytes)

    # ------------------------------------------------------------------
    def collect_some(self, phase, pending: set):
        """RECV-DEQ until at least one blob of ``phase`` is complete."""
        thread = f"compute-{self.host}"
        while True:
            # Completed rendezvous receives first (flag scan: free).
            got = self._harvest(phase, pending)
            if got:
                return got
            req = yield from self.rt.recv_deq(thread=thread)
            if req is None:
                # Sleep until either a new packet is enqueued or one of
                # the parked rendezvous receives completes (its data can
                # arrive without anything new entering the queue).
                waits = [self.rt.queue.wait_nonempty()]
                for r in self._pending_recvs:
                    ev = Event(self.env)
                    r.on_complete(
                        lambda _x, e=ev: None if e.triggered else e.succeed(None)
                    )
                    waits.append(ev)
                yield self.env.any_of(waits)
                continue
            self._absorb(req)

    def _absorb(self, req: LciRequest) -> None:
        """File one dequeued receive: stash if done, park if rendezvous."""
        if req.done:
            blob: UpdateBlob = req.payload
            self.buf_alloc(blob.nbytes)
            self._deliver(req.peer, blob)
        else:
            self._pending_recvs.append(req)

    def _harvest(self, phase, pending: set):
        # Move any finished rendezvous receives into the stash.
        if self._pending_recvs:
            still = []
            for req in self._pending_recvs:
                if req.done:
                    blob: UpdateBlob = req.payload
                    self.buf_alloc(blob.nbytes)
                    self._deliver(req.peer, blob)
                else:
                    still.append(req)
            self._pending_recvs = still
        items = self._take_phase(phase)
        got = []
        for src, blob in items:
            if src not in pending:
                raise RuntimeError(
                    f"lci host {self.host}: unexpected blob from {src} "
                    f"in phase {phase!r}"
                )
            pending.discard(src)
            got.append((src, blob))
        return got

    def collect(self, phase, in_peers: Iterable[int]):
        pending = set(in_peers)
        got = []
        while pending:
            got.extend((yield from self.collect_some(phase, pending)))
        return got

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop the LCI server.  Budgets still out and completions never
        dequeued are the engine's end-of-run audit's to report."""
        self.rt.stop_server()
