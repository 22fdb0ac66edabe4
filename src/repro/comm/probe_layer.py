"""MPI-Probe communication layer (Section III-B) — the baseline.

Structure (Fig. 2 plus the buffered network layer):

* Compute threads ``send()`` gathered blobs into a thread-safe
  multi-producer single-consumer queue (one atomic per enqueue).
* A **dedicated communication thread** (MPI_THREAD_FUNNELED — only it
  calls MPI) drains the queue, *aggregates* items smaller than the eager
  limit per destination — flushing an aggregate when it exceeds the eager
  limit, when its oldest item times out, or on an explicit end-of-phase
  flush — and pushes aggregates out with ``MPI_Isend``.
* For receives there is no prior size information, so the thread calls
  ``MPI_Iprobe`` with wildcards, then ``MPI_Irecv``s the reported
  message.  ``MPI_Test`` reclaims completed requests.  Everything is
  non-blocking to multiplex resources and avoid exhaustion.

The buffered layer exists to provide the back pressure MPI lacks: it
keeps the number of concurrently outstanding eager sends bounded so the
library never hits its resource-exhaustion failure mode (which
:class:`~repro.mpi.exceptions.MPIResourceExhausted` models; the ablation
benchmark disables the buffering and shows it).

``inline_sends=True`` reproduces *Gemini's* original runtime instead:
compute threads call MPI directly (``MPI_THREAD_MULTIPLE``), paying the
library lock on every call, and the dedicated thread only probes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.comm.layer_base import CommLayer
from repro.comm.serialization import UpdateBlob
from repro.mpi.config import MpiConfig, ThreadMode
from repro.mpi.endpoint import MpiEndpoint
from repro.mpi.presets import default_mpi
from repro.mpi.types import ANY_SOURCE, MpiRequest
from repro.mpi.world import MpiWorld
from repro.netapi.nic import Fabric
from repro.sim.engine import Environment, Event, Interrupt
from repro.sim.machine import MachineModel

__all__ = ["ProbeCommLayer"]

#: MPI tag carrying aggregated data messages.
DATA_TAG = 1

#: Wire overhead of one aggregate frame (item count + per-item lengths).
AGG_FRAME_BYTES = 8


class _Aggregate:
    """Per-destination buffer of small items awaiting flush."""

    __slots__ = ("items", "nbytes", "oldest")

    def __init__(self):
        self.items: List[UpdateBlob] = []
        self.nbytes = 0
        self.oldest: Optional[float] = None


class ProbeCommLayer(CommLayer):
    name = "mpi-probe"
    COUNTERS = (
        "blobs_sent", "aggregates_flushed", "mpi_isends",
        "aggregates_received",
    )

    def __init__(
        self,
        env: Environment,
        host: int,
        machine: MachineModel,
        endpoint: MpiEndpoint,
        flush_timeout: float = 100e-6,
        inline_sends: bool = False,
        buffered: bool = True,
    ):
        super().__init__(env, host, machine)
        self.ep = endpoint
        self.obs = endpoint.nic.fabric.obs
        self.commstats = endpoint.nic.fabric.commstats
        self.flush_timeout = flush_timeout
        self.inline_sends = inline_sends
        self.buffered = buffered
        self._sendq: List[Tuple[int, UpdateBlob]] = []
        self._sendq_event: Optional[Event] = None
        self._flush_requested = False
        self._agg: Dict[int, _Aggregate] = {}
        self._pending_sends: List[Tuple[MpiRequest, int]] = []  # (req, bytes)
        self._pending_recvs: List[MpiRequest] = []
        self._stopping = False
        self._thread_token = f"comm-thread-{host}"
        self._atomic = machine.cpu.atomic_op
        self._comm_proc = env.process(
            self._comm_thread(), name=f"probe-comm-{host}"
        )

    def _counted(self) -> tuple:
        return (self, self.ep)

    # ------------------------------------------------------------------
    @classmethod
    def create_world(
        cls,
        env: Environment,
        fabric: Fabric,
        machine: MachineModel,
        mpi_config: Optional[MpiConfig] = None,
        inline_sends: bool = False,
        buffered: bool = True,
        flush_timeout: float = 100e-6,
    ) -> List["ProbeCommLayer"]:
        config = mpi_config or default_mpi()
        mode = ThreadMode.MULTIPLE if inline_sends else ThreadMode.FUNNELED
        world = MpiWorld(env, fabric, config, thread_mode=mode)
        layers = [
            cls(
                env,
                h,
                machine,
                world.endpoint(h),
                flush_timeout=flush_timeout,
                inline_sends=inline_sends,
                buffered=buffered,
            )
            for h in range(fabric.num_hosts)
        ]
        for l in layers:
            l.mpi_world = world
        return layers

    # ------------------------------------------------------------------
    # Compute-thread side
    # ------------------------------------------------------------------
    def send(self, dst: int, blob: UpdateBlob):
        """Hand a gathered buffer to the communication machinery."""
        self.buf_alloc(blob.nbytes)
        self.blobs_sent += 1
        trace = self.trace_send(dst, blob)
        if self.inline_sends:
            # Gemini mode: this thread calls MPI itself (THREAD_MULTIPLE).
            req = yield from self.ep.isend(
                dst, DATA_TAG, blob.nbytes, payload=[blob],
                thread=f"compute-{self.host}", trace=trace,
            )
            req.on_complete(lambda _r, n=blob.nbytes: self.buf_free(n))
            return
        # Enqueue into the MPSC queue: one atomic.
        yield self._atomic
        self._sendq.append((dst, blob))
        self._kick()

    def flush(self, phase=None):
        """Ask the comm thread to push out all aggregates now."""
        self._flush_requested = True
        self._kick()
        return
        yield  # pragma: no cover

    def _kick(self) -> None:
        ev = self._sendq_event
        if ev is not None and not ev.triggered:
            ev.succeed(None)
        self._sendq_event = None

    def consume(self, blob: UpdateBlob) -> None:
        """Engine scattered this received blob; release its buffer."""
        self.buf_free(blob.nbytes)

    # ------------------------------------------------------------------
    # Dedicated communication thread
    # ------------------------------------------------------------------
    def _comm_thread(self):
        env = self.env
        ep = self.ep
        token = self._thread_token
        atomic = self._atomic
        eager_limit = ep.config.eager_limit
        while not self._stopping:
            try:
                did_work = False

                # 1. Drain the MPSC send queue into aggregates.
                while self._sendq:
                    dst, blob = self._sendq.pop(0)
                    yield atomic
                    did_work = True
                    if not self.buffered:
                        yield from self._isend(dst, [blob], blob.nbytes)
                        continue
                    agg = self._agg.setdefault(dst, _Aggregate())
                    agg.items.append(blob)
                    agg.nbytes += blob.nbytes
                    if agg.oldest is None:
                        agg.oldest = env.now
                    tr = getattr(blob, "trace_id", None)
                    if self.obs is not None and tr is not None:
                        self.obs.emit(tr, "agg", self.host,
                                      dst=dst, agg_bytes=agg.nbytes)
                    if agg.nbytes >= eager_limit:
                        yield from self._flush_dst(dst)

                # 2. Flush on request or timeout.
                if self._flush_requested:
                    self._flush_requested = False
                    for dst in list(self._agg):
                        yield from self._flush_dst(dst)
                    did_work = True
                else:
                    for dst, agg in list(self._agg.items()):
                        if (
                            agg.oldest is not None
                            and env.now - agg.oldest >= self.flush_timeout
                        ):
                            yield from self._flush_dst(dst)
                            did_work = True

                # 3. Probe for incoming messages (wildcards; no size info).
                while True:
                    status = yield from ep.iprobe(
                        ANY_SOURCE, DATA_TAG, thread=token
                    )
                    if status is None:
                        break
                    did_work = True
                    self.buf_alloc(status.count)
                    req = yield from ep.irecv(
                        status.source, status.tag, thread=token
                    )
                    if req.done:
                        self._deliver_aggregate(req)
                    else:
                        self._pending_recvs.append(req)

                # 4. MPI_Test pending requests for forward progress.
                still = []
                for req, nbytes in self._pending_sends:
                    done = yield from ep.test(req, thread=token)
                    if done:
                        self.buf_free(nbytes)
                    else:
                        still.append((req, nbytes))
                self._pending_sends = still
                still_r = []
                for req in self._pending_recvs:
                    done = yield from ep.test(req, thread=token)
                    if done:
                        self._deliver_aggregate(req)
                    else:
                        still_r.append(req)
                self._pending_recvs = still_r

                # 5. Idle: sleep until new work or the next flush deadline.
                # A message already in the unexpected queue is work: the
                # progress pass inside step 4's tests can park one there
                # after step 3 probed and found nothing, and no arrival
                # will ever announce it again.
                if (not did_work and not self._sendq
                        and not len(ep.unexpected)):
                    waits = [self.ep.nic.wait_arrival()]
                    ev = Event(env)
                    self._sendq_event = ev
                    waits.append(ev)
                    deadline = self._next_flush_deadline()
                    if deadline is not None:
                        waits.append(env.timeout(max(deadline - env.now, 0)))
                    elif self._pending_sends or self._pending_recvs:
                        waits.append(env.timeout(self.flush_timeout))
                    yield env.any_of(waits)
            except Interrupt:
                return

    def _next_flush_deadline(self) -> Optional[float]:
        oldest = [
            a.oldest for a in self._agg.values() if a.oldest is not None
        ]
        if not oldest:
            return None
        return min(oldest) + self.flush_timeout

    def _flush_dst(self, dst: int):
        agg = self._agg.pop(dst, None)
        if agg is None or not agg.items:
            return
        yield from self._isend(dst, agg.items, agg.nbytes)
        self.aggregates_flushed += 1

    def _isend(self, dst: int, items: List[UpdateBlob], nbytes: int):
        msg_trace = None
        if self.obs is not None:
            # The aggregate frame is its own traced message; each member
            # blob links to it with a "bundled" event so the analyzer can
            # split frame latency back onto the blobs it carried.
            msg_trace = self.obs.new_trace(self.name, self.host, dst)
            self.obs.emit(msg_trace, "api", self.host, kind="aggregate",
                          dst=dst, items=len(items), bytes=nbytes)
            for blob in items:
                tr = getattr(blob, "trace_id", None)
                if tr is not None:
                    self.obs.emit(tr, "bundled", self.host, msg=msg_trace)
        req = yield from self.ep.isend(
            dst,
            DATA_TAG,
            nbytes + AGG_FRAME_BYTES * len(items),
            payload=list(items),
            thread=self._thread_token,
            trace=msg_trace,
        )
        self.mpi_isends += 1
        if req.done:
            self.buf_free(nbytes)
        else:
            self._pending_sends.append((req, nbytes))

    def _deliver_aggregate(self, req: MpiRequest) -> None:
        # Swap the aggregate-frame accounting for per-blob accounting:
        # each blob's buffer is released individually by consume().
        self.buf_free(req.status.count)
        items: List[UpdateBlob] = req.payload
        for blob in items:
            self.buf_alloc(blob.nbytes)
            if self.obs is not None and not self.inline_sends:
                # Close each member blob's trace (in inline mode the blob
                # trace IS the message trace, already completed by the
                # endpoint — a second terminal event would double-count).
                tr = getattr(blob, "trace_id", None)
                if tr is not None:
                    self.obs.emit(tr, "complete", self.host,
                                  src=req.status.source)
            self._deliver(req.status.source, blob)
        self.aggregates_received += 1

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop the helper thread.  A send that completed after the
        thread's last test pass releases its buffer here, as
        MPI_Finalize completes it; what MPI_Finalize would find left
        over (sends, unexpected messages, posted receives) is the
        engine's end-of-run audit's to report."""
        self._stopping = True
        still = []
        for req, nbytes in self._pending_sends:
            if req.done:
                self.buf_free(nbytes)
            else:
                still.append((req, nbytes))
        self._pending_sends = still
        if self._comm_proc.is_alive:
            self._comm_proc.interrupt("stop")
