"""Message-lifecycle observability context (the tentpole of `repro.obs`).

One :class:`ObsContext` rides on the :class:`~repro.netapi.nic.Fabric`
(``fabric.obs``), read by protocol components exactly like the fault
injector — ``nic.fabric.obs`` at construction,
every hook a no-op when it is ``None``.  It collects four
kinds of data, all pure observation:

* **Stage events** — every payload handed to a comm-layer ``send`` gets
  a deterministic trace id (:meth:`new_trace`) and emits causally-linked
  :class:`MsgEvent` rows as it moves through the stack
  (``api -> lib -> inject -> wire -> rx -> progress -> ... -> complete``;
  see :data:`STAGES`).  The event *name* is the state the message
  entered; the interval until the next event is attributed to that
  state by the critical-path analyzer.
* **Probe samples** — components register zero-argument probe callables
  (:meth:`register_probe`); a periodic sampler process reads them into
  :class:`~repro.sim.monitor.TimeSeries` (unexpected-queue depth,
  posted-receive count, packet-pool occupancy, NIC backlog, in-flight
  bytes per host).
* **Stall records** — closed intervals a host demonstrably spent
  blocked on a protocol resource (packet-pool recycling, PSCW epoch
  synchronization), reported by the code that did the waiting.
* **Activity spans** — closed intervals of engine work per host and
  round (compute, allreduce), reported by the engine (:meth:`span`).

Fault *instants* are not collected at all: the injector's replayable
trace and the plan's windows are read off the fabric when the timeline
is exported.

Determinism contract (the same guarantee the protocol checks give): hooks
never advance simulated time, never touch a component's counts, and
never change iteration order — a run with obs installed produces
bit-identical :class:`~repro.engine.metrics.RunMetrics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isinf
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.monitor import TimeSeries

__all__ = ["STAGES", "TERMINAL_STAGES", "MsgEvent", "Stall", "ObsContext"]

#: The lifecycle-stage taxonomy.  Not every message visits every stage;
#: the subset and order depend on the layer and protocol (see
#: docs/OBSERVABILITY.md for the per-protocol chains).
STAGES = (
    "api",         # payload entered the comm layer's send path
    "agg",         # buffered into a sender-side aggregate (mpi-probe)
    "bundled",     # blob rode into an aggregate message (links msg trace)
    "lib",         # entered the protocol library (isend / SEND-ENQ / put)
    "inject",      # NIC accepted the descriptor
    "wire",        # departed the sender NIC (serialization done)
    "rx",          # landed in the destination NIC receive queue
    "progress",    # harvested by the progress engine / comm server
    "match_wait",  # parked in the MPI unexpected-message queue
    "queue_wait",  # parked in the LCI MPMC queue
    "handler",     # matched / dequeued; receiver-side processing
    "epoch_wait",  # RMA data landed, awaiting epoch close / collect
    "complete",    # payload available to the receiver (terminal)
    "dropped",     # lost in transit (terminal for that wire attempt)
)

TERMINAL_STAGES = ("complete", "dropped")


class MsgEvent:
    """One lifecycle event: trace ``trace`` entered ``stage`` at ``t``."""

    __slots__ = ("trace", "stage", "host", "t", "args")

    def __init__(self, trace: str, stage: str, host: int, t: float,
                 args: Optional[Dict] = None):
        self.trace = trace
        self.stage = stage
        self.host = host
        self.t = t
        self.args = args

    def as_row(self) -> list:
        """Compact JSON row (see ``ObsContext.as_timeline`` columns)."""
        return [self.trace, self.stage, self.host, self.t, self.args or {}]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MsgEvent({self.trace}, {self.stage}@{self.host}, t={self.t:.9f})"


@dataclass
class Stall:
    """A closed interval one host spent blocked on a protocol resource."""

    host: int
    kind: str      # pool_wait | epoch_start_wait | epoch_flush_wait | ...
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class ObsContext:
    """Collects lifecycle events, probe samples, and stall records."""

    def __init__(self):
        self.env = None
        self.fabric = None
        self.events: List[MsgEvent] = []
        self.stalls: List[Stall] = []
        #: ``[host, category, name, start, end, args]`` rows.
        self.spans: List[list] = []
        #: (probe name, host) -> TimeSeries of sampled values.
        self.samples: Dict[Tuple[str, int], TimeSeries] = {}
        #: Registration-ordered probe list (sampling order is the
        #: deterministic registration order).
        self._probes: List[Tuple[str, int, Callable[[], float]]] = []
        #: Per-source-host trace sequence numbers.
        self._seq: Dict[int, int] = {}
        #: Per-host bytes injected but not yet arrived (or dropped).
        self._inflight: Dict[int, int] = {}
        self._sampler_proc = None

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.env.now if self.env is not None else 0.0

    def install(self, env, fabric) -> "ObsContext":
        """Attach to a fabric (``fabric.obs = self``) and start sampling.

        Must run before the comm layers are built so endpoints can
        register their queue probes at construction.  The per-NIC
        probes are registered here because NICs predate the context.
        """
        self.env = env
        self.fabric = fabric
        fabric.obs = self
        for host in range(fabric.num_hosts):
            nic = fabric.nic(host)
            self.register_probe("nic.rx_depth", host,
                                lambda n=nic: len(n.rx_queue))
            self.register_probe("nic.tx_outstanding", host,
                                lambda n=nic: n.tx_outstanding)
            self.register_probe("nic.inflight_bytes", host,
                                lambda s=self, h=host: s._inflight.get(h, 0))
        from repro.obs.sampler import start_sampler

        self._sampler_proc = start_sampler(self)
        return self

    # ------------------------------------------------------------------
    # Trace ids and stage events
    # ------------------------------------------------------------------
    def new_trace(self, layer: str, src: int, dst: int) -> str:
        """Mint a deterministic trace id for a ``src -> dst`` payload.

        The id is a pure function of the (deterministic) simulation
        history: a per-source-host sequence number, so ids are stable
        under replay and independent of other hosts' interleaving.
        """
        n = self._seq.get(src, 0)
        self._seq[src] = n + 1
        return f"{layer}:{src}>{dst}:{n}"

    def emit(self, trace: str, stage: str, host: int,
             at: Optional[float] = None, **args) -> None:
        """Record that ``trace`` entered ``stage`` on ``host`` — now,
        or at the instant ``at`` when the caller reports it from another
        wake than the one it happens at: a chained delay elides that
        one (``at=env.due(links before it)``), a departure has no
        queue entry (the NIC knows the instant when it injects)."""
        self.events.append(
            MsgEvent(trace, stage, host, self.now if at is None else at,
                     args or None)
        )

    def ordered_events(self) -> List[MsgEvent]:
        """The events in time order, ties in emission order: the order
        of emission itself unless an event was stamped ``at`` a later
        or earlier instant than it was reported."""
        return sorted(self.events, key=attrgetter("t"))

    def stall(self, host: int, kind: str, start: float, end: float) -> None:
        """Record a closed blocked interval (only if it has width)."""
        if end > start:
            self.stalls.append(Stall(host, kind, start, end))

    def span(self, host: int, category: str, name: str,
             start: float, end: float, **args) -> None:
        """Record a closed interval of activity on ``host``."""
        self.spans.append([host, category, name, start, end, args])

    def instants(self) -> List[list]:
        """``[host, category, name, t, args]`` markers, read from the
        logs their owners keep: the fault plan's windows (both edges),
        and the injector's trace."""
        rows: List[list] = []
        fabric = self.fabric
        if fabric is None:
            return rows
        if fabric.faults is not None:
            for spec in fabric.faults.plan.specs:
                if spec.kind not in ("degrade", "nic_stall", "straggler"):
                    continue
                host = spec.host if spec.host is not None else -1
                args = {"factor": spec.factor}
                rows.append(
                    [host, "fault", f"{spec.kind} begin", spec.start, args])
                if not isinf(spec.end):
                    rows.append(
                        [host, "fault", f"{spec.kind} end", spec.end, args])
            for ev in fabric.faults.trace:
                rows.append([
                    ev.src, "fault", f"{ev.kind} {ev.ptype}->{ev.dst}",
                    ev.time, {"size": ev.size, "delay": ev.delay},
                ])
        return rows

    # ------------------------------------------------------------------
    # NIC accounting hooks (called from repro.netapi.nic)
    # ------------------------------------------------------------------
    def on_inject(self, pkt) -> None:
        self._inflight[pkt.src] = (
            self._inflight.get(pkt.src, 0) + pkt.wire_bytes
        )
        tr = pkt.meta.get("trace")
        if tr is not None:
            self.emit(tr, "inject", pkt.src,
                      bytes=pkt.wire_bytes, ptype=pkt.ptype.name)

    def on_depart(self, pkt, at: float) -> None:
        """The NIC reports a departure when it injects the packet."""
        tr = pkt.meta.get("trace")
        if tr is not None:
            self.emit(tr, "wire", pkt.src, at=at)

    def on_drop(self, pkt) -> None:
        self._inflight[pkt.src] = (
            self._inflight.get(pkt.src, 0) - pkt.wire_bytes
        )
        tr = pkt.meta.get("trace")
        if tr is not None:
            self.emit(tr, "dropped", pkt.src, ptype=pkt.ptype.name)

    def on_arrive(self, pkt, notify_target: bool) -> None:
        self._inflight[pkt.src] = (
            self._inflight.get(pkt.src, 0) - pkt.wire_bytes
        )
        if not notify_target:
            # Pure RDMA write (MPI-RMA put): the target CPU never sees a
            # receive event; the data sits in the window until the epoch
            # closes.  This is the stage the PSCW epoch-wait attribution
            # measures.
            tr = pkt.meta.get("trace")
            if tr is not None:
                self.emit(tr, "epoch_wait", pkt.dst, bytes=pkt.size)

    def on_rx(self, pkt) -> None:
        tr = pkt.meta.get("trace")
        if tr is not None:
            self.emit(tr, "rx", pkt.dst)

    # ------------------------------------------------------------------
    # Probe registration and sampling
    # ------------------------------------------------------------------
    def register_probe(self, name: str, host: int,
                       fn: Callable[[], float]) -> None:
        """Register a zero-argument state reader, sampled periodically.

        Registration order is sampling order (deterministic); a
        duplicate (name, host) registration replaces the reader but
        keeps the original series.
        """
        key = (name, host)
        if key not in self.samples:
            self.samples[key] = TimeSeries(f"{name}[{host}]")
            self._probes.append((name, host, fn))
        else:
            self._probes = [
                (n, h, fn) if (n, h) == key else (n, h, f)
                for n, h, f in self._probes
            ]

    def sample_once(self) -> None:
        """Read every registered probe at the current simulated time."""
        t = self.now
        for name, host, fn in self._probes:
            self.samples[(name, host)].record(t, fn())

    def series(self, name: str, host: int) -> Optional[TimeSeries]:
        return self.samples.get((name, host))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def as_timeline(self, meta: Optional[Dict] = None) -> dict:
        """The JSON-able timeline document (`repro explain` input)."""
        return {
            "version": 1,
            "kind": "repro-obs-timeline",
            "meta": dict(meta or {}),
            "columns": ["trace", "stage", "host", "t", "args"],
            "events": [ev.as_row() for ev in self.ordered_events()],
            "samples": [
                {
                    "probe": name,
                    "host": host,
                    "times": list(series.times),
                    "values": list(series.values),
                }
                for (name, host), series in sorted(self.samples.items())
            ],
            "stalls": [
                [s.host, s.kind, s.start, s.end] for s in self.stalls
            ],
            "spans": list(self.spans),
            "instants": self.instants(),
        }
