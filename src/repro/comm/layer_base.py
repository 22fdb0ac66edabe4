"""The CommLayer interface shared by the MPI-Probe, MPI-RMA and LCI layers.

One CommLayer instance exists per host.  The BSP engine drives it from
the host's simulated process:

* ``setup(...)`` (generator) — one-time initialization run before the
  first round (RMA creates its worst-case windows here).
* ``phase_begin(phase, out_peers, in_peers)`` (generator) — open the
  round's communication phase (RMA opens PSCW epochs).
* ``send(dst, blob)`` (generator) — hand one gathered update blob to the
  layer for delivery.
* ``collect(phase, in_peers)`` (generator) — yield-until-complete: block
  until every expected peer's blob for ``phase`` arrived; returns a list
  of (src, blob) **in arrival order** (the engine scatters in that order,
  as the paper's runtime processes messages "in an arbitrary order as
  they arrive").
* ``phase_end(phase)`` (generator) — close the phase (RMA closes epochs).
* ``shutdown()`` — stop helper processes at the end of the run.

Buffer-footprint accounting (Fig. 5) is built into the base class: layers
call :meth:`buf_alloc` / :meth:`buf_free` around every communication
buffer they manage, and the harness reads :attr:`footprint` peaks.  At
the end of a run the footprint is back at :meth:`preallocated_bytes`;
the engine's conservation audit checks it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.comm.serialization import UpdateBlob
from repro.sim.engine import Environment, Event
from repro.sim.machine import MachineModel
from repro.sim.monitor import PeakTracker

__all__ = ["CommLayer", "LAYER_NAMES", "make_layers"]

LAYER_NAMES = ("lci", "mpi-probe", "mpi-rma")


class CommLayer:
    """Base class: phase demultiplexing and footprint accounting."""

    name = "base"
    #: True when compute threads can initiate sends concurrently (LCI's
    #: lock-free SEND-ENQ; the probe layer's MPSC enqueue).  False when a
    #: single thread must issue them (MPI-RMA: the main compute thread
    #: performs the RMA operations).  The engine overlaps send initiation
    #: across its compute threads when this is set.
    parallel_send = True
    #: True when received data is scattered out of large, cache-cold
    #: buffers (MPI-RMA's DMA-written preallocated windows).  LCI's small
    #: recycled pool and the probe layer's just-copied bounce buffers are
    #: warm.  The engine multiplies deserialization cost by the machine's
    #: ``cold_read_factor`` when set.
    receive_buffer_cold = False
    #: The layer's own counts: ``int`` attributes, zeroed at construction.
    COUNTERS: Tuple[str, ...] = ()

    def __init__(self, env: Environment, host: int, machine: MachineModel):
        self.env = env
        self.host = host
        self.machine = machine
        self.footprint = PeakTracker(
            f"{self.name}.host{host}.comm_buffer_bytes")
        for name in self.COUNTERS:
            setattr(self, name, 0)
        #: Optional ObsContext; subclasses overwrite this with the
        #: fabric's context at construction (discovery pattern).
        self.obs = None
        #: Optional CommStatsContext, discovered the same way; records
        #: the blob-level (src, dst, phase) traffic matrix.
        self.commstats = None
        #: phase -> list of (src, blob) already received but not collected
        self._stash: Dict[object, List[Tuple[int, UpdateBlob]]] = {}
        self._stash_waiters: Dict[object, Event] = {}

    # ------------------------------------------------------------------
    # Footprint accounting
    # ------------------------------------------------------------------
    def buf_alloc(self, nbytes: int) -> None:
        self.footprint.add(nbytes)

    def buf_free(self, nbytes: int) -> None:
        self.footprint.sub(nbytes)

    def preallocated_bytes(self) -> int:
        """Buffer bytes held for the whole run (default: none)."""
        return 0

    # ------------------------------------------------------------------
    # Counts
    # ------------------------------------------------------------------
    def _counted(self) -> tuple:
        """The objects whose ``COUNTERS`` this host reports: the layer
        and the library instance it owns."""
        return (self,)

    def counters(self) -> Dict[str, int]:
        """This host's counts by name, read off the components."""
        return {
            name: getattr(obj, name)
            for obj in self._counted()
            for name in obj.COUNTERS
        }

    # ------------------------------------------------------------------
    # Observability helper
    # ------------------------------------------------------------------
    def trace_send(self, dst: int, blob: UpdateBlob):
        """Mint a trace id for ``blob`` and emit its ``api`` event.

        Returns the id (or ``None`` with obs off).  The id is stored on
        the blob (``blob.trace_id``) so the receive side can emit the
        terminal event for the same trace.

        This is also the blob-level commstats tap: every layer calls it
        exactly once per ``send()``, so the recorded blob counts/bytes
        telescope to ``RunMetrics.blobs_sent``/``payload_bytes_sent``.
        """
        commstats = self.commstats
        if commstats is not None:
            commstats.on_blob(self.host, dst, blob)
        if self.obs is None:
            return None
        trace = self.obs.new_trace(self.name, self.host, dst)
        blob.trace_id = trace
        args = {"dst": dst, "bytes": blob.nbytes}
        phase = blob.phase
        if isinstance(phase, tuple) and len(phase) >= 2:
            args["round"] = phase[0]
            args["pattern"] = phase[1]
        self.obs.emit(trace, "api", self.host, **args)
        return trace

    # ------------------------------------------------------------------
    # Inbound demultiplexing helpers (used by subclasses)
    # ------------------------------------------------------------------
    def _deliver(self, src: int, blob: UpdateBlob) -> None:
        phase = blob.phase
        self._stash.setdefault(phase, []).append((src, blob))
        waiter = self._stash_waiters.pop(phase, None)
        if waiter is not None and not waiter.triggered:
            waiter.succeed(None)

    def _wait_phase_delivery(self, phase: object) -> Event:
        ev = self._stash_waiters.get(phase)
        if ev is None or ev.triggered:
            ev = Event(self.env)
            if self._stash.get(phase):
                ev.succeed(None)
            else:
                self._stash_waiters[phase] = ev
        return ev

    def _take_phase(self, phase: object) -> List[Tuple[int, UpdateBlob]]:
        got = self._stash.pop(phase, [])
        return got

    # ------------------------------------------------------------------
    # Interface (generators)
    # ------------------------------------------------------------------
    def setup(self, reduce_pairs=None, bcast_pairs=None, field_bytes=8,
              patterns=()):
        """One-time initialization (default: nothing)."""
        return
        yield  # pragma: no cover

    def phase_begin(self, phase, out_peers: Iterable[int],
                    in_peers: Iterable[int]):
        return
        yield  # pragma: no cover

    def send(self, dst: int, blob: UpdateBlob):
        raise NotImplementedError

    def collect(self, phase, in_peers: Iterable[int]):
        """Default collect: drain the stash as deliveries arrive."""
        expected = set(in_peers)
        got: List[Tuple[int, UpdateBlob]] = []
        seen = set()
        while seen != expected:
            items = self._take_phase(phase)
            if not items:
                yield self._wait_phase_delivery(phase)
                continue
            for src, blob in items:
                if src in seen:
                    raise RuntimeError(
                        f"{self.name} host {self.host}: duplicate blob from "
                        f"{src} in phase {phase!r}"
                    )
                seen.add(src)
                got.append((src, blob))
        return got

    def collect_some(self, phase, pending: set):
        """Block until at least one blob for ``phase`` arrives from a host
        in ``pending``; returns the newly arrived (src, blob) list and
        removes those sources from ``pending`` (mutates the set)."""
        while True:
            items = self._take_phase(phase)
            if items:
                for src, _b in items:
                    if src not in pending:
                        raise RuntimeError(
                            f"{self.name} host {self.host}: unexpected blob "
                            f"from {src} in phase {phase!r}"
                        )
                    pending.discard(src)
                return items
            yield self._wait_phase_delivery(phase)

    def phase_end(self, phase):
        return
        yield  # pragma: no cover

    def consume(self, blob: UpdateBlob) -> None:
        """Engine notification: ``blob`` has been scattered; the layer may
        release its receive buffer (default: nothing to release)."""

    def flush(self, phase=None):
        """Push out anything the layer is still aggregating (generator).

        RMA closes its access epoch here and therefore needs ``phase``;
        the other layers ignore it.
        """
        return
        yield  # pragma: no cover

    def shutdown(self) -> None:
        pass


def make_layers(
    name: str,
    env: Environment,
    fabric,
    machine: MachineModel,
    **kwargs,
) -> List["CommLayer"]:
    """Factory: one layer instance per host, fully wired.

    ``name`` is one of :data:`LAYER_NAMES`.  Extra kwargs pass through to
    the layer constructor (e.g. ``mpi_config=``, ``lci_config=``).
    """
    from repro.comm.lci_layer import LciCommLayer
    from repro.comm.probe_layer import ProbeCommLayer
    from repro.comm.rma_layer import RmaCommLayer

    if name == "lci":
        return LciCommLayer.create_world(env, fabric, machine, **kwargs)
    if name == "mpi-probe":
        return ProbeCommLayer.create_world(env, fabric, machine, **kwargs)
    if name == "mpi-rma":
        return RmaCommLayer.create_world(env, fabric, machine, **kwargs)
    raise ValueError(f"unknown comm layer {name!r}; pick from {LAYER_NAMES}")
