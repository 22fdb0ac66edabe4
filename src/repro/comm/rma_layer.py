"""MPI-RMA communication layer (Section III-C).

One-sided variant of the Abelian runtime: instead of send/recv matching,
each host preallocates **worst-case-sized** window buffers (one per
possible origin, per pattern, per datatype — sized as if *all* nodes were
active) and rounds proceed with generalized active-target PSCW epochs:

* ``phase_begin`` — ``MPI_Win_post`` (expose to expected origins) and
  ``MPI_Win_start`` (open access to targets);
* ``send`` — ``MPI_Put`` of the gathered blob into our slot at the target;
* ``flush`` — ``MPI_Win_complete`` after all puts are locally complete;
* ``collect`` — fine-grained per-origin waits: the host scatters each
  origin's buffer as soon as that origin's COMPLETE arrives (not a
  collective fence — the paper rejects ``MPI_Win_fence`` as too
  restrictive);
* ``phase_end`` — close the exposure epoch and release staging buffers.

A dedicated progress thread continuously polls the library so RMA
operations progress while the main thread computes; both threads issue
MPI calls, so this layer requires ``MPI_THREAD_MULTIPLE`` (and pays its
lock on every call).

Window creation time is recorded separately (``setup_seconds``) because
the paper excludes it from the MPI-RMA results.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.comm.layer_base import CommLayer
from repro.comm.serialization import HEADER_BYTES, UpdateBlob
from repro.mpi.config import MpiConfig, ThreadMode
from repro.mpi.endpoint import MpiEndpoint
from repro.mpi.presets import default_mpi
from repro.mpi.rma import MpiWindow
from repro.mpi.world import MpiWorld
from repro.netapi.nic import Fabric
from repro.sim.engine import Environment, Interrupt
from repro.sim.machine import MachineModel

__all__ = ["RmaCommLayer"]


def worst_case_blob_bytes(pair_len: int, field_bytes: int) -> int:
    """Upper bound on a blob for a sync pair: all nodes active."""
    bitset = (pair_len + 7) // 8
    return HEADER_BYTES + bitset + pair_len * field_bytes


class RmaCommLayer(CommLayer):
    name = "mpi-rma"
    #: The main compute thread issues the puts (Section III-C): serial.
    parallel_send = False
    #: Scatters read NIC-DMA-written window memory: cache-cold.
    receive_buffer_cold = True
    COUNTERS = ("puts",)

    def __init__(
        self,
        env: Environment,
        host: int,
        machine: MachineModel,
        endpoint: MpiEndpoint,
    ):
        super().__init__(env, host, machine)
        self.ep = endpoint
        self.obs = endpoint.nic.fabric.obs
        self.commstats = endpoint.nic.fabric.commstats
        #: pattern name -> MpiWindow (shared across all hosts' layers).
        self.windows: Dict[str, MpiWindow] = {}
        self._staged: Dict[object, int] = {}  # phase -> staged bytes
        self.setup_seconds = 0.0
        self._stopping = False
        self._progress_proc = env.process(
            self._progress_thread(), name=f"rma-progress-{host}"
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
    ) -> List["RmaCommLayer"]:
        config = mpi_config or default_mpi()
        world = MpiWorld(env, fabric, config, thread_mode=ThreadMode.MULTIPLE)
        layers = [
            cls(env, h, machine, world.endpoint(h))
            for h in range(fabric.num_hosts)
        ]
        for l in layers:
            l.mpi_world = world
            l._siblings = layers
        return layers

    # ------------------------------------------------------------------
    # Setup: collective window creation with worst-case sizes
    # ------------------------------------------------------------------
    def setup(self, reduce_pairs=None, bcast_pairs=None, field_bytes=8,
              patterns=("reduce", "bcast")):
        """Create one window per pattern (collective; every host calls).

        ``reduce_pairs`` / ``bcast_pairs`` are the partition's SyncPair
        dicts keyed (mirror_host, master_host).  Buffer (o -> t) for the
        reduce window is sized for the (o, t) mirror pair; for the bcast
        window, data flows master -> mirror, so (o -> t) uses the (t, o)
        pair.
        """
        t0 = self.env.now
        specs = []
        if "reduce" in patterns and reduce_pairs is not None:
            specs.append(("reduce", reduce_pairs, False))
        if "bcast" in patterns and bcast_pairs is not None:
            specs.append(("bcast", bcast_pairs, True))
        for pname, pairs, reversed_ in specs:
            win = self._shared_window(pname, pairs, field_bytes, reversed_)
            yield from win.create(self.host)
            self.buf_alloc(win.bytes_allocated(self.host))
        self.setup_seconds = self.env.now - t0

    def _shared_window(self, pname, pairs, field_bytes, reversed_):
        """All hosts must share one MpiWindow object per pattern."""
        registry = self._siblings[0].windows
        win = registry.get(pname)
        if win is None:
            def size_fn(o, t):
                key = (t, o) if reversed_ else (o, t)
                sp = pairs.get(key)
                if sp is None:
                    return 0
                return worst_case_blob_bytes(len(sp), field_bytes)

            win = MpiWindow(
                self.ep._world, size_fn=size_fn, label=f"win-{pname}"
            )
            # The layer's dedicated thread drives progress (Section III-C).
            win.external_progress = True
            registry[pname] = win
        self.windows[pname] = win
        return win

    @staticmethod
    def pattern_of(phase) -> str:
        """Engine phases are tuples (round, pattern, ...); pattern at [1]."""
        if isinstance(phase, tuple) and len(phase) >= 2:
            return phase[1]
        raise ValueError(f"RMA layer needs (round, pattern, ...) phases, got {phase!r}")

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def phase_begin(self, phase, out_peers: Iterable[int],
                    in_peers: Iterable[int]):
        win = self.windows[self.pattern_of(phase)]
        yield from win.post(self.host, in_peers)
        yield from win.start(self.host, out_peers)
        self._staged[phase] = 0

    def send(self, dst: int, blob: UpdateBlob):
        win = self.windows[self.pattern_of(blob.phase)]
        # The origin's gathered buffer must survive until win_complete.
        self.buf_alloc(blob.nbytes)
        self._staged[blob.phase] = self._staged.get(blob.phase, 0) + blob.nbytes
        self.puts += 1
        trace = self.trace_send(dst, blob)
        yield from win.put(self.host, dst, blob.nbytes, payload=blob,
                           trace=trace)

    def flush(self, phase=None):
        """Close the access epoch: all puts flushed, COMPLETEs sent."""
        if phase is None:
            raise ValueError("RMA flush requires the phase")
        win = self.windows[self.pattern_of(phase)]
        yield from win.complete(self.host)

    def collect_some(self, phase, pending: set):
        """Fine-grained: return blobs from origins whose COMPLETE arrived."""
        win = self.windows[self.pattern_of(phase)]
        st = win._state[self.host]
        yield from win._await(
            self.host, lambda: bool(st.completes_seen & pending)
        )
        ready = sorted(st.completes_seen & pending)
        got = []
        for origin in ready:
            payload, _nbytes = yield from win.test_wait(self.host, origin)
            pending.discard(origin)
            if payload is None:
                continue
            blobs = payload if isinstance(payload, list) else [payload]
            for blob in blobs:
                if self.obs is not None:
                    tr = getattr(blob, "trace_id", None)
                    if tr is not None:
                        self.obs.emit(tr, "complete", self.host, src=origin)
                got.append((origin, blob))
        return got

    def collect(self, phase, in_peers: Iterable[int]):
        pending = set(in_peers)
        got = []
        while pending:
            got.extend((yield from self.collect_some(phase, pending)))
        return got

    def phase_end(self, phase):
        win = self.windows[self.pattern_of(phase)]
        win.finish_exposure(self.host)
        staged = self._staged.pop(phase, 0)
        if staged:
            self.buf_free(staged)
        return
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    def _progress_thread(self):
        """Continuously polls the library (the paper's dedicated thread
        ensuring forward progress for RMA operations).

        The thread spins *inside* the progress engine rather than
        re-entering the library per packet, so per-arrival cost is the
        progress pass plus packet harvesting — no per-call overhead or
        lock round trip (async progress threads use the library's
        internal fine-grained synchronization).
        """
        while not self._stopping:
            try:
                yield self.ep.nic.wait_arrival()
                yield from self.ep._progress_locked()
            except Interrupt:
                return

    def shutdown(self) -> None:
        """Stop the helper thread.  What MPI_Finalize would find left
        over (sends, unexpected messages, posted receives) is the
        engine's end-of-run audit's to report."""
        self._stopping = True
        if self._progress_proc.is_alive:
            self._progress_proc.interrupt("stop")
