"""Runtime protocol checks: the structured error and the end-of-run audit.

:func:`conservation_audit` reads the identities every engine run must
end with (LCI pool budgets home, the pool's alloc and free counters
consistent with them, and completion queues drained; MPI sends
completed and matching queues empty; every layer's comm buffers back to
what it preallocated); ``BspEngine.run()`` calls it on every run.  The
six per-event rules are checked on every run too, inline in the
component that owns the state: the LCI packet pool
(:mod:`repro.lci.packet_pool`), the MPI endpoint
(:mod:`repro.mpi.endpoint`) and the RMA window (:mod:`repro.mpi.rma`).
All of them only read protocol state and never advance simulated time.
A violation raises a structured :class:`SanitizerError` where it is
found; the CLI turns it into exit code :data:`SANITIZER_EXIT_CODE`.

Determinism is not checked here but by running:
``tests/test_determinism.py`` requires two processes with different
hash seeds to print the same bits.
"""

from __future__ import annotations

from typing import Dict, Iterable

__all__ = [
    "SANITIZER_EXIT_CODE",
    "SanitizerError",
    "conservation_audit",
]

#: Process exit code for "a protocol check found a violation" —
#: distinct from success (0), generic failure (1) and CLI usage errors
#: (2).
SANITIZER_EXIT_CODE = 3


class SanitizerError(RuntimeError):
    """One detected protocol misuse, raised where it was found."""

    def __init__(self, rule: str, host: int, time: float, message: str,
                 details: Dict):
        super().__init__(f"[{rule}] host {host} @ {time:.9f}: {message}")
        #: Rule identifier, e.g. ``"lci.packet_leak"``.
        self.rule = rule
        #: Host/rank the violation was detected on.
        self.host = host
        #: Simulated time of detection (0.0 when no environment is attached).
        self.time = time
        #: Rule-specific structured details (counts, offsets, peers...).
        self.details = details


def conservation_audit(runtimes: Iterable, endpoints: Iterable,
                       now: float, layers: Iterable = ()) -> None:
    """Raise :class:`SanitizerError` on the first conservation identity
    a finished run broke, hosts in order, stamped ``now`` (the run's
    end).  Reads LCI runtimes' pool and completion queue, MPI endpoints'
    send counts and matching queues, and comm layers' buffer footprints;
    changes nothing.  An over-free never reaches here: the pool raises
    ``lci.pool_double_free`` at the free itself."""
    for rt in runtimes:
        pool = rt.pool
        in_use = pool.in_use
        counted = (pool.alloc_local_hits + pool.alloc_global_hits
                   + pool.alloc_steals - pool.free_local - pool.free_global
                   - pool.free_nowaits)
        _audit(rt.rank, now, "lci.pool_count_drift", counted - in_use,
               "drift", "packet budget(s) between the pool's alloc minus "
               "free counts and its in-use count", in_use=in_use)
        _audit(rt.rank, now, "lci.packet_leak", in_use, "leaked",
               "packet budget(s) still checked out (never freed)",
               pool_size=pool.size)
        _audit(rt.rank, now, "lci.cq_unreaped", len(rt.queue), "unreaped",
               "completion-queue entr(y/ies) never dequeued")
    for ep in endpoints:
        _audit(ep.rank, now, "mpi.unmatched_send_at_finalize",
               ep.isends - ep.sends_completed, "count",
               "send(s) never completed (no matching receive posted)")
        _audit(ep.rank, now, "mpi.unexpected_at_finalize",
               len(ep.unexpected), "count",
               "message(s) left in the unexpected queue (never received)")
        _audit(ep.rank, now, "mpi.pending_recv_at_finalize",
               len(ep.posted), "count", "posted receive(s) never matched")
    for layer in layers:
        preallocated = layer.preallocated_bytes()
        _audit(layer.host, now, "comm.buffer_leak",
               layer.footprint.current - preallocated, "outstanding",
               "comm-buffer byte(s) held beyond the preallocated ones",
               preallocated=preallocated)


def _audit(host: int, now: float, rule: str, left: int, key: str,
           what: str, **details) -> None:
    if left:
        raise SanitizerError(rule, host, now,
                             f"{left} {what} at the end of the run",
                             {key: left, **details})
