"""Sanitizer runtime: the structured error, the end-of-run audit and
the per-run context of the per-event checks.

:func:`conservation_audit` reads five identities every engine run must
end with (LCI pool budgets home and completion queues drained, MPI
sends completed and matching queues empty); ``BspEngine.run()`` calls it
on every run.  The opt-in MUST-style per-event sanitizers are threaded
through the three simulated communication layers.  Both observe
protocol state and never advance simulated time, so a checked run is
**bit-identical** to an unchecked one.  A violation raises a structured
:class:`SanitizerError` where it is found; the CLI turns it into exit
code :data:`SANITIZER_EXIT_CODE`.

Enablement of the per-event sanitizers is explicit
(``EngineConfig.sanitize``, ``repro run --sanitize``) or via the
environment variable ``REPRO_SANITIZE`` (off when unset, empty, ``0``,
``off``, ``false`` or ``no``; on otherwise) read once at engine
construction — never inside the simulation modules themselves, which
the determinism lint (rule D104) forbids from branching on the
environment.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Optional

__all__ = [
    "SANITIZER_EXIT_CODE",
    "SanitizerContext",
    "SanitizerError",
    "conservation_audit",
    "resolve_mode",
]

#: Process exit code for "a protocol sanitizer found a violation" —
#: distinct from success (0), generic failure (1) and CLI usage errors
#: (2).
SANITIZER_EXIT_CODE = 3


def resolve_mode(explicit: Optional[bool] = None) -> bool:
    """Are sanitizers armed?  The explicit setting, else the environment."""
    if explicit is not None:
        return explicit
    raw = os.environ.get("REPRO_SANITIZE", "").strip().lower()
    return raw not in ("", "0", "off", "false", "no")


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


class SanitizerContext:
    """The per-run hub every per-event checker reports into.

    One context exists per engine run (installed as
    ``fabric.sanitizer``); the protocol components discover it through
    their NIC's fabric, exactly like the fault injector, so no
    constructor signature in the hot path changes when sanitizers are
    off.
    """

    def __init__(self, env=None):
        self.env = env

    def violation(self, rule: str, host: int, message: str, **details) -> None:
        """Raise :class:`SanitizerError` for one violation."""
        now = self.env.now if self.env is not None else 0.0
        raise SanitizerError(rule, host, now, message, details)


def conservation_audit(runtimes: Iterable, endpoints: Iterable,
                       now: float) -> None:
    """Raise :class:`SanitizerError` on the first conservation identity
    a finished run broke, hosts in order, stamped ``now`` (the run's
    end).  Reads LCI runtimes' pool and completion queue and MPI
    endpoints' send counts and matching queues; changes nothing."""
    for rt in runtimes:
        _audit(rt.rank, now, "lci.packet_leak", rt.pool.in_use, "leaked",
               "packet budget(s) still checked out (never freed)",
               pool_size=rt.pool.size)
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


def _audit(host: int, now: float, rule: str, left: int, key: str,
           what: str, **details) -> None:
    if left:
        raise SanitizerError(rule, host, now,
                             f"{left} {what} at the end of the run",
                             {key: left, **details})
