"""LCI lifecycle sanitizers: packet-pool and completion-queue checks.

The LCI paper family (and its successor, arXiv 2505.01864) identifies
packet/completion lifecycle bugs as the dominant failure mode of
lightweight runtimes: a budget freed twice silently inflates the pool, a
budget never freed shrinks it until senders livelock, and a recycled
packet touched after its free is a stale read.  The checker here reads
the pool's budget accounting and shadows the per-packet recycle state:

* ``lci.pool_double_free``     — a free that would push the pool's free
  count past its fixed capacity (some budget was returned twice);
* ``lci.packet_leak``          — budgets still checked out when the
  runtime shuts down (packets never freed);
* ``lci.packet_double_free``   — one specific packet retired twice;
* ``lci.packet_use_after_free``— a retired (recycled) packet handled
  again by the server or the receive path;
* ``lci.cq_unreaped``          — completion-queue entries still parked
  at shutdown (arrivals enqueued for compute threads that nobody ever
  dequeued — a lost-message bug in the consumer).

All checks are pure observation: no simulated time is charged, so
sanitized runs stay bit-identical to unsanitized ones.
"""

from __future__ import annotations

from typing import Optional

from repro.sanitize.runtime import SanitizerContext

__all__ = ["LciSanitizer"]

#: Packet.meta key carrying the sanitizer's lifecycle state.  The value
#: is a per-host dict: the simulated transport hands the *same* Packet
#: object to sender and receiver, whose budget lifecycles are
#: independent (the sender retires at local completion while the
#: receiver is still holding the arrival).
_STATE_KEY = "_san_state"
_LIVE = "live"
_RETIRED = "retired"


class LciSanitizer:
    """Per-host shadow of one packet pool + completion queue."""

    def __init__(self, ctx: SanitizerContext, host: int):
        self.ctx = ctx
        self.host = host

    # ------------------------------------------------------------------
    # Pool budget lifecycle
    # ------------------------------------------------------------------
    def on_free(self, pool) -> None:
        """Called *before* the pool increments its free count."""
        if pool.free_packets >= pool.size:
            self.ctx.violation(
                "lci.pool_double_free",
                self.host,
                "packet budget freed twice: free count would exceed the "
                f"pool's fixed capacity ({pool.size})",
                free_packets=pool.free_packets,
                pool_size=pool.size,
            )

    # ------------------------------------------------------------------
    # Per-packet recycle state
    # ------------------------------------------------------------------
    def _state(self, pkt) -> dict:
        return pkt.meta.setdefault(_STATE_KEY, {})

    def on_packet_made(self, pkt) -> None:
        self._state(pkt)[self.host] = _LIVE

    def on_packet_retired(self, pkt) -> None:
        state = self._state(pkt)
        if state.get(self.host) == _RETIRED:
            self.ctx.violation(
                "lci.packet_double_free",
                self.host,
                f"packet {pkt!r} retired twice (its pool budget was "
                "already recycled)",
                packet=pkt.uid,
            )
        state[self.host] = _RETIRED

    def on_packet_use(self, pkt) -> None:
        if self._state(pkt).get(self.host) == _RETIRED:
            self.ctx.violation(
                "lci.packet_use_after_free",
                self.host,
                f"packet {pkt!r} handled after its pool budget was "
                "recycled (stale read of a reused buffer)",
                packet=pkt.uid,
            )

    # ------------------------------------------------------------------
    # Shutdown audit
    # ------------------------------------------------------------------
    def check_shutdown(self, pool, queue: Optional[object] = None) -> None:
        """Audit at runtime shutdown: every budget home, queue drained."""
        if pool.in_use > 0:
            self.ctx.violation(
                "lci.packet_leak",
                self.host,
                f"{pool.in_use} packet budget(s) still checked out at "
                "shutdown (allocated but never freed)",
                leaked=pool.in_use,
                pool_size=pool.size,
            )
        if queue is not None and len(queue) > 0:
            self.ctx.violation(
                "lci.cq_unreaped",
                self.host,
                f"{len(queue)} completion-queue entr(y/ies) never reaped: "
                "arrivals were enqueued for compute threads but nobody "
                "dequeued them",
                unreaped=len(queue),
            )
