"""MUST-style MPI usage sanitizers: matching and RMA epochs.

These mirror the misuse classes MUST (and the Caliper/Benchpark MPI
pattern analyses in PAPERS.md) flag on real MPI programs, restricted to
what the paper's three layers can actually commit.  What MPI_Finalize
makes erroneous — sends never completed, unexpected messages never
received, posted receives never matched — is not checked here: every
engine run ends with :func:`~repro.sanitize.runtime.conservation_audit`.

Two-sided / matching (:class:`MpiSanitizer`):

* ``mpi.unexpected_watermark``       — the unexpected queue crossed
  :data:`UNEXPECTED_WATERMARK` (the resource-exhaustion failure mode of
  Section III-B building up);
* ``mpi.wildcard_order_hazard``      — a receive was posted whose
  signature overlaps a pending receive through a wildcard, so which
  message lands in which buffer depends on arrival interleaving (the
  classic MUST nondeterministic-matching warning).

One-sided / PSCW epochs (:class:`WindowSanitizer`; a put with no open
access epoch is a hard :class:`~repro.mpi.exceptions.MPIUsageError` on
every run, sanitized or not):

* ``mpi.rma_overlapping_put`` — two puts into overlapping byte ranges
  of the same target slot within one access epoch, with no intervening
  synchronization: a window data race whose outcome is whichever put
  the NIC orders last.

All checks are pure observation and charge no simulated time.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.sanitize.runtime import SanitizerContext

__all__ = [
    "UNEXPECTED_WATERMARK", "MpiSanitizer", "WindowSanitizer",
    "signatures_overlap",
]

#: MPI unexpected-queue length above which a high-watermark breach is
#: reported: far above anything a healthy run produces.
UNEXPECTED_WATERMARK = 1024


def signatures_overlap(
    source_a: int, tag_a: int, source_b: int, tag_b: int,
    any_source: int, any_tag: int,
) -> bool:
    """Can one arrival match both receive signatures?"""
    src_ok = (
        source_a == any_source or source_b == any_source or source_a == source_b
    )
    tag_ok = tag_a == any_tag or tag_b == any_tag or tag_a == tag_b
    return src_ok and tag_ok


class MpiSanitizer:
    """Per-endpoint two-sided usage checker."""

    def __init__(self, ctx: SanitizerContext, rank: int):
        self.ctx = ctx
        self.rank = rank

    def on_unexpected(self, queue_len: int) -> None:
        if queue_len > UNEXPECTED_WATERMARK:
            self.ctx.violation(
                "mpi.unexpected_watermark",
                self.rank,
                f"unexpected-message queue reached {queue_len} entries "
                f"(watermark {UNEXPECTED_WATERMARK}): receives are not "
                "keeping up with arrivals — the Section III-B exhaustion "
                "failure mode",
                queue_len=queue_len,
                watermark=UNEXPECTED_WATERMARK,
            )

    def on_post_recv(self, posted_items, source: int, tag: int,
                     any_source: int, any_tag: int) -> None:
        """MUST's nondeterministic-matching warning, at post time."""
        for entry in posted_items:
            if (entry.source, entry.tag) == (source, tag):
                continue  # identical signatures: FIFO keeps it deterministic
            wildcard_involved = (
                any_source in (entry.source, source)
                or any_tag in (entry.tag, tag)
            )
            if not wildcard_involved:
                continue
            if signatures_overlap(
                entry.source, entry.tag, source, tag, any_source, any_tag
            ):
                self.ctx.violation(
                    "mpi.wildcard_order_hazard",
                    self.rank,
                    f"receive ({source},{tag}) posted while pending receive "
                    f"({entry.source},{entry.tag}) overlaps it through a "
                    "wildcard: which message matches which buffer depends "
                    "on arrival interleaving",
                    new_source=source, new_tag=tag,
                    pending_source=entry.source, pending_tag=entry.tag,
                )


class WindowSanitizer:
    """Per-window PSCW epoch-discipline and put-race checker."""

    def __init__(self, ctx: SanitizerContext, win_id: int, label: str = "win"):
        self.ctx = ctx
        self.win_id = win_id
        self.label = label
        #: (origin, target) -> [(offset, end)) ranges put this epoch.
        self._epoch_puts: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}

    # ------------------------------------------------------------------
    def on_epoch_start(self, rank: int) -> None:
        """Access epoch opened: forget the previous epoch's put ranges."""
        for key in [k for k in self._epoch_puts if k[0] == rank]:
            del self._epoch_puts[key]

    def on_epoch_complete(self, rank: int) -> None:
        """MPI_Win_complete is a synchronization point: races cannot span it."""
        self.on_epoch_start(rank)

    def on_put(self, rank: int, target: int, offset: int, nbytes: int) -> None:
        lo, hi = offset, offset + max(nbytes, 1)
        ranges = self._epoch_puts.setdefault((rank, target), [])
        for (plo, phi) in ranges:
            if lo < phi and plo < hi:
                self.ctx.violation(
                    "mpi.rma_overlapping_put",
                    rank,
                    f"window {self.label!r}: put of [{lo},{hi}) to target "
                    f"{target} overlaps an earlier put of [{plo},{phi}) in "
                    "the same access epoch — a window data race (the NIC "
                    "orders the writes arbitrarily)",
                    target=target, offset=lo, nbytes=nbytes,
                    earlier_offset=plo, earlier_end=phi,
                )
        ranges.append((lo, hi))
