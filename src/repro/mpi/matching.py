"""MPI message-matching engine: posted-receive and unexpected queues.

MPI's matching semantics force sequential traversal of these two lists
(the paper's citation [17] — "partly intrinsic to the design of MPI which
forces the traversal of sequential lists").  Both queues here return the
number of elements *inspected* along with the match, so the endpoint can
charge traversal time proportionally.  Wildcards (``ANY_SOURCE`` /
``ANY_TAG``) and the FIFO-per-(source, tag) ordering guarantee are
implemented exactly; these are the semantics LCI drops.

Queue entries are plain ``__slots__`` records: every message on a
matching layer builds one of each and drops it once matched.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.mpi.types import ANY_SOURCE, ANY_TAG, MpiRequest

__all__ = [
    "PostedReceive", "UnexpectedMessage", "PostedQueue", "UnexpectedQueue",
    "signatures_overlap",
]


def signatures_overlap(source_a: int, tag_a: int, source_b: int,
                       tag_b: int) -> bool:
    """Can one arrival match both receive signatures?"""
    src_ok = ANY_SOURCE in (source_a, source_b) or source_a == source_b
    tag_ok = ANY_TAG in (tag_a, tag_b) or tag_a == tag_b
    return src_ok and tag_ok


class PostedReceive:
    """A receive posted before its message arrived."""

    __slots__ = ("req", "source", "tag")

    def __init__(self, req: MpiRequest, source: int, tag: int):
        self.req = req
        self.source = source
        self.tag = tag

    def matches(self, src: int, tag: int) -> bool:
        return (self.source in (ANY_SOURCE, src)) and (self.tag in (ANY_TAG, tag))


class UnexpectedMessage:
    """A message that arrived before any matching receive was posted."""

    __slots__ = (
        "source", "tag", "size", "payload", "protocol", "token",
        "trace", "arrived_at",
    )

    def __init__(
        self,
        source: int,
        tag: int,
        size: int,
        payload: Any,
        protocol: str,
        token: Any = None,
        trace: Optional[str] = None,
    ):
        self.source = source
        self.tag = tag
        self.size = size
        self.payload = payload
        #: "eager" (data present) or "rndv" (RTS only; data follows on RTR).
        self.protocol = protocol
        #: Protocol-specific handle (e.g. the RTS packet to answer).
        self.token = token
        #: Observability trace id of the message (None when obs is off).
        self.trace = trace
        #: Simulated time the message entered the unexpected queue
        #: (0.0 until observability stamps it); the matching wait the
        #: paper blames is measured from here.
        self.arrived_at = 0.0

    def matched_by(self, source: int, tag: int) -> bool:
        return (source in (ANY_SOURCE, self.source)) and (
            tag in (ANY_TAG, self.tag)
        )


class PostedQueue:
    """FIFO list of posted receives, traversed on every arrival."""

    def __init__(self):
        self._items: List[PostedReceive] = []
        self.max_length = 0
        #: Running total of elements inspected across all walks —
        #: deterministic queue state (like ``max_length``), read by
        #: ``BspEngine.work_counts()``.
        self.probes = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> Tuple[PostedReceive, ...]:
        """Read-only snapshot in post (FIFO) order, for inspection tools."""
        return tuple(self._items)

    def post(self, entry: PostedReceive) -> None:
        self._items.append(entry)
        if len(self._items) > self.max_length:
            self.max_length = len(self._items)

    def match_arrival(
        self, src: int, tag: int
    ) -> Tuple[Optional[PostedReceive], int]:
        """First posted receive matching an arrival; (entry, inspected)."""
        for i, entry in enumerate(self._items):
            if entry.matches(src, tag):
                del self._items[i]
                self.probes += i + 1
                return entry, i + 1
        inspected = len(self._items)
        self.probes += inspected
        return None, inspected

    def cancel(self, req: MpiRequest) -> bool:
        for i, entry in enumerate(self._items):
            if entry.req is req:
                del self._items[i]
                req.cancelled = True
                return True
        return False


class UnexpectedQueue:
    """FIFO list of arrived-but-unmatched messages."""

    def __init__(self):
        self._items: List[UnexpectedMessage] = []
        self.max_length = 0
        #: Lifetime enqueue count and walk-probe total — deterministic
        #: queue state, read by ``BspEngine.work_counts()``.
        self.enqueued = 0
        self.probes = 0
        #: Optional ObsContext (+ ``host`` rank), assigned by the endpoint
        #: when observability is installed.
        self.obs = None
        self.host = -1

    def __len__(self) -> int:
        return len(self._items)

    def add(self, msg: UnexpectedMessage) -> None:
        self._items.append(msg)
        self.enqueued += 1
        if len(self._items) > self.max_length:
            self.max_length = len(self._items)
        obs = self.obs
        if obs is not None:
            msg.arrived_at = obs.now
            if msg.trace is not None:
                obs.emit(
                    msg.trace, "match_wait", self.host,
                    protocol=msg.protocol, depth=len(self._items),
                )

    def match_receive(
        self, source: int, tag: int, remove: bool = True
    ) -> Tuple[Optional[UnexpectedMessage], int]:
        """First unexpected message matching (source, tag); FIFO order.

        ``remove=False`` implements probe semantics: report without
        consuming.  Returns (message-or-None, elements inspected).
        """
        for i, msg in enumerate(self._items):
            if msg.matched_by(source, tag):
                if remove:
                    del self._items[i]
                self.probes += i + 1
                return msg, i + 1
        inspected = len(self._items)
        self.probes += inspected
        return None, inspected
