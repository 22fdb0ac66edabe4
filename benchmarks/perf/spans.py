"""Outside spans: the benchmark's own record of its calls into the program.

Every call the benchmark makes into a public function of ``repro`` is
bracketed by a span ``{id, parent, cell, name, bucket, start, end}``.
Spans nest (a stack gives each its parent), share the id of the cell or
batch they belong to, stay in memory while the clocks run, and are
written out once, by the parent process, as ``trace.json``.

``bucket`` says which end-to-end clock a span feeds: ``"setup"`` or
``"run"`` (``None`` for spans that only count towards ``total_s``, and
for spans nested inside an already-bucketed one).  A span's *self time*
is its duration minus the part its direct children cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Optional

__all__ = ["Recorder", "self_times", "check_span_tree", "sum_by_name"]


class Recorder:
    """In-memory span list plus the open-span stack."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: List[dict] = []
        self._stack: List[int] = []
        #: Identifier shared by every span of the current cell/batch.
        self.cell: Optional[str] = None

    @contextmanager
    def span(self, name: str, bucket: Optional[str] = None):
        sid = len(self.spans)
        rec = {
            "id": sid,
            "parent": self._stack[-1] if self._stack else None,
            "cell": self.cell,
            "name": name,
            "bucket": bucket,
            "start": self.clock(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = self.clock()
            self._stack.pop()

    def bucket_seconds(self, bucket: str) -> float:
        return sum(
            s["end"] - s["start"] for s in self.spans if s["bucket"] == bucket
        )


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def sum_by_name(spans: List[dict], name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def check_span_tree(spans: List[dict], slack: float = 1e-6) -> List[str]:
    """Well-formedness problems (empty list = a proper tree).

    Parents exist and were opened first, children lie inside their
    parent's interval, every span is closed, and no self time is
    negative (children of one parent never overlap: the benchmark is
    single-threaded and closed-loop).
    """
    problems: List[str] = []
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["end"] is None or s["end"] < s["start"]:
            problems.append(f"span {s['id']} ({s['name']}) not closed")
            continue
        if s["parent"] is None:
            continue
        p = by_id.get(s["parent"])
        if p is None or p["id"] >= s["id"]:
            problems.append(f"span {s['id']} ({s['name']}) has no parent")
        elif s["start"] < p["start"] - slack or s["end"] > p["end"] + slack:
            problems.append(
                f"span {s['id']} ({s['name']}) leaks out of {p['name']}"
            )
    if not problems:
        for sid, t in self_times(spans).items():
            if t < -slack:
                problems.append(f"span {sid} has negative self time {t}")
    return problems
