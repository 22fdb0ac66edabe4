"""Synchronization resources for simulated actors.

These mirror the primitives the communication runtimes are built from:

* :class:`Resource` — a counting semaphore (e.g. NIC injection credits).
* :class:`Lock` — a mutex with optional per-acquisition cost, used to model
  the global lock of ``MPI_THREAD_MULTIPLE`` implementations.

All wait queues are FIFO, which keeps runs deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.sim.engine import Environment, Event, SimulationError

__all__ = ["Resource", "Lock"]


class Resource:
    """Counting semaphore with FIFO admission."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError("Resource capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def request(self) -> Event:
        """Acquire one unit; event fires on grant."""
        ev = Event(self.env)
        if self.in_use < self.capacity:
            self.in_use += 1
            ev.succeed(None)
        else:
            self._waiters.append(ev)
        return ev

    def try_request(self) -> bool:
        if self.in_use < self.capacity:
            self.in_use += 1
            return True
        return False

    def release(self) -> None:
        if self.in_use <= 0:
            raise SimulationError("release() without matching request()")
        if self._waiters:
            self._waiters.popleft().succeed(None)
        else:
            self.in_use -= 1


class Lock:
    """A mutex whose acquisition charges a modeled cost.

    ``acquire_cost`` models the uncontended lock overhead (e.g. an atomic
    CAS plus a memory fence); queueing under contention adds real simulated
    waiting on top.  Use :meth:`held` generator form::

        yield from lock.held(actor_gen())

    or explicit ``yield lock.acquire()`` / ``lock.release()``.
    """

    def __init__(self, env: Environment, acquire_cost: float = 0.0):
        self.env = env
        self.acquire_cost = acquire_cost
        self._sem = Resource(env, capacity=1)
        self.acquisitions = 0
        self.contended_acquisitions = 0

    @property
    def locked(self) -> bool:
        return self._sem.in_use > 0

    def acquire(self):
        """Generator: wait for the lock, then charge the acquire cost."""
        if not self._sem.try_request():
            self.contended_acquisitions += 1
            yield self._sem.request()
        self.acquisitions += 1
        if self.acquire_cost > 0:
            yield self.env.timeout(self.acquire_cost)

    def release(self) -> None:
        self._sem.release()

    def held(self, body):
        """Run generator ``body`` while holding the lock."""
        yield from self.acquire()
        try:
            result = yield from body
        finally:
            self.release()
        return result
