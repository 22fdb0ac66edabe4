"""Deterministic discrete-event simulation kernel.

A minimal, fast coroutine scheduler in the style of SimPy.  The design goals
are:

* **Determinism** — events scheduled for the same timestamp fire in
  scheduling order (a monotonically increasing sequence number breaks ties),
  so a run is a pure function of its inputs and seeds.
* **Low overhead** — the event queue is one binary heap driven by the C
  ``heapq`` functions, and the dominant ``timeout(d)``-then-resume
  pattern has a zero-allocation fast path: a process may ``yield`` a
  plain number instead of a :class:`Timeout` and the kernel schedules a
  raw tuple-entry bound to the process, no Event object at all; a tuple
  of numbers is a *chained delay* — back-to-back waits with nothing
  observable in between, filed as one entry due when the last of them
  would have fired.
* **Small surface** — only the primitives the communication runtimes need:
  one-shot events, timeouts, processes, and all-of/any-of conditions.

Every queue entry is ``(when, seq, ...)`` and pops are strictly
lexicographic on ``(when, seq)``; ``seq`` is unique, so the heap never
compares past it.  The benchmark workloads keep 3–351 entries pending on
average and 3 135 at most, depths at which ``heappush`` / ``heappop``
beat a structure maintained in Python (docs/MODEL.md §13.1 has the
numbers, and what the calendar queue this replaced cost).

Typical usage::

    env = Environment()

    def pinger(env, out):
        yield env.timeout(1.5)
        out.append(env.now)

    acc = []
    env.process(pinger(env, acc))
    env.run()
    assert acc == [1.5]
"""

from __future__ import annotations

import gc
from contextlib import nullcontext
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "SimulationError",
    "Interrupt",
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
]

_PENDING = object()

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. double-triggering)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value supplied by the interrupter.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; it becomes *triggered* when :meth:`succeed`
    or :meth:`fail` is called, at which point it is placed on the event
    queue and its callbacks run when the simulation reaches it.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_scheduled", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok = True
        self._scheduled = False
        self._defused = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (success or failure)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event is in the past)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only meaningful when triggered."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value accessed before trigger")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        self._ok = True
        self.env._schedule_event(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes will have ``exc`` thrown into them unless they
        defuse the event first.
        """
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._value = exc
        self._ok = False
        self.env._schedule_event(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    # -- internals ------------------------------------------------------
    def _run_callbacks(self) -> None:
        callbacks = self.callbacks
        self.callbacks = None
        if callbacks:
            for cb in callbacks:
                cb(self)
        if not self._ok and not self._defused:
            raise self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds in the future."""

    __slots__ = ("delay", "_timeout_value")

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Flattened Event.__init__ + schedule: a Timeout is born scheduled,
        # so the generic succeed() path (extra call, triggered check) is
        # skipped entirely.
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._scheduled = True
        self._defused = False
        self.delay = delay
        self._timeout_value = value
        seq = env._seq + 1
        env._seq = seq
        when = env._now + delay
        heappush(env._queue, (when, seq, self))

    def _run_callbacks(self) -> None:
        # The value materializes only when the timer fires, so a pending
        # timeout is not "triggered" (matters for AnyOf/AllOf collection).
        self._value = self._timeout_value
        self._ok = True
        callbacks = self.callbacks
        self.callbacks = None
        if callbacks:
            for cb in callbacks:
                cb(self)


class _FastTrigger:
    """Stand-in trigger for the zero-allocation timeout resume path.

    Behaves like an already-succeeded Event with value ``None`` for the
    two attributes :meth:`Process._resume` reads; shared singleton, never
    mutated.
    """

    __slots__ = ()
    _ok = True
    _value = None


_FAST_TRIGGER = _FastTrigger()


class Process(Event):
    """Drives a generator; the process *is* an event that fires on return.

    The generator may ``yield`` any :class:`Event` (including other
    processes) — or, on the fast path, a plain non-negative number,
    meaning "resume me after that many simulated seconds" with no Event
    allocated at all (exactly equivalent to yielding ``env.timeout(d)``,
    same sequence-number consumption, same firing order).  When the
    yielded event triggers, the process resumes with the event's value
    (or has the failure exception thrown into it).  When the generator
    returns, the process event succeeds with the return value.

    A non-empty tuple of numbers ``(d0, d1, ...)`` is a *chained delay*:
    one queue entry due at ``((now + d0) + d1) + ...``, summed left to
    right — bit for bit the instant at which the last of those timeouts,
    yielded one after the other, would have fired — with the wakes in
    between elided.  It stands for CPU charges that follow each other
    with nothing another process could observe in between (docs/MODEL.md
    §13.6 has the rule).  The chain takes its one sequence number when
    it starts; the last of the separate waits took its own a wake later,
    which only an exact tie with another process's entry can tell apart.
    """

    __slots__ = ("_gen", "_target", "name", "_resume_cb", "_fast_token")

    def __init__(self, env: "Environment", gen: Generator, name: str = ""):
        super().__init__(env)
        if not hasattr(gen, "send"):
            raise TypeError(f"process requires a generator, got {type(gen).__name__}")
        self._gen = gen
        self._target: Optional[Event] = None
        self.name = name or getattr(gen, "__name__", "process")
        # Pre-bound callback: one bound-method allocation per process
        # lifetime instead of one per wait.  Dropped when the generator
        # finishes, so a finished process is not a reference cycle and
        # is freed by reference count.
        self._resume_cb = self._resume
        #: Generation token of the pending fast entry, if any.  Bumped
        #: on every fast wait *and* on interrupt, so a stale entry popped
        #: later compares unequal and becomes a no-op (this is how the
        #: fast path supports Interrupt without queue surgery).
        self._fast_token = 0
        # Bootstrap: a fast entry resuming the generator at the current
        # time.  It carries token 0, which interrupt() leaves alone, so
        # an interrupt that lands before the first resume does not cancel
        # the start.
        seq = env._seq + 1
        env._seq = seq
        now = env._now
        heappush(env._queue, (now, seq, self, 0))

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            return
        if self._gen.gi_running:
            raise SimulationError("a process cannot interrupt itself")
        self._detach()
        kick = Event(self.env)
        kick.callbacks.append(self._interrupted)
        kick.fail(Interrupt(cause))
        kick.defuse()

    # -- internals ------------------------------------------------------
    def _detach(self) -> None:
        """Abandon whatever the process is parked on, so that it cannot
        resume the process later."""
        # A pending fast entry cannot be removed from the queue cheaply;
        # invalidating its token makes it fizzle instead.  Token 0 means
        # no fast wait was ever scheduled: there is nothing to invalidate
        # but the bootstrap entry, which has to fire.
        if self._fast_token:
            self._fast_token += 1
        target = self._target
        if target is not None:
            self._target = None
            if target.callbacks is not None:
                try:
                    target.callbacks.remove(self._resume_cb)
                except ValueError:
                    pass

    def _interrupted(self, kick: Event) -> None:
        """Deliver an interrupt.  The process may have parked since
        :meth:`interrupt` was called — it had not started yet, or the
        handler of an earlier interrupt waits — and that wait ends here
        too; if it has finished instead, there is nobody to tell."""
        if self.is_alive:
            self._detach()
            self._resume(kick)

    def _resume(self, trigger) -> None:
        env = self.env
        gen = self._gen
        self._target = None
        send = gen.send
        event = trigger
        while True:
            try:
                if event._ok:
                    nxt = send(event._value)
                else:
                    event._defused = True
                    nxt = gen.throw(event._value)
            except StopIteration as stop:
                self._finish(True, stop.value)
                return
            except BaseException as exc:
                self._finish(False, exc)
                return
            cls = nxt.__class__
            if cls is float or cls is int:
                # Zero-allocation timeout: a raw queue entry bound to
                # this process (filed below), no Timeout object.
                if nxt < 0:
                    self._finish(
                        False, SimulationError(f"negative timeout delay: {nxt}")
                    )
                    return
                when = env._now + nxt
            elif cls is tuple and nxt:
                # Chained delay: the sums the separate waits would have
                # made, in their order; one entry at the last of them.
                when = env._now
                bad = None
                try:
                    for delay in nxt:
                        if delay < 0:
                            bad = f"negative timeout delay: {delay}"
                            break
                        when += delay
                except TypeError:
                    bad = f"process {self.name!r} yielded non-event {nxt!r}"
                if bad is not None:
                    self._finish(False, SimulationError(bad))
                    return
            elif not isinstance(nxt, Event):
                msg = f"process {self.name!r} yielded non-event {nxt!r}"
                self._finish(False, SimulationError(msg))
                return
            elif nxt.callbacks is None:
                # Already processed: resume immediately with its value.
                event = nxt
                continue
            else:
                nxt.callbacks.append(self._resume_cb)
                self._target = nxt
                break
            # The fast entry: the equivalent of ``Timeout`` + resume
            # callback (consumes exactly one sequence number, fires in
            # exactly the same order).
            seq = env._seq + 1
            env._seq = seq
            token = self._fast_token + 1
            self._fast_token = token
            heappush(env._queue, (when, seq, self, token))
            break

    def _finish(self, ok: bool, value: Any) -> None:
        """The generator is done: fire the process event, cut the cycle."""
        self._resume_cb = None
        if ok:
            Event.succeed(self, value)
        else:
            Event.fail(self, value)


class _Condition(Event):
    """Base for :class:`AnyOf` / :class:`AllOf`."""

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._count = 0
        if not self._events:
            self.succeed({})
            return
        check = self._check
        for ev in self._events:
            if ev.callbacks is None:
                check(ev)
            else:
                ev.callbacks.append(check)

    def _collect(self) -> dict:
        return {
            i: ev._value
            for i, ev in enumerate(self._events)
            if ev.triggered and ev._ok
        }

    def _check(self, ev: Event) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


class AnyOf(_Condition):
    """Triggers when any constituent event triggers."""

    __slots__ = ()

    def _check(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev._ok:
            ev._defused = True
            self.fail(ev._value)
            return
        self.succeed(self._collect())


class AllOf(_Condition):
    """Triggers when every constituent event has triggered."""

    __slots__ = ()

    def _check(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev._ok:
            ev._defused = True
            self.fail(ev._value)
            return
        self._count += 1
        if self._count == len(self._events):
            self.succeed(self._collect())


class Environment:
    """The simulation clock and the event queue: one heap of
    ``(when, seq, ...)`` entries, popped in that order."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._seq = 0
        #: Sequence number of the entry being dispatched; ``inf`` while
        #: nothing is (see :attr:`fired_before`).
        self._firing = _INF
        #: The event queue.  Schedule sites ``heappush`` onto it directly
        #: and :meth:`run` holds an alias: never rebind it.
        self._queue: List[tuple] = []
        #: Optional :class:`repro.faults.FaultInjector`.  When installed,
        #: :meth:`charged_timeout` dilates CPU-work delays through its
        #: straggler model; ``None`` keeps the hook a no-op.
        self.faults = None
        #: Optional :class:`repro.obs.profile.ProfileContext`.  When
        #: installed, :meth:`run` brackets the dispatch loop in a
        #: ``sim.engine.run`` region.
        self.profiler = None
        #: Entries scheduled and fired inside :meth:`run`, added on its
        #: way out (schedules are the ``_seq`` delta, fires the loop's
        #: own count): no per-event cost.
        self.events_scheduled = 0
        self.events_fired = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def fired_before(self) -> tuple:
        """The queue position ``(when, seq)`` the run has reached:
        every entry that orders before it has fired, no other has.  It
        lets a component account for an effect that is due at a known
        position — ``(when, env._seq)`` read where the entry would have
        been scheduled — without a queue entry to deliver it."""
        return (self._now, self._firing)

    # -- factories ------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def charged_timeout(self, delay: float, actor: Optional[int] = None) -> float:
        """Delay representing ``delay`` seconds of CPU *work* by host
        ``actor``, for a process to ``yield`` directly (the fast path).
        Plain :meth:`timeout` models elapsed time; this hook lets an
        installed fault injector stretch the work when the actor is
        inside a straggler window.  Without an injector the returned
        delay is exactly ``delay``.
        """
        if self.faults is not None:
            delay = self.faults.dilate(actor, delay, self._now)
        return delay

    def due(self, chain: Iterable[float]) -> float:
        """The instant at which a process yielding the chained delay
        ``chain`` now resumes (the empty chain: now) — for stamping what
        the process would have done at a wake the chain elides."""
        when = self._now
        for delay in chain:
            when += delay
        return when

    def process(self, gen: Generator, name: str = "") -> Process:
        return Process(self, gen, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling -----------------------------------------------------
    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        event._scheduled = True
        seq = self._seq + 1
        self._seq = seq
        when = self._now + delay
        heappush(self._queue, (when, seq, event))

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` after ``delay`` — a raw queue entry with no
        Event allocated.  The fire-and-forget sibling of
        :meth:`schedule_callback` for callers that discard the event."""
        seq = self._seq + 1
        self._seq = seq
        when = self._now + delay
        heappush(self._queue, (when, seq, fn))

    def schedule_callback(
        self, delay: float, fn: Callable[[], None]
    ) -> Event:
        """Run ``fn`` after ``delay``; returns the underlying event."""
        ev = Timeout(self, delay)
        ev.callbacks.append(lambda _ev: fn())
        return ev

    # -- execution ------------------------------------------------------
    def _dispatch(self, entry: tuple) -> None:
        if len(entry) == 4:
            # Fast entry (when, seq, process, token): resume unless an
            # interrupt() made the token stale.
            proc = entry[2]
            if entry[3] == proc._fast_token:
                proc._resume(_FAST_TRIGGER)
            return
        obj = entry[2]
        if isinstance(obj, Event):
            obj._run_callbacks()
        else:
            obj()                     # call_later raw callback

    def step(self) -> None:
        """Process the next event; raises IndexError when queue is empty."""
        entry = heappop(self._queue)
        self._now = entry[0]
        self._firing = entry[1]
        self._dispatch(entry)

    def peek(self) -> float:
        """Time of the next event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else _INF

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        """Run until the queue drains, ``until`` is reached, or event cap.

        ``max_events`` is a safety valve against accidental livelock in
        polling loops; exceeding it raises :class:`SimulationError`.
        """
        if until is not None and until < self._now:
            raise SimulationError(
                f"run(until={until}) is in the past: the clock is at {self._now}"
            )
        prof = self.profiler
        seq0 = self._seq
        count = 0
        limit = max_events if max_events is not None else _INF
        pop = heappop
        queue = self._queue
        with nullcontext() if prof is None else prof.cell("sim.engine.run"):
            # The loop makes no cyclic garbage (a finished process is not
            # a cycle), so every pass of the cyclic collector over the
            # live simulation is pure cost: it sits the loop out.
            collecting = gc.isenabled()
            gc.disable()
            try:
                # ``while True``, not ``while queue``: CPython 3.11 starts
                # specializing a function at an unconditional backward
                # jump or its eighth call, and a simulation calls run()
                # once or twice.
                while True:
                    if not queue or (until is not None and queue[0][0] > until):
                        break
                    entry = pop(queue)
                    self._now = entry[0]
                    self._firing = entry[1]
                    count += 1
                    # Inlined _dispatch: this branch pair is the hottest code
                    # in the simulator.
                    if len(entry) == 4:
                        proc = entry[2]
                        if entry[3] == proc._fast_token:
                            proc._resume(_FAST_TRIGGER)
                    else:
                        obj = entry[2]
                        if isinstance(obj, Event):
                            obj._run_callbacks()
                        else:
                            obj()
                    if count > limit:
                        raise SimulationError(
                            f"exceeded max_events={max_events} at t={self._now:.9f}"
                        )
                if until is not None:
                    self._now = until
                self._firing = _INF
            finally:
                if collecting:
                    gc.enable()
                self.events_scheduled += self._seq - seq0
                self.events_fired += count

    def run_process(self, proc: Process, until: Optional[float] = None) -> Any:
        """Run until ``proc`` completes and return its value."""
        self.run(until=until)
        if not proc.triggered:
            raise SimulationError(
                f"process {proc.name!r} did not finish by t={self._now}"
            )
        if not proc.ok:
            raise proc._value
        return proc.value
