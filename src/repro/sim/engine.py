"""Deterministic discrete-event simulation kernel.

A minimal, fast coroutine scheduler in the style of SimPy.  The design goals
are:

* **Determinism** — events scheduled for the same timestamp fire in
  scheduling order (a monotonically increasing sequence number breaks ties),
  so a run is a pure function of its inputs and seeds.
* **Low overhead** — the scheduler is a *calendar queue* (bucketed by
  timestamp, heap fallback for far-future events) and the dominant
  ``timeout(d)``-then-resume pattern has a zero-allocation fast path: a
  process may ``yield`` a plain number instead of a :class:`Timeout` and
  the kernel schedules a raw tuple-entry bound to the process, no Event
  object at all; a tuple of numbers is a *chained delay* — back-to-back
  waits with nothing observable in between, filed as one entry due when
  the last of them would have fired.
* **Small surface** — only the primitives the communication runtimes need:
  one-shot events, timeouts, processes, and all-of/any-of conditions.

Scheduler structure (see docs/MODEL.md §13 for the full design):

* the **current bucket** is a real heap (``heappush``/``heappop``), so the
  next event is O(1) to find;
* **future buckets** inside the calendar window are plain append-only
  lists — scheduling into them is one list append; a bucket is heapified
  once, when the clock reaches it;
* events beyond the window go to an **overflow heap**; when the window
  drains the calendar *rebases* onto the overflow minimum and migrates
  everything that now fits.  Workloads whose delays dwarf the bucket
  width degrade gracefully: a streak of near-empty rebases grows the
  bucket width geometrically (the calendar resize), and with
  ``bucket_width=float("inf")`` the calendar degenerates to the classic
  single-heap scheduler (used by the determinism property tests).

Every entry is ``(when, seq, ...)`` and pops are strictly lexicographic
on ``(when, seq)``, so the event order — and therefore every simulated
run — is bit-identical to the single-heap scheduler's.

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
from heapq import heapify, heappop, heappush
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

#: Default calendar geometry.  The simulated runtimes operate at
#: sub-microsecond granularity (atomic ops ~5e-8 s, NIC latency ~1e-6 s,
#: aggregate flush timeouts 1e-4 s), so a 1 µs bucket over a ~1 ms window
#: keeps every delay the communication stack produces inside the calendar;
#: only pathological far-future events touch the overflow heap.
_DEFAULT_BUCKET_WIDTH = 1e-6
_DEFAULT_NUM_BUCKETS = 1024

#: A rebase that migrates at most this many entries is "near empty".
_SPARSE_REBASE = 2
#: After this many consecutive near-empty rebases the bucket width grows.
_RESIZE_STREAK = 4
#: Geometric growth factor of the calendar resize.
_RESIZE_FACTOR = 16.0


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
        env._push(when, (when, seq, self))

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
    one calendar entry due at ``((now + d0) + d1) + ...``, summed left to
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
        env._push(now, (now, seq, self, 0))

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            return
        if self._gen is self.env._active_gen:
            raise SimulationError("a process cannot interrupt itself")
        # Detach from whatever it is waiting on, then resume with the error.
        # A pending fast-timeout entry cannot be removed from the calendar
        # cheaply; invalidating its token makes it fizzle instead.  Token
        # 0 means no fast wait was ever scheduled: there is nothing to
        # invalidate but the bootstrap entry, which has to fire.
        if self._fast_token:
            self._fast_token += 1
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        self._target = None
        kick = Event(self.env)
        kick.callbacks.append(self._resume_cb)
        kick.fail(Interrupt(cause))
        kick.defuse()

    # -- internals ------------------------------------------------------
    def _resume(self, trigger) -> None:
        env = self.env
        gen = self._gen
        env._active_gen = gen
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
                # Zero-allocation timeout: a raw calendar entry bound to
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
            env._push(when, (when, seq, self, token))
            break
        env._active_gen = None

    def _finish(self, ok: bool, value: Any) -> None:
        """The generator is done: fire the process event, cut the cycle."""
        self.env._active_gen = None
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
    """The simulation clock and calendar-queue event scheduler.

    ``bucket_width``/``num_buckets`` pin the calendar geometry (mostly
    for tests): ``bucket_width=float("inf")`` collapses the calendar to
    the classic single-heap scheduler, tiny widths force every schedule
    through the overflow-heap fallback.  The default geometry covers the
    communication stack's whole delay spectrum, and the width grows
    automatically when a workload's timescale dwarfs it.
    """

    def __init__(
        self,
        initial_time: float = 0.0,
        bucket_width: Optional[float] = None,
        num_buckets: int = _DEFAULT_NUM_BUCKETS,
    ):
        if num_buckets < 1:
            raise SimulationError("calendar needs at least one bucket")
        width = _DEFAULT_BUCKET_WIDTH if bucket_width is None else bucket_width
        if width <= 0:
            raise SimulationError(f"bucket width must be positive: {width}")
        self._now = float(initial_time)
        self._seq = 0
        #: Sequence number of the entry being dispatched; ``inf`` while
        #: nothing is (see :attr:`fired_before`).
        self._firing = _INF
        self._active_gen: Optional[Generator] = None
        # -- calendar state --
        self._width = float(width)
        self._nb = int(num_buckets)
        self._base = self._now            # absolute time of bucket 0
        self._cur: List[tuple] = []       # heap: entries with when < _cur_end
        self._cur_idx = 0                 # bucket index mapped into _cur
        self._cur_end = self._base + self._width
        self._buckets: List[List[tuple]] = [[] for _ in range(self._nb)]
        self._far: List[tuple] = []       # overflow heap beyond the window
        self._far_ops = 0                 # heap-fallback pushes + migrations
        self._rebase_streak = 0
        #: Optional :class:`repro.faults.FaultInjector`.  When installed,
        #: :meth:`charged_timeout` dilates CPU-work delays through its
        #: straggler model; ``None`` keeps the hook a no-op.
        self.faults = None
        #: Optional :class:`repro.obs.profile.ProfileContext`.  When
        #: installed, :meth:`run` brackets the dispatch loop in a
        #: ``sim.engine.run`` region and folds event/scheduler work counts
        #: into the counter registry on exit.  The hot path (dispatch /
        #: ``_push``) is untouched either way: schedules are already
        #: counted by ``_seq``, fires by the run loop, and fallback ops by
        #: a plain attribute touched only on the (rare) overflow path —
        #: profiling adds zero per-event cost.
        self.profiler = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def fired_before(self) -> tuple:
        """The calendar position ``(when, seq)`` the run has reached:
        every entry that orders before it has fired, no other has.  It
        lets a component account for an effect that is due at a known
        position — ``(when, env._seq)`` read where the entry would have
        been scheduled — without a calendar entry to deliver it."""
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
    def _push(self, when: float, entry: tuple) -> None:
        """File ``entry`` (keyed ``(when, seq, ...)``) into the calendar."""
        if when < self._cur_end:
            heappush(self._cur, entry)
            return
        i = int((when - self._base) / self._width)
        if i < self._nb:
            # Floating point can floor a boundary value back into the
            # already-drained span; the next bucket is where it belongs.
            if i <= self._cur_idx:
                i = self._cur_idx + 1
                if i >= self._nb:
                    self._far_ops += 1
                    heappush(self._far, entry)
                    return
            self._buckets[i].append(entry)
        else:
            self._far_ops += 1
            heappush(self._far, entry)

    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        event._scheduled = True
        seq = self._seq + 1
        self._seq = seq
        when = self._now + delay
        self._push(when, (when, seq, event))

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` after ``delay`` — a raw calendar entry with no
        Event allocated.  The fire-and-forget sibling of
        :meth:`schedule_callback` for callers that discard the event."""
        seq = self._seq + 1
        self._seq = seq
        when = self._now + delay
        self._push(when, (when, seq, fn))

    def schedule_callback(
        self, delay: float, fn: Callable[[], None]
    ) -> Event:
        """Run ``fn`` after ``delay``; returns the underlying event."""
        ev = Timeout(self, delay)
        ev.callbacks.append(lambda _ev: fn())
        return ev

    # -- calendar maintenance -------------------------------------------
    def _advance(self) -> bool:
        """Move the current-bucket heap to the next nonempty span.

        Returns False when the whole calendar (buckets and overflow heap)
        is empty.  Idempotent: re-entering while ``_cur`` holds entries is
        a no-op, so nested uses (``peek()`` from inside a dispatched
        callback, then the run loop) cannot promote past a live bucket.
        """
        if self._cur:
            return True
        buckets = self._buckets
        nb = self._nb
        i = self._cur_idx + 1
        while True:
            while i < nb:
                b = buckets[i]
                if b:
                    buckets[i] = []
                    heapify(b)
                    self._cur = b
                    self._cur_idx = i
                    self._cur_end = self._base + (i + 1) * self._width
                    return True
                i += 1
            # Window exhausted: rebase onto the overflow heap.
            far = self._far
            if not far:
                return False
            width = self._width
            self._base = base = far[0][0]
            horizon = base + nb * width
            migrated = 0
            while far and far[0][0] < horizon:
                e = heappop(far)
                j = int((e[0] - base) / width)
                if j >= nb:
                    j = nb - 1
                buckets[j].append(e)
                migrated += 1
            self._far_ops += migrated
            # Calendar resize: a streak of near-empty rebases means the
            # workload's timescale dwarfs the bucket width (the calendar
            # is degenerating into one heap op per event).  Growing the
            # width geometrically restores O(1) scheduling; order is
            # untouched because entries carry their own (when, seq) keys.
            if migrated <= _SPARSE_REBASE:
                self._rebase_streak += 1
                if self._rebase_streak >= _RESIZE_STREAK and width < _INF:
                    self._rebase_streak = 0
                    self._resize(width * _RESIZE_FACTOR)
                    # _resize rebuilt _cur/_buckets/_far (and set
                    # _cur_idx/_cur_end) under the new geometry; the
                    # locals drained above and the rebase below refer
                    # to the *old* calendar.  Restart the scan on the
                    # fresh state instead of falling through.
                    if self._cur:
                        return True
                    buckets = self._buckets
                    i = self._cur_idx + 1
                    continue
            else:
                self._rebase_streak = 0
            self._cur_idx = -1
            self._cur_end = base
            i = 0

    def _resize(self, new_width: float) -> None:
        """Redistribute every pending entry under a new bucket width.

        Safe at any point between event dispatches: entries carry their
        own ``(when, seq)`` keys, so pop order — and therefore the run —
        is unaffected.  Exposed for tests via :meth:`resize`.
        """
        if new_width <= 0:
            raise SimulationError(f"bucket width must be positive: {new_width}")
        pending: List[tuple] = list(self._cur)
        for b in self._buckets:
            if b:
                pending.extend(b)
                # Empty the drained list in place so any stale alias
                # (e.g. a scan loop holding the old bucket table) sees
                # an empty bucket rather than re-delivering entries.
                del b[:]
        pending.extend(self._far)
        self._width = float(new_width)
        self._base = self._now
        self._cur = []
        self._cur_idx = 0
        self._cur_end = self._base + self._width
        self._buckets = [[] for _ in range(self._nb)]
        self._far = []
        for e in pending:
            self._push(e[0], e)

    def resize(self, bucket_width: float) -> None:
        """Change the calendar bucket width mid-run (order-preserving)."""
        self._resize(bucket_width)

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
        if not self._cur and not self._advance():
            raise IndexError("pop from an empty event queue")
        entry = heappop(self._cur)
        self._now = entry[0]
        self._firing = entry[1]
        self._dispatch(entry)

    def peek(self) -> float:
        """Time of the next event, or ``inf`` if none."""
        if not self._cur and not self._advance():
            return _INF
        return self._cur[0][0]

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        """Run until the queue drains, ``until`` is reached, or event cap.

        ``max_events`` is a safety valve against accidental livelock in
        polling loops; exceeding it raises :class:`SimulationError`.
        """
        prof = self.profiler
        seq0 = self._seq
        far0 = self._far_ops
        count = 0
        limit = max_events if max_events is not None else _INF
        pop = heappop
        with nullcontext() if prof is None else prof.cell("sim.engine.run"):
            # The loop makes no cyclic garbage (a finished process is not
            # a cycle), so every pass of the cyclic collector over the
            # live simulation is pure cost: it sits the loop out.
            collecting = gc.isenabled()
            gc.disable()
            try:
                while True:
                    # Re-read each iteration: callbacks may promote a bucket
                    # (via peek/step) or resize the calendar, replacing _cur.
                    cur = self._cur
                    if not cur:
                        if not self._advance():
                            break
                        cur = self._cur
                    if until is not None and cur[0][0] > until:
                        break
                    entry = pop(cur)
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
                if prof is not None:
                    scheduled = self._seq - seq0
                    ctr = prof.counters
                    ctr.inc("sim.events_scheduled", scheduled)
                    ctr.inc("sim.events_fired", count)
                    # Total scheduler ops: every schedule files an entry,
                    # every fire pops one (the counter's meaning since the
                    # single-heap scheduler; kept for trajectory continuity).
                    ctr.inc("sim.heap_ops", scheduled + count)
                    # Fallback breakdown, only when the overflow heap actually
                    # engaged: the canonical workloads fit entirely inside the
                    # calendar window, and emitting always-zero keys would
                    # change their counter fingerprints for no information.
                    far = self._far_ops - far0
                    if far:
                        ctr.inc("sim.heap_fallback_ops", far)
                        ctr.inc("sim.bucket_ops", scheduled + count - far)

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
