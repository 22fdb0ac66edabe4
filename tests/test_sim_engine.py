"""Unit tests for the discrete-event simulation kernel."""

import gc

import pytest

from repro.sim.engine import (
    Environment,
    Interrupt,
    Process,
    SimulationError,
)


def test_timeout_advances_clock():
    env = Environment()
    seen = []

    def proc(env):
        yield env.timeout(2.5)
        seen.append(env.now)
        yield env.timeout(1.0)
        seen.append(env.now)

    env.process(proc(env))
    env.run()
    assert seen == [2.5, 3.5]
    assert env.now == 3.5


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_timeout_carries_value():
    env = Environment()
    out = []

    def proc(env):
        v = yield env.timeout(1, value="hello")
        out.append(v)

    env.process(proc(env))
    env.run()
    assert out == ["hello"]


def test_same_time_events_fire_in_scheduling_order():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for i in range(5):
        env.process(proc(env, i))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_event_succeed_wakes_waiter():
    env = Environment()
    ev = env.event()
    got = []

    def waiter(env):
        val = yield ev
        got.append((env.now, val))

    def trigger(env):
        yield env.timeout(4)
        ev.succeed(42)

    env.process(waiter(env))
    env.process(trigger(env))
    env.run()
    assert got == [(4, 42)]


def test_event_double_trigger_raises():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_propagates_into_process():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter(env):
        try:
            yield ev
        except ValueError as e:
            caught.append(str(e))

    env.process(waiter(env))
    ev.fail(ValueError("boom"))
    env.run()
    assert caught == ["boom"]


def test_unhandled_failed_event_crashes_run():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("nobody caught me"))
    with pytest.raises(RuntimeError, match="nobody caught me"):
        env.run()


def test_defused_failure_does_not_crash():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("quiet"))
    ev.defuse()
    env.run()  # should not raise


def test_process_return_value():
    env = Environment()

    def child(env):
        yield env.timeout(1)
        return "done"

    def parent(env):
        result = yield env.process(child(env))
        return result + "!"

    p = env.process(parent(env))
    assert env.run_process(p) == "done!"


def test_process_waiting_on_already_processed_event():
    env = Environment()

    def child(env):
        yield env.timeout(1)
        return 7

    def parent(env):
        c = env.process(child(env))
        yield env.timeout(10)  # child long done
        val = yield c
        return val

    p = env.process(parent(env))
    assert env.run_process(p) == 7
    assert env.now == 10


def test_process_exception_propagates_to_waiter():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise KeyError("inner")

    def parent(env):
        try:
            yield env.process(bad(env))
        except KeyError:
            return "caught"

    p = env.process(parent(env))
    assert env.run_process(p) == "caught"


def test_yield_non_event_fails_process():
    # Numbers are valid yields (the zero-allocation timeout fast path),
    # so the garbage here must be non-numeric.
    env = Environment()

    def bad(env):
        yield "not an event"

    p = env.process(bad(env))
    with pytest.raises(SimulationError, match="non-event"):
        env.run()
    assert p.triggered and not p.ok


def test_interrupt_resumes_with_cause():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100)
        except Interrupt as i:
            log.append((env.now, i.cause))

    def interrupter(env, victim):
        yield env.timeout(3)
        victim.interrupt("wake up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [(3, "wake up")]


def test_interrupt_dead_process_is_noop():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    p = env.process(quick(env))
    env.run()
    p.interrupt()  # no error


def test_any_of_fires_on_first():
    env = Environment()
    results = []

    def proc(env):
        t1 = env.timeout(5, value="slow")
        t2 = env.timeout(2, value="fast")
        got = yield env.any_of([t1, t2])
        results.append((env.now, got))

    env.process(proc(env))
    env.run()
    assert results[0][0] == 2
    assert results[0][1] == {1: "fast"}


def test_all_of_waits_for_all():
    env = Environment()
    results = []

    def proc(env):
        t1 = env.timeout(5, value="a")
        t2 = env.timeout(2, value="b")
        got = yield env.all_of([t1, t2])
        results.append((env.now, got))

    env.process(proc(env))
    env.run()
    assert results == [(5, {0: "a", 1: "b"})]


def test_all_of_empty_fires_immediately():
    env = Environment()
    done = []

    def proc(env):
        yield env.all_of([])
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [0.0]


def test_run_until_stops_clock():
    env = Environment()

    def proc(env):
        for _ in range(10):
            yield env.timeout(1)

    env.process(proc(env))
    env.run(until=3.5)
    assert env.now == 3.5


def test_max_events_guard():
    env = Environment()

    def spinner(env):
        while True:
            yield env.timeout(0)

    env.process(spinner(env))
    with pytest.raises(SimulationError, match="max_events"):
        env.run(max_events=100)


def test_schedule_callback():
    env = Environment()
    hits = []
    env.schedule_callback(2.0, lambda: hits.append(env.now))
    env.run()
    assert hits == [2.0]


def test_peek():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(3)
    assert env.peek() == 3


def test_run_process_unfinished_raises():
    env = Environment()

    def waits_forever(env):
        yield env.event()

    p = env.process(waits_forever(env))
    with pytest.raises(SimulationError, match="did not finish"):
        env.run_process(p)


# ----------------------------------------------------------------------
# Calendar-queue scheduler determinism
# ----------------------------------------------------------------------

def _record_order(env, log, label, delay):
    def proc():
        yield delay
        log.append((env.now, label))
    return env.process(proc())


def test_same_timestamp_ordering_across_bucket_boundaries():
    # Schedule pairs of events at the same timestamp where one lands in
    # the current bucket and its twin beyond the calendar horizon (far
    # heap); scheduling order must still decide the tie everywhere.
    env = Environment(bucket_width=1e-6, num_buckets=4)  # 4 us horizon
    log = []
    for i, when in enumerate([3e-6, 3e-6, 50e-6, 50e-6, 0.5e-6, 0.5e-6]):
        _record_order(env, log, i, when)
    env.run()
    assert log == [
        (0.5e-6, 4), (0.5e-6, 5),
        (3e-6, 0), (3e-6, 1),
        (50e-6, 2), (50e-6, 3),
    ]


def test_calendar_resize_mid_run_preserves_order():
    env = Environment(bucket_width=1e-6, num_buckets=8)
    log = []
    for i, when in enumerate([2e-6, 2e-6, 5e-6, 300e-6, 300e-6, 301e-6]):
        _record_order(env, log, i, when)

    def resizer():
        yield 4e-6
        env.resize(100e-6)  # re-bucket everything still pending
        log.append((env.now, "resized"))
    env.process(resizer())
    env.run()
    assert log == [
        (2e-6, 0), (2e-6, 1),
        (4e-6, "resized"),
        (5e-6, 2),
        (300e-6, 3), (300e-6, 4),
        (301e-6, 5),
    ]


def test_automatic_resize_drops_and_duplicates_nothing():
    # Regression: a streak of sparse rebases triggers the automatic
    # width growth *inside* _advance.  The resize rebuilds the calendar
    # mid-scan; the scan must restart on the fresh state or it will
    # re-deliver (from the stale bucket table) and/or clobber the
    # rebuilt current heap, losing events.  Both historical failure
    # modes are pinned here.
    def fire_at(times):
        env = Environment(bucket_width=1.0, num_buckets=4)
        fired = []
        for t in times:
            env.call_later(t, (lambda tt: (lambda: fired.append(tt)))(t))
        env.run()
        assert env._width > 1.0  # the automatic resize actually ran
        return fired

    # Lost-event shape: 306 lands in the rebuilt current heap, which a
    # stale fall-through used to overwrite.
    assert fire_at([100, 200, 300, 305, 306]) == [100, 200, 300, 305, 306]
    # Duplicate-event shape: 400 sat in a drained-but-uncleared old
    # bucket and used to be delivered twice.
    assert fire_at([100, 200, 300, 400, 500]) == [100, 200, 300, 400, 500]


def test_sparse_rebase_streak_matches_pure_heap():
    # Coarse-timescale workload: every delay dwarfs the whole calendar
    # window (bucket_width * num_buckets = 4 s vs ~1000 s gaps), so each
    # rebase migrates one or two entries and the resize streak trips
    # repeatedly.  The fire order must equal the degenerate single-heap
    # scheduler's, event for event.
    import random

    def workload(env):
        rng = random.Random(99)
        log = []

        def proc(name):
            for _ in range(6):
                yield 100.0 + rng.random() * 1000.0
                log.append((env.now, name))

        for i in range(6):
            env.process(proc(f"p{i}"))
        env.run()
        return log

    calendar = workload(Environment(bucket_width=1.0, num_buckets=4))
    pure = workload(Environment(bucket_width=float("inf")))
    assert calendar == pure
    assert len(calendar) == 36


def test_interrupt_from_fast_timeout_path():
    # A process sleeping via the zero-allocation float-yield path must
    # still be interruptible, and the stale fast-timer must not fire.
    env = Environment()
    log = []

    def sleeper():
        try:
            yield 100.0  # fast-path timeout
        except Interrupt as exc:
            log.append(("interrupted", env.now, exc.cause))
            yield 1.0    # fast path again after the interrupt
            log.append(("resumed", env.now))

    p = env.process(sleeper())

    def waker():
        yield 2.0
        p.interrupt("wake")
    env.process(waker())
    env.run()
    assert log == [("interrupted", 2.0, "wake"), ("resumed", 3.0)]
    # The defused 100 s timer still drains as a no-op pop (exactly like
    # a historical Timeout whose callbacks were removed), so event and
    # clock accounting match the pre-calendar engine.
    assert env.now == 100.0


def test_calendar_and_pure_heap_orders_identical():
    # Property-style: a randomized seeded workload of timers, chained
    # resumes, and interrupts must fire in the identical order under the
    # calendar queue and under the pure-heap degenerate configuration.
    import random

    def workload(env):
        rng = random.Random(1234)
        log = []

        def jittery(name):
            for _ in range(rng.randint(1, 5)):
                yield rng.choice([0.0, 1e-7, 3.7e-6, 1e-3]) * rng.random()
                log.append((env.now, name))

        def sleeper(name):
            # Long fast-path sleeps that expect to be poked awake.
            try:
                yield 1e-2
                log.append((env.now, name, "slept"))
            except Interrupt:
                log.append((env.now, name, "poked"))
                yield rng.random() * 1e-5
                log.append((env.now, name, "back"))

        for i in range(25):
            env.process(jittery(f"p{i}"))
        sleepers = [env.process(sleeper(f"s{i}")) for i in range(5)]

        def meddler():
            yield 2e-6
            for p in sleepers[::2]:
                if p.is_alive:
                    p.interrupt("poke")
            log.append((env.now, "meddled"))
        env.process(meddler())
        env.run()
        return log

    fast = workload(Environment(bucket_width=1e-6, num_buckets=16))
    # Interrupted processes raise into jittery generators which have no
    # handler; both runs must crash identically or succeed identically.
    pure = workload(Environment(bucket_width=float("inf")))
    assert fast == pure
    assert len(fast) > 25


# ----------------------------------------------------------------------
# Chained delays: one entry where back-to-back waits were several
# ----------------------------------------------------------------------

#: Calendar geometries: the default, the single-heap degenerate, and a
#: width so small that every schedule goes through the overflow heap.
GEOMETRIES = {
    "default": {},
    "pure-heap": {"bucket_width": float("inf")},
    "tiny-width": {"bucket_width": 1e-12, "num_buckets": 4},
}

#: Delays that do not add associatively in binary floating point, ints,
#: zeros, one hop over many buckets and one past the calendar window.
CHAINS = [
    (0.1, 0.2, 0.3),
    (1e-7, 3.3e-7, 5e-8),
    (0, 2, 0.0, 1.5),
    (0.0,),
    (7e-7,),
    (1e-7, 2e-3, 1e-7),
    (3e-7, 5.0, 1e-9),
]


def _chain_workload(env, chained):
    """Workers sleeping through CHAINS (as one chained yield each, or
    link by link) between rivals that wake on a grid of their own."""
    log = []

    def worker(name, offset):
        yield offset
        for chain in CHAINS:
            if chained:
                yield chain
            else:
                for delay in chain:
                    yield delay
            log.append((env.now.hex(), name))

    def rival(name, step):
        for _ in range(40):
            yield step
            log.append((env.now.hex(), name))

    for i, offset in enumerate((0.0, 1e-7, 0.25)):
        env.process(worker(f"w{i}", offset))
    for i, step in enumerate((1e-7, 0.1, 0.15, 0.5)):
        env.process(rival(f"r{i}", step))
    env.run()
    return log


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_chained_delay_equals_the_waits_it_replaces(geometry):
    kw = GEOMETRIES[geometry]
    chained = _chain_workload(Environment(**kw), True)
    separate = _chain_workload(Environment(**kw), False)
    assert chained == separate
    assert len(chained) == 3 * len(CHAINS) + 4 * 40


def test_chained_delay_sums_left_to_right_in_one_entry():
    env = Environment()
    seen = []

    def proc():
        yield 0.7
        yield (0.1, 0.3, 0.2)
        seen.append(env.now)

    env.process(proc())
    seq0 = env._seq
    env.run()
    assert seen == [((0.7 + 0.1) + 0.3) + 0.2]
    assert seen != [0.7 + (0.1 + 0.3 + 0.2)]  # the order is observable
    assert env._seq - seq0 == 3  # the wait, the chain, the process event
    assert env.due((0.1, 0.2)) == (env.now + 0.1) + 0.2
    assert env.due(()) == env.now


@pytest.mark.parametrize("bad, message", [
    ((1.0, -0.5, 1.0), "negative timeout delay: -0.5"),
    ((1.0, "soon"), "yielded non-event"),
    ((), "yielded non-event"),
])
def test_bad_chained_delay_fails_the_process(bad, message):
    env = Environment()

    def proc():
        yield bad

    p = env.process(proc())
    with pytest.raises(SimulationError, match=message):
        env.run()
    assert p.triggered and not p.ok
    assert env.now == 0.0  # nothing was scheduled for it


def test_interrupt_mid_chain_cancels_the_whole_chain():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield (1.0, 1.0, 1.0)
            log.append(("slept", env.now))
        except Interrupt as exc:
            log.append(("interrupted", env.now, exc.cause))
            yield (0.25, 0.25)
            log.append(("resumed", env.now))

    p = env.process(sleeper())

    def waker():
        yield 1.5  # between the first and the second link
        p.interrupt("wake")
    env.process(waker())
    env.run()
    assert log == [("interrupted", 1.5, "wake"), ("resumed", 2.0)]
    assert env.now == 3.0  # the cancelled entry drains as a no-op


# ----------------------------------------------------------------------
# Process bootstrap and lifetime
# ----------------------------------------------------------------------

def test_processes_start_in_creation_order_among_other_entries():
    env = Environment()
    order = []

    def proc(tag):
        order.append(tag)
        yield 0.0
        order.append(tag + "'")

    env.process(proc("a"))
    env.call_later(0.0, lambda: order.append("raw"))
    env.process(proc("b"))
    env.timeout(0.0).callbacks.append(lambda _ev: order.append("timeout"))
    env.process(proc("c"))
    assert order == []  # nothing runs at creation
    env.run()
    assert order == ["a", "raw", "b", "timeout", "c", "a'", "b'", "c'"]


def test_interrupt_before_first_resume_lands_at_the_first_yield():
    # The process still starts at its place in the order; the interrupt
    # reaches it where it first waits (twice if sent twice).
    env = Environment()
    log = []

    def proc():
        log.append("started")
        for _ in range(3):
            try:
                yield 10.0
                log.append(("slept", env.now))
            except Interrupt as exc:
                log.append(("interrupted", env.now, exc.cause))

    p = env.process(proc())
    p.interrupt("first")
    p.interrupt("second")
    env.run()
    assert log == [
        "started", ("interrupted", 0.0, "first"),
        ("interrupted", 0.0, "second"), ("slept", 10.0),
    ]


def test_finished_process_is_freed_without_the_collector():
    def live_processes():
        return sum(isinstance(o, Process) for o in gc.get_objects())

    env = Environment()

    def child():
        yield (1e-6, 1e-6)
        return 7

    def parent():
        for _ in range(3):
            assert (yield env.process(child())) == 7

    def interrupted():
        try:
            yield 5.0
        except Interrupt:
            return

    def interrupter(victim):
        yield 1e-6
        victim.interrupt()

    gc.collect()
    before = live_processes()
    gc.disable()
    try:
        env.process(parent())
        env.process(interrupter(env.process(interrupted())))
        assert live_processes() == before + 3
        env.run()
        # All six are gone, and not as garbage waiting for a pass.
        assert live_processes() == before
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("raises", [False, True])
def test_run_pauses_the_collector_and_restores_its_state(enabled, raises):
    env = Environment()
    seen = []

    def proc():
        yield 1.0
        seen.append(gc.isenabled())
        if raises:
            raise ValueError("boom")

    env.process(proc())
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if raises:
            with pytest.raises(ValueError, match="boom"):
                env.run()
        else:
            env.run(until=5.0)
        assert seen == [False]
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_fired_before_is_the_position_of_the_entry_being_dispatched():
    env = Environment()
    inf = float("inf")
    assert env.fired_before == (0.0, inf)  # idle: nothing at or before now
    seen = []
    for _ in range(3):
        # Where an entry scheduled here would sit: after everything
        # already scheduled, before everything scheduled later.
        position = (1.0, env._seq)
        env.call_later(1.0, lambda p=position: seen.append(
            (p < env.fired_before, env.fired_before[0])))
    env.step()
    assert env.fired_before[0] == 1.0 and env.fired_before[1] < inf
    env.run(until=1.0)
    # Each callback saw its own position as already passed.
    assert seen == [(True, 1.0)] * 3
    assert env.fired_before == (1.0, inf)
    env.run()
    assert env.fired_before == (1.0, inf)
