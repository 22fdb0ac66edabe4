"""Unit tests for the discrete-event simulation kernel."""

import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import (
    Environment,
    Interrupt,
    Process,
    SimulationError,
)

from tests.oracles import ListEnvironment


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


@pytest.mark.parametrize("nested", [False, True], ids=["body", "yield-from"])
def test_process_cannot_interrupt_itself(nested):
    env = Environment()
    caught = []

    def helper():
        yield 1.0
        me.interrupt("me")

    def body():
        yield 1.0
        try:
            if nested:
                yield from helper()
            else:
                me.interrupt("me")
        except SimulationError as exc:
            caught.append(str(exc))
        yield 1.0

    me = env.process(body())
    env.run()
    assert caught == ["a process cannot interrupt itself"]
    assert me.ok and env.now == (3.0 if nested else 2.0)


def test_self_interrupt_left_uncaught_fails_the_process():
    env = Environment()

    def body():
        yield 1.0
        me.interrupt()

    me = env.process(body())
    with pytest.raises(SimulationError, match="cannot interrupt itself"):
        env.run()
    assert me.triggered and not me.ok


@pytest.mark.parametrize("via", ["process", "call_later"])
def test_interrupting_another_suspended_process(via):
    env = Environment()
    log = []

    def sleeper():
        try:
            yield 10.0
        except Interrupt as exc:
            log.append((env.now, exc.cause))

    victim = env.process(sleeper())
    if via == "process":
        def other():
            yield 2.0
            victim.interrupt(via)
        env.process(other())
    else:
        env.call_later(2.0, lambda: victim.interrupt(via))
    env.run()
    assert log == [(2.0, via)]


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


def test_run_until_an_instant_in_the_past_is_rejected():
    env = Environment()
    env.run(until=5.0)
    env.run(until=5.0)  # the present is not the past
    with pytest.raises(SimulationError, match=r"until=3\.0.* at 5\.0"):
        env.run(until=3.0)
    assert env.now == 5.0


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
# Event order against the list model (tests/oracles.py)
# ----------------------------------------------------------------------

def _sleepers(env, log, delays):
    """One process per delay, each logging the instant it wakes."""
    def proc(label, delay):
        yield delay
        log.append((env.now, label))
    for label, delay in enumerate(delays):
        env.process(proc(label, delay))


def _tie_pairs(env, log):
    # Pairs due at the same instant — half a microsecond out, a few, and
    # far beyond them: scheduling order decides each tie.
    _sleepers(env, log, [3e-6, 3e-6, 50e-6, 50e-6, 0.5e-6, 0.5e-6])


def _mid_run_wake(env, log):
    # A process waking between the near entries and the far ones.
    _sleepers(env, log, [2e-6, 2e-6, 5e-6, 300e-6, 300e-6, 301e-6])

    def waker():
        yield 4e-6
        log.append((env.now, "woke"))
    env.process(waker())


def _raw_timers(times):
    def workload(env, log):
        for t in times:
            env.call_later(t, lambda t=t: log.append((env.now, t)))
    return workload


def _coarse_timescale(env, log):
    # Every delay is 100-1 100 s: a handful of entries, far apart.
    rng = random.Random(99)

    def proc(name):
        for _ in range(6):
            yield 100.0 + rng.random() * 1000.0
            log.append((env.now, name))

    for i in range(6):
        env.process(proc(f"p{i}"))


def _sparse_to_dense_flip(env, log):
    # Hundreds of seconds between entries, then a burst a few hundred
    # nanoseconds apart (ties included) where the last of them lands,
    # then sparse again.
    rng = random.Random(7)

    def proc(name):
        for _ in range(3):
            yield 100.0 * rng.randint(1, 5)
            log.append((env.now, name, "sparse"))
        yield 2000.0 - env.now
        for _ in range(20):
            yield rng.choice([0.0, 1e-7, 1e-7, 3e-7])
            log.append((env.now, name, "dense"))
        yield 100.0 * rng.randint(1, 5)
        log.append((env.now, name, "sparse"))

    for i in range(5):
        env.process(proc(f"p{i}"))


def _seeded_mix(env, log):
    # Seeded timers, chained resumes and interrupts.
    rng = random.Random(1234)

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


def _nested_peek_and_step(env, log):
    # A callback looks ahead and dispatches the next entry itself; the
    # run loop carries on behind it.
    _sleepers(env, log, [1e-6, 2e-6, 2e-6, 3e-6])

    def meddle():
        log.append((env.now, "peeked", env.peek()))
        env.step()
        log.append((env.now, "stepped", env.peek()))
    env.call_later(1.5e-6, meddle)


#: name -> (workload, entries it logs)
WORKLOADS = {
    "tie-pairs": (_tie_pairs, 6),
    "mid-run-wake": (_mid_run_wake, 7),
    "raw-timers-close-after-sparse": (_raw_timers([100, 200, 300, 305, 306]), 5),
    "raw-timers-evenly-sparse": (_raw_timers([100, 200, 300, 400, 500]), 5),
    "coarse-timescale": (_coarse_timescale, 36),
    "sparse-to-dense-flip": (_sparse_to_dense_flip, 5 * 24),
    "seeded-mix": (_seeded_mix, 79),
    "nested-peek-and-step": (_nested_peek_and_step, 6),
}


def _observe(env, workload, *args):
    log = []
    workload(env, log, *args)
    env.run()
    return log, env.now


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_kernel_fires_in_the_model_order(name):
    workload, entries = WORKLOADS[name]
    kernel, model = Environment(), ListEnvironment()
    observed = _observe(kernel, workload)
    assert observed == _observe(model, workload)
    assert len(observed[0]) == entries
    assert kernel._seq == model.scheduled  # entry for entry


_DELAYS = st.sampled_from([0.0, 1e-7, 2e-7, 3e-7, 0.1, 0.2, 100.0])
_OPS = st.one_of(
    st.tuples(st.sampled_from(["sleep", "timeout", "call_later"]), _DELAYS),
    st.tuples(st.just("chain"),
              st.lists(_DELAYS, min_size=1, max_size=3).map(tuple)),
    st.tuples(st.just("interrupt"), st.integers(0, 5)),
)


def _programs(env, log, programs):
    """One process per program; an op that is interrupted is logged as
    such and the program moves on to its next op."""
    procs = []

    def proc(me, ops):
        for i, (op, arg) in enumerate(ops):
            got = None
            try:
                if op == "timeout":
                    got = yield env.timeout(arg, value=(me, i))
                elif op == "call_later":
                    env.call_later(
                        arg, lambda i=i: log.append((env.now, me, i, "fired")))
                elif op == "interrupt":
                    victim = arg % len(procs)
                    if victim != me:
                        procs[victim].interrupt((me, i))
                else:  # "sleep": a delay; "chain": a tuple of them
                    yield arg
            except Interrupt as exc:
                got = ("interrupted by", exc.cause)
            log.append((env.now, me, i, op, got))

    for me, ops in enumerate(programs):
        procs.append(env.process(proc(me, ops)))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.lists(st.lists(_OPS, max_size=6), min_size=1, max_size=6))
def test_random_programs_fire_in_the_model_order(programs):
    kernel, model = Environment(), ListEnvironment()
    assert (_observe(kernel, _programs, programs)
            == _observe(model, _programs, programs))
    assert kernel._seq == model.scheduled


def test_mass_cancellation_drains_stale_entries_as_noops():
    env = Environment()
    woke, poked = [], []

    def sleeper(i):
        try:
            yield 1.0 + i * 1e-6
            woke.append(i)
        except Interrupt:
            poked.append((i, env.now))

    procs = [env.process(sleeper(i)) for i in range(10_000)]

    def canceller():
        yield 0.5
        for p in procs[1::2]:
            p.interrupt()
    env.process(canceller())
    env.run()
    assert woke == list(range(0, 10_000, 2))
    assert poked == [(i, 0.5) for i in range(1, 10_000, 2)]
    # The 5 000 cancelled entries stayed queued and drained as no-ops:
    # the clock ends on the last of them.
    assert env.now == 1.0 + 9_999 * 1e-6


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
    # a Timeout whose callbacks were removed), so it counts as an event
    # and moves the clock.
    assert env.now == 100.0


# ----------------------------------------------------------------------
# Chained delays: one entry where back-to-back waits were several
# ----------------------------------------------------------------------

#: Delays that do not add associatively in binary floating point, ints,
#: zeros, and hops of milliseconds and seconds between sub-microsecond ones.
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


def test_chained_delay_equals_the_waits_it_replaces():
    chained = _chain_workload(Environment(), True)
    separate = _chain_workload(Environment(), False)
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


@pytest.mark.parametrize("again", [False, True], ids=["returns", "waits-again"])
@pytest.mark.parametrize("wait", ["fast", "chained", "event"])
def test_interrupt_sent_before_the_first_wait_ends_that_wait(wait, again):
    # The interrupt is delivered at the wait the process starts with;
    # what that wait was parked on must not resume the process again —
    # not a handler that returned, not one that moved on to another wait.
    env = Environment()
    log = []
    gate = env.event()

    def proc():
        try:
            if wait == "fast":
                yield 10.0
            elif wait == "chained":
                yield (5.0, 5.0)
            else:
                yield gate
            log.append(("slept", env.now))
        except Interrupt as exc:
            log.append(("interrupted", env.now, exc.cause))
            if again:
                got = yield env.timeout(3.0, value="mine")
                log.append(("again", env.now, got))

    p = env.process(proc())
    p.interrupt("early")
    env.call_later(1.0, lambda: gate.succeed("stale"))
    env.run()
    assert log == [("interrupted", 0.0, "early")] + (
        [("again", 3.0, "mine")] if again else [])
    assert p.ok and not p.is_alive
    # The abandoned 10 s entry still drains, as a no-op.
    assert env.now == (3.0 if wait == "event" and again else
                       1.0 if wait == "event" else 10.0)


def test_interrupt_for_a_process_that_has_since_finished_is_dropped():
    env = Environment()
    log = []

    def proc():
        try:
            yield 10.0
        except Interrupt as exc:
            log.append(exc.cause)

    p = env.process(proc())
    p.interrupt("first")
    p.interrupt("second")  # sent while alive, due after it returned
    env.run()
    assert log == ["first"]
    assert p.ok


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
