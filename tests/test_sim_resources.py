"""Unit tests for Resource / Lock."""

import pytest

from repro.sim.engine import Environment, SimulationError
from repro.sim.resources import Lock, Resource


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------
def test_resource_capacity_enforced():
    env = Environment()
    res = Resource(env, capacity=2)
    active = []
    peak = []

    def worker(env, i):
        yield res.request()
        active.append(i)
        peak.append(len(active))
        yield env.timeout(1)
        active.remove(i)
        res.release()

    for i in range(5):
        env.process(worker(env, i))
    env.run()
    assert max(peak) == 2


def test_resource_try_request():
    env = Environment()
    res = Resource(env, capacity=1)
    assert res.try_request()
    assert not res.try_request()
    res.release()
    assert res.try_request()


def test_resource_release_without_request_raises():
    env = Environment()
    res = Resource(env)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_fifo_grant_order():
    env = Environment()
    res = Resource(env, capacity=1)
    grants = []

    def worker(env, i):
        yield env.timeout(i * 0.1)  # stagger arrival
        yield res.request()
        grants.append(i)
        yield env.timeout(10)
        res.release()

    for i in range(4):
        env.process(worker(env, i))
    env.run()
    assert grants == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# Lock
# ---------------------------------------------------------------------------
def test_lock_mutual_exclusion_and_cost():
    env = Environment()
    lock = Lock(env, acquire_cost=0.5)
    inside = []

    def critical(env, i):
        yield from lock.acquire()
        inside.append(("enter", i, env.now))
        yield env.timeout(1)
        inside.append(("exit", i, env.now))
        lock.release()

    env.process(critical(env, 0))
    env.process(critical(env, 1))
    env.run()
    # First holder enters after paying acquire cost.
    assert inside[0] == ("enter", 0, 0.5)
    # Second cannot enter before the first exits.
    enter1 = [e for e in inside if e[0] == "enter" and e[1] == 1][0]
    exit0 = [e for e in inside if e[0] == "exit" and e[1] == 0][0]
    assert enter1[2] >= exit0[2]


def test_lock_contention_counter():
    env = Environment()
    lock = Lock(env)

    def holder(env):
        yield from lock.acquire()
        yield env.timeout(5)
        lock.release()

    def contender(env):
        yield env.timeout(1)
        yield from lock.acquire()
        lock.release()

    env.process(holder(env))
    env.process(contender(env))
    env.run()
    assert lock.acquisitions == 2
    assert lock.contended_acquisitions == 1


def test_lock_held_releases_on_exception():
    env = Environment()
    lock = Lock(env)

    def body(env):
        yield env.timeout(1)
        raise ValueError("inner failure")

    def proc(env):
        try:
            yield from lock.held(body(env))
        except ValueError:
            pass
        return lock.locked

    p = env.process(proc(env))
    assert env.run_process(p) is False
