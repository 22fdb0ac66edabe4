"""Edge cases of MPI matching (wildcards, FIFO) and LCI pool recycling.

The matching queues implement exactly the semantics LCI drops — wildcard
receives and the FIFO-per-(source, tag) ordering guarantee — so their
corner cases are load-bearing for the paper's comparison.  The pool
tests walk the full exhaustion → recycle → reuse cycle (local caches,
steal path, receive reserve) with the lifecycle sanitizer armed: silent
on the healthy paths, and raising on deliberately planted leak and
double-free bugs.
"""

import pytest

from repro.lci import LciConfig, LciRuntime, PacketPool
from repro.mpi.matching import (
    PostedQueue,
    PostedReceive,
    UnexpectedMessage,
    UnexpectedQueue,
)
from repro.mpi.types import ANY_SOURCE, ANY_TAG, MpiRequest
from repro.netapi.nic import Fabric
from repro.sanitize import (
    LciSanitizer,
    SanitizerContext,
    SanitizerError,
    conservation_audit,
)
from repro.sim.engine import Environment
from repro.sim.machine import stampede2


def recv_req(source=ANY_SOURCE, tag=ANY_TAG):
    return MpiRequest("recv", source, tag, 0)


def posted(source, tag):
    return PostedReceive(recv_req(source, tag), source, tag)


def arrived(source, tag, protocol="eager"):
    return UnexpectedMessage(source, tag, 64, b"x", protocol)


# ---------------------------------------------------------------------------
# PostedQueue: wildcard receives matched in FIFO post order
# ---------------------------------------------------------------------------
def test_posted_wildcard_fifo_order():
    q = PostedQueue()
    first = posted(ANY_SOURCE, ANY_TAG)
    second = posted(ANY_SOURCE, ANY_TAG)
    q.post(first)
    q.post(second)
    entry, inspected = q.match_arrival(src=3, tag=9)
    assert entry is first and inspected == 1
    entry, inspected = q.match_arrival(src=0, tag=0)
    assert entry is second and inspected == 1
    assert len(q) == 0


def test_posted_earlier_wildcard_beats_later_specific():
    """MPI matches the *first posted* receive, not the best-fitting one —
    the nondeterminism the wildcard-order sanitizer rule warns about."""
    q = PostedQueue()
    wild = posted(ANY_SOURCE, 7)
    exact = posted(2, 7)
    q.post(wild)
    q.post(exact)
    entry, _ = q.match_arrival(src=2, tag=7)
    assert entry is wild
    entry, _ = q.match_arrival(src=2, tag=7)
    assert entry is exact


def test_posted_specific_source_skips_nonmatching():
    q = PostedQueue()
    q.post(posted(0, 5))
    q.post(posted(1, 5))
    q.post(posted(2, 5))
    entry, inspected = q.match_arrival(src=2, tag=5)
    assert entry.source == 2
    assert inspected == 3       # traversed the whole list to find it
    entry, inspected = q.match_arrival(src=9, tag=9)
    assert entry is None and inspected == 2


def test_posted_any_tag_respects_source():
    q = PostedQueue()
    q.post(posted(0, ANY_TAG))
    entry, _ = q.match_arrival(src=1, tag=3)
    assert entry is None
    entry, _ = q.match_arrival(src=0, tag=3)
    assert entry is not None


def test_posted_cancel_and_items_snapshot():
    q = PostedQueue()
    a, b = posted(0, 1), posted(0, 2)
    q.post(a)
    q.post(b)
    snapshot = q.items
    assert [e.tag for e in snapshot] == [1, 2]
    assert q.cancel(a.req) is True
    assert a.req.cancelled
    assert q.cancel(a.req) is False      # already gone
    # The snapshot is a copy: the cancel did not mutate it.
    assert [e.tag for e in snapshot] == [1, 2]
    assert [e.tag for e in q.items] == [2]


def test_posted_max_length_tracks_high_water():
    q = PostedQueue()
    for i in range(5):
        q.post(posted(0, i))
    q.match_arrival(src=0, tag=0)
    assert len(q) == 4
    assert q.max_length == 5


# ---------------------------------------------------------------------------
# UnexpectedQueue: FIFO arrivals, probe semantics
# ---------------------------------------------------------------------------
def test_unexpected_wildcard_receive_takes_oldest():
    q = UnexpectedQueue()
    q.add(arrived(2, 9))
    q.add(arrived(0, 9))
    q.add(arrived(1, 9))
    msg, inspected = q.match_receive(ANY_SOURCE, 9)
    assert msg.source == 2 and inspected == 1
    msg, _ = q.match_receive(ANY_SOURCE, ANY_TAG)
    assert msg.source == 0


def test_unexpected_fifo_per_source_tag_pair():
    """Two messages with the same (source, tag) must match in send order."""
    q = UnexpectedQueue()
    first = arrived(0, 5)
    second = arrived(0, 5)
    q.add(first)
    q.add(second)
    msg, _ = q.match_receive(0, 5)
    assert msg is first
    msg, _ = q.match_receive(0, 5)
    assert msg is second


def test_unexpected_specific_receive_skips_and_counts():
    q = UnexpectedQueue()
    q.add(arrived(0, 1))
    q.add(arrived(0, 2))
    q.add(arrived(1, 3))
    msg, inspected = q.match_receive(1, 3)
    assert msg.source == 1 and inspected == 3
    msg, inspected = q.match_receive(5, 5)
    assert msg is None and inspected == 2


def test_unexpected_probe_does_not_consume():
    q = UnexpectedQueue()
    q.add(arrived(0, 1))
    msg, _ = q.match_receive(ANY_SOURCE, ANY_TAG, remove=False)
    assert msg is not None
    assert len(q) == 1
    msg, _ = q.match_receive(ANY_SOURCE, ANY_TAG)
    assert msg is not None
    assert len(q) == 0


# ---------------------------------------------------------------------------
# PacketPool: exhaustion -> recycle -> reuse, sanitizer armed throughout
# ---------------------------------------------------------------------------
def make_pool(size, rx_reserve=0, local_cache=None):
    env = Environment()
    kwargs = {}
    if local_cache is not None:
        kwargs["local_cache_packets"] = local_cache
    pool = PacketPool(
        env, stampede2().cpu, size=size, packet_data_bytes=1024,
        rx_reserve=rx_reserve, **kwargs,
    )
    pool.sanitizer = LciSanitizer(SanitizerContext(env=env), host=0)
    return env, pool


def drive(env, gen):
    return env.run_process(env.process(gen))


def test_pool_exhaust_recycle_reuse_cycle_is_clean():
    env, pool = make_pool(size=2)

    def cycle(env):
        out = []
        for _ in range(3):                      # repeat the full cycle
            out.append((yield from pool.alloc()))   # 2 -> 1
            out.append((yield from pool.alloc()))   # 1 -> 0 (exhausted)
            out.append((yield from pool.alloc()))   # fails
            yield from pool.free()                  # recycle
            yield from pool.free()
            out.append((yield from pool.alloc()))   # reuse works again
            yield from pool.free()
        return out

    results = drive(env, cycle(env))
    assert results == [True, True, False, True] * 3
    assert pool.in_use == 0


def test_pool_local_cache_hit_then_steal_path():
    env, pool = make_pool(size=4, local_cache=4)
    t1, t2 = object(), object()

    def cycle(env):
        # t1 drains the shared pool...
        for _ in range(4):
            assert (yield from pool.alloc(t1))
        # ...returns two budgets to its private cache...
        yield from pool.free(t1)
        yield from pool.free(t1)
        assert pool.free_packets == 2
        # ...so t1 re-allocs hit the local cache, no shared-pool traffic.
        assert (yield from pool.alloc(t1))
        # t2 sees an empty shared pool and must steal from t1's cache.
        assert (yield from pool.alloc(t2))
        assert pool.alloc_steals == 1
        # Everything accounted for: 4 in use, none free anywhere.
        assert pool.free_packets == 0
        assert not (yield from pool.alloc(t2))
        for _ in range(4):
            yield from pool.free()

    drive(env, cycle(env))
    assert pool.in_use == 0


def test_pool_send_side_steal_honors_rx_reserve():
    env, pool = make_pool(size=4, rx_reserve=2, local_cache=4)
    t1 = object()

    def cycle(env):
        # Sends may take the pool down to the reserve only.
        assert (yield from pool.alloc(t1))
        assert (yield from pool.alloc(t1))
        assert not (yield from pool.alloc(t1))
        # Free one into t1's private cache: total free is 3, but a
        # send-side steal would cut into the receive reserve... no:
        # 3 > rx_reserve, so exactly one more send steal is legal.
        yield from pool.free(t1)
        assert (yield from pool.alloc(object()))  # steals from t1's cache
        # Now total free == 2 == reserve: send-side allocs fail even
        # though the shared count is at the floor and caches are empty,
        # while receive-side allocs may continue.
        assert not (yield from pool.alloc(object()))
        assert (yield from pool.alloc(for_recv=True))
        assert (yield from pool.alloc(for_recv=True))
        assert not (yield from pool.alloc(for_recv=True))
        for _ in range(4):
            yield from pool.free()

    drive(env, cycle(env))


def test_pool_planted_leak_caught_after_reuse_cycle():
    """No sanitizer armed: the end-of-run audit reads the pool itself."""
    env = Environment()
    world = LciRuntime.create_world(
        env, Fabric(env, 2, stampede2()),
        config=LciConfig(pool_packets_min=3, pool_packets_per_host=1),
    )
    pool = world[0].pool

    def cycle(env):
        # A healthy exhaustion/recycle round first (receive side: a
        # runtime's send side stops at the receive reserve)...
        for _ in range(3):
            assert (yield from pool.alloc(for_recv=True))
        for _ in range(3):
            yield from pool.free()
        # ...then the planted bug: one budget checked out, never freed.
        assert (yield from pool.alloc(for_recv=True))

    drive(env, cycle(env))
    with pytest.raises(SanitizerError) as ei:
        conservation_audit(world, (), env.now)
    assert ei.value.rule == "lci.packet_leak"
    assert ei.value.host == 0
    assert ei.value.details == {"leaked": 1, "pool_size": 3}


def test_pool_planted_double_free_caught():
    env, pool = make_pool(size=2)

    def cycle(env):
        yield from pool.alloc()
        yield from pool.free()
        yield from pool.free()      # planted: the same budget again

    with pytest.raises(SanitizerError) as ei:
        drive(env, cycle(env))
    assert ei.value.rule == "lci.pool_double_free"
    assert ei.value.details == {"free_packets": 2, "pool_size": 2}


def test_pool_free_into_full_local_cache_overflows_to_shared():
    env, pool = make_pool(size=3, local_cache=1)
    t1 = object()

    def cycle(env):
        for _ in range(3):
            assert (yield from pool.alloc(t1))
        yield from pool.free(t1)        # fills the 1-slot cache
        yield from pool.free(t1)        # overflows to the shared pool
        assert pool.free_packets == 2
        assert (yield from pool.alloc())    # shared-pool hit
        yield from pool.free()
        yield from pool.free()

    drive(env, cycle(env))
    assert pool.in_use == 0


def test_pool_wait_available_wakes_on_free():
    env, pool = make_pool(size=1)
    order = []

    def holder(env):
        yield from pool.alloc()
        yield env.timeout(5.0)
        yield from pool.free()
        order.append(("freed", env.now))

    def waiter(env):
        yield env.timeout(1.0)
        ok = yield from pool.alloc()
        assert not ok                   # exhausted: non-blocking fail
        yield pool.wait_available()
        order.append(("woken", env.now))
        assert (yield from pool.alloc())
        yield from pool.free()

    env.process(holder(env))
    env.process(waiter(env))
    env.run()
    assert [tag for tag, _ in order] == ["freed", "woken"]
    assert order[1][1] >= 5.0

