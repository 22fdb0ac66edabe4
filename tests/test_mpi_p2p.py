"""Tests for the simulated MPI two-sided layer."""

import pytest

from repro.mpi import (
    ANY_SOURCE,
    ANY_TAG,
    MPIResourceExhausted,
    MpiWorld,
    ThreadMode,
    intel_mpi,
    mvapich2,
    openmpi,
)
from repro.netapi.nic import Fabric
from repro.sim.engine import Environment
from repro.sim.machine import stampede2


def make_world(num_hosts=2, config=None, thread_mode=ThreadMode.FUNNELED):
    env = Environment()
    fabric = Fabric(env, num_hosts, stampede2())
    world = MpiWorld(env, fabric, config or intel_mpi(), thread_mode)
    return env, world


def test_eager_send_recv_roundtrip():
    env, world = make_world()
    result = {}

    def sender(env):
        ep = world.endpoint(0)
        req = yield from ep.isend(1, tag=7, size=128, payload=b"x" * 128)
        yield from ep.wait(req)

    def receiver(env):
        ep = world.endpoint(1)
        payload, status = yield from ep.recv(source=0, tag=7)
        result["payload"] = payload
        result["status"] = status

    env.process(sender(env))
    p = env.process(receiver(env))
    env.run()
    assert p.ok
    assert result["payload"] == b"x" * 128
    assert result["status"].source == 0
    assert result["status"].tag == 7
    assert result["status"].count == 128
    assert env.now > 0  # time actually passed


def test_rendezvous_large_message():
    env, world = make_world()
    cfg = world.config
    big = cfg.eager_limit * 4
    result = {}

    def sender(env):
        ep = world.endpoint(0)
        req = yield from ep.isend(1, tag=1, size=big, payload="BIGDATA")
        yield from ep.wait(req)
        result["send_done_at"] = env.now

    def receiver(env):
        ep = world.endpoint(1)
        payload, status = yield from ep.recv(source=0, tag=1)
        result["payload"] = payload
        result["count"] = status.count

    env.process(sender(env))
    env.process(receiver(env))
    env.run()
    assert result["payload"] == "BIGDATA"
    assert result["count"] == big
    ep0 = world.endpoint(0)
    assert ep0.rndv_sends == 1
    assert ep0.eager_sends == 0


def test_message_ordering_same_source_tag():
    """MPI guarantees FIFO matching per (source, tag)."""
    env, world = make_world()
    got = []

    def sender(env):
        ep = world.endpoint(0)
        for i in range(10):
            yield from ep.isend(1, tag=5, size=64, payload=i)

    def receiver(env):
        ep = world.endpoint(1)
        for _ in range(10):
            payload, _ = yield from ep.recv(source=0, tag=5)
            got.append(payload)

    env.process(sender(env))
    env.process(receiver(env))
    env.run()
    assert got == list(range(10))


def test_wildcard_receive_any_source():
    env, world = make_world(num_hosts=3)
    got = []

    def sender(env, rank):
        ep = world.endpoint(rank)
        yield env.timeout(rank * 1e-6)  # stagger
        yield from ep.isend(2, tag=9, size=32, payload=rank)

    def receiver(env):
        ep = world.endpoint(2)
        for _ in range(2):
            payload, status = yield from ep.recv(source=ANY_SOURCE, tag=9)
            got.append((payload, status.source))

    env.process(sender(env, 0))
    env.process(sender(env, 1))
    env.process(receiver(env))
    env.run()
    assert sorted(got) == [(0, 0), (1, 1)]


def test_wildcard_tag():
    env, world = make_world()
    got = []

    def sender(env):
        ep = world.endpoint(0)
        yield from ep.isend(1, tag=3, size=16, payload="a")
        yield from ep.isend(1, tag=8, size=16, payload="b")

    def receiver(env):
        ep = world.endpoint(1)
        for _ in range(2):
            payload, status = yield from ep.recv(source=0, tag=ANY_TAG)
            got.append((payload, status.tag))

    env.process(sender(env))
    env.process(receiver(env))
    env.run()
    assert got == [("a", 3), ("b", 8)]


def test_iprobe_reports_without_consuming():
    env, world = make_world()
    result = {}

    def sender(env):
        ep = world.endpoint(0)
        yield from ep.isend(1, tag=4, size=100, payload="probe-me")

    def receiver(env):
        ep = world.endpoint(1)
        status = None
        while status is None:
            status = yield from ep.iprobe(source=ANY_SOURCE, tag=ANY_TAG)
            if status is None:
                yield env.timeout(1e-7)
        result["probed"] = (status.source, status.tag, status.count)
        # Message still there: a matching recv completes immediately.
        payload, _ = yield from ep.recv(source=status.source, tag=status.tag)
        result["payload"] = payload

    env.process(sender(env))
    env.process(receiver(env))
    env.run()
    assert result["probed"] == (0, 4, 100)
    assert result["payload"] == "probe-me"


def test_iprobe_none_when_empty():
    env, world = make_world()
    result = {}

    def prober(env):
        ep = world.endpoint(1)
        result["status"] = yield from ep.iprobe()

    env.process(prober(env))
    env.run()
    assert result["status"] is None


def test_posted_receive_matches_later_arrival():
    env, world = make_world()
    result = {}

    def receiver(env):
        ep = world.endpoint(1)
        req = yield from ep.irecv(source=0, tag=2)
        assert not req.done
        yield from ep.wait(req)
        result["payload"] = req.payload

    def sender(env):
        ep = world.endpoint(0)
        yield env.timeout(5e-6)
        yield from ep.isend(1, tag=2, size=64, payload="late")

    env.process(receiver(env))
    env.process(sender(env))
    env.run()
    assert result["payload"] == "late"


def test_test_returns_false_then_true():
    env, world = make_world()
    observations = []

    def receiver(env):
        ep = world.endpoint(1)
        req = yield from ep.irecv(source=0, tag=1)
        done = yield from ep.test(req)
        observations.append(done)
        yield from ep.wait(req)
        observations.append(req.done)

    def sender(env):
        ep = world.endpoint(0)
        yield env.timeout(1e-5)
        yield from ep.isend(1, tag=1, size=32, payload="z")

    env.process(receiver(env))
    env.process(sender(env))
    env.run()
    assert observations == [False, True]


def test_eager_credit_exhaustion_aborts_intelmpi():
    cfg = intel_mpi().with_(eager_credits_per_peer=4, crash_on_exhaustion=True)
    env, world = make_world(config=cfg)

    def flooder(env):
        ep = world.endpoint(0)
        # Receiver never posts receives: credits never come home.
        for i in range(10):
            yield from ep.isend(1, tag=1, size=64, payload=i)

    p = env.process(flooder(env))
    with pytest.raises(MPIResourceExhausted):
        env.run()
    assert world.endpoint(0).eager_exhaustion_aborts == 1


def test_eager_credit_exhaustion_stalls_openmpi():
    cfg = openmpi().with_(eager_credits_per_peer=4)
    env, world = make_world(config=cfg)
    done = {}

    def flooder(env):
        ep = world.endpoint(0)
        for i in range(10):
            yield from ep.isend(1, tag=1, size=64, payload=i)
        done["sent_all_at"] = env.now

    def slow_receiver(env):
        ep = world.endpoint(1)
        yield env.timeout(1e-3)  # long delay before consuming
        for _ in range(10):
            yield from ep.recv(source=0, tag=1)

    env.process(flooder(env))
    env.process(slow_receiver(env))
    env.run()
    # Sender stalled until the receiver drained: completion after the delay.
    assert done["sent_all_at"] > 1e-3
    assert world.endpoint(0).eager_stalls > 0


def test_thread_multiple_lock_contention_counted():
    env, world = make_world(thread_mode=ThreadMode.MULTIPLE)
    ep = world.endpoint(0)

    def caller(env, i):
        yield from ep.isend(1, tag=1, size=16, payload=i)

    for i in range(4):
        env.process(caller(env, i))

    def receiver(env):
        rep = world.endpoint(1)
        for _ in range(4):
            yield from rep.recv(source=0, tag=1)

    env.process(receiver(env))
    env.run()
    assert ep._lock.acquisitions >= 4


def test_funneled_mode_rejects_second_thread():
    from repro.mpi.exceptions import MPIUsageError

    env, world = make_world(thread_mode=ThreadMode.FUNNELED)
    ep = world.endpoint(0)

    def thread_a(env):
        yield from ep.isend(1, tag=1, size=16, payload="a", thread="A")

    def thread_b(env):
        yield env.timeout(1e-6)
        yield from ep.isend(1, tag=1, size=16, payload="b", thread="B")

    env.process(thread_a(env))
    env.process(thread_b(env))
    with pytest.raises(MPIUsageError, match="FUNNELED"):
        env.run()


def test_barrier_synchronizes_all_ranks():
    env, world = make_world(num_hosts=8)
    arrive = {}
    leave = {}

    def worker(env, rank):
        yield env.timeout(rank * 1e-5)  # staggered arrival
        arrive[rank] = env.now
        yield from world.barrier(rank)
        leave[rank] = env.now

    for r in range(8):
        env.process(worker(env, r))
    env.run()
    # Nobody leaves before the last arrival.
    assert min(leave.values()) >= max(arrive.values())


def test_barrier_single_host_trivial():
    env, world = make_world(num_hosts=1)

    def worker(env):
        yield from world.barrier(0)
        return "ok"

    p = env.process(worker(env))
    assert env.run_process(p) == "ok"


def test_mpi_presets_distinct():
    names = {c.name for c in (intel_mpi(), mvapich2(), openmpi())}
    assert names == {"intelmpi", "mvapich2", "openmpi"}
    assert mvapich2().match_cost_per_element < openmpi().match_cost_per_element


def test_latency_scales_with_unmatched_queue_depth():
    """Matching cost grows with posted-queue length — the MPI pathology."""

    send_at = 1e-3  # long after all receives are posted in both runs

    def run_with_preposted(n_preposted):
        env, world = make_world()
        result = {}

        def receiver(env):
            ep = world.endpoint(1)
            # Pre-post receives that never match (wrong tag), lengthening
            # the posted queue the arrival must traverse.
            for _ in range(n_preposted):
                yield from ep.irecv(source=0, tag=999)
            req = yield from ep.irecv(source=0, tag=5)
            yield from ep.wait(req)
            result["done_at"] = env.now

        def sender(env):
            ep = world.endpoint(0)
            yield env.timeout(send_at)
            yield from ep.isend(1, tag=5, size=64, payload="hi")

        env.process(receiver(env))
        env.process(sender(env))
        env.run(until=2e-3)
        return result["done_at"] - send_at

    slow = run_with_preposted(500)
    fast = run_with_preposted(0)
    assert slow > fast
    # Traversal of ~500 extra entries should cost microseconds, not noise.
    assert slow - fast > 500 * 0.5 * intel_mpi().match_cost_per_element
