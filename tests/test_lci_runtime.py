"""Tests for the LCI runtime: pool, MPMC queue, Queue interface, server."""

import pytest

from repro.lci import LciConfig, LciRuntime, MpmcQueue, PacketPool
from repro.netapi.nic import Fabric
from repro.sim.engine import Environment
from repro.sim.machine import stampede2


def make_lci(num_hosts=2, config=None):
    env = Environment()
    fabric = Fabric(env, num_hosts, stampede2())
    world = LciRuntime.create_world(env, fabric, config=config)
    return env, world


# ---------------------------------------------------------------------------
# Packet pool
# ---------------------------------------------------------------------------
def test_pool_alloc_until_exhausted_then_fails():
    env = Environment()
    pool = PacketPool(
        env, stampede2().cpu, size=3, packet_data_bytes=1024, rx_reserve=0
    )
    results = []

    def proc(env):
        for _ in range(5):
            ok = yield from pool.alloc()
            results.append(ok)

    env.process(proc(env))
    env.run()
    assert results == [True, True, True, False, False]
    assert pool.in_use == 3


def test_pool_rx_reserve_protects_receive_path():
    """Send allocs stop above zero; receive allocs may drain the rest."""
    env = Environment()
    pool = PacketPool(
        env, stampede2().cpu, size=4, packet_data_bytes=1024, rx_reserve=2
    )
    results = []

    def proc(env):
        results.append((yield from pool.alloc()))          # send: 4 -> 3
        results.append((yield from pool.alloc()))          # send: 3 -> 2
        results.append((yield from pool.alloc()))          # send: blocked
        results.append((yield from pool.alloc(for_recv=True)))  # rx: 2 -> 1
        results.append((yield from pool.alloc(for_recv=True)))  # rx: 1 -> 0
        results.append((yield from pool.alloc(for_recv=True)))  # rx: empty

    env.process(proc(env))
    env.run()
    assert results == [True, True, False, True, True, False]


def test_pool_rx_reserve_clamped_below_size():
    env = Environment()
    pool = PacketPool(
        env, stampede2().cpu, size=2, packet_data_bytes=64, rx_reserve=10
    )
    assert pool.rx_reserve == 1


def test_pool_free_recycles():
    env = Environment()
    pool = PacketPool(env, stampede2().cpu, size=1, packet_data_bytes=1024)
    results = []

    def proc(env):
        results.append((yield from pool.alloc()))
        results.append((yield from pool.alloc()))
        yield from pool.free()
        results.append((yield from pool.alloc()))

    env.process(proc(env))
    env.run()
    assert results == [True, False, True]


def test_pool_local_cache_is_cheaper():
    env = Environment()
    cpu = stampede2().cpu
    pool = PacketPool(
        env, cpu, size=16, packet_data_bytes=1024,
        local_cache_packets=4, local_hit_cost_factor=0.25,
    )
    times = {}

    def proc(env):
        # Prime thread T's local cache with one freed packet.
        yield from pool.alloc("T")
        yield from pool.free("T")
        t0 = env.now
        yield from pool.alloc("T")  # local hit
        times["local"] = env.now - t0
        t0 = env.now
        yield from pool.alloc("U")  # global hit
        times["global"] = env.now - t0

    env.process(proc(env))
    env.run()
    assert times["local"] < times["global"]
    assert pool.alloc_local_hits == 1


def test_pool_memory_is_fixed():
    env = Environment()
    pool = PacketPool(env, stampede2().cpu, size=128, packet_data_bytes=8192)
    assert pool.bytes_allocated() == 128 * 8192


def test_pool_wait_available_wakes_on_free():
    env = Environment()
    pool = PacketPool(env, stampede2().cpu, size=1, packet_data_bytes=1024)
    woke_at = []

    def hog(env):
        yield from pool.alloc()
        yield env.timeout(5.0)
        yield from pool.free()

    def waiter(env):
        yield env.timeout(0.1)  # let the hog take the packet
        yield pool.wait_available()
        woke_at.append(env.now)

    env.process(hog(env))
    env.process(waiter(env))
    env.run()
    assert woke_at and woke_at[0] >= 5.0


# ---------------------------------------------------------------------------
# MPMC queue
# ---------------------------------------------------------------------------
def test_mpmc_fifo_first_packet_order():
    env = Environment()
    q = MpmcQueue(env, stampede2().cpu)
    out = []

    def proc(env):
        for i in range(4):
            yield from q.enqueue(i)
        while True:
            item = yield from q.dequeue()
            if item is None:
                break
            out.append(item)

    env.process(proc(env))
    env.run()
    assert out == [0, 1, 2, 3]


def test_mpmc_empty_dequeue_returns_none_and_counts():
    env = Environment()
    q = MpmcQueue(env, stampede2().cpu)
    res = []

    def proc(env):
        res.append((yield from q.dequeue()))

    env.process(proc(env))
    env.run()
    assert res == [None]
    assert q.empty_dequeues == 1


def test_mpmc_operations_cost_atomics():
    env = Environment()
    cpu = stampede2().cpu
    q = MpmcQueue(env, cpu)

    def proc(env):
        yield from q.enqueue("x")
        yield from q.dequeue()

    env.process(proc(env))
    env.run()
    assert env.now == pytest.approx(2 * cpu.atomic_op)


# ---------------------------------------------------------------------------
# Queue interface end-to-end
# ---------------------------------------------------------------------------
def test_eager_send_recv_roundtrip():
    env, world = make_lci()
    result = {}

    def sender(env):
        rt = world[0]
        req = yield from rt.send_blocking(1, tag=3, size=256, payload=b"q" * 256)
        result["send_done"] = req.done

    def receiver(env):
        rt = world[1]
        req = yield from rt.recv_blocking()
        result["payload"] = req.payload
        result["peer"] = req.peer
        result["tag"] = req.tag
        result["size"] = req.size

    env.process(sender(env))
    env.process(receiver(env))
    env.run()
    assert result["send_done"]
    assert result["payload"] == b"q" * 256
    assert (result["peer"], result["tag"], result["size"]) == (0, 3, 256)


def test_rendezvous_roundtrip():
    env, world = make_lci()
    cfg = world[0].config
    big = cfg.packet_data_bytes * 8
    result = {}

    def sender(env):
        rt = world[0]
        req = yield from rt.send_blocking(1, tag=1, size=big, payload="HUGE")
        result["send_done_at"] = env.now

    def receiver(env):
        rt = world[1]
        req = yield from rt.recv_blocking()
        result["payload"] = req.payload
        result["size"] = req.size

    env.process(sender(env))
    env.process(receiver(env))
    env.run()
    assert result["payload"] == "HUGE"
    assert result["size"] == big
    assert world[0].rts_sends == 1
    assert world[1].rtr_sends == 1
    assert world[0].rdma_puts == 1


def test_first_packet_policy_delivers_arrival_order():
    """Messages from different senders dequeue in arrival order, not rank."""
    env, world = make_lci(num_hosts=3)
    got = []

    def sender(env, rank, delay):
        rt = world[rank]
        yield env.timeout(delay)
        yield from rt.send_blocking(2, tag=0, size=64, payload=rank)

    def receiver(env):
        rt = world[2]
        for _ in range(2):
            req = yield from rt.recv_blocking()
            got.append(req.payload)

    # Rank 1 sends first despite being higher-numbered.
    env.process(sender(env, 0, delay=1e-3))
    env.process(sender(env, 1, delay=0.0))
    env.process(receiver(env))
    env.run()
    assert got == [1, 0]


def test_send_enq_fails_when_pool_empty_nonfatal():
    cfg = LciConfig(pool_packets_min=4, pool_packets_per_host=1)
    env, world = make_lci(config=cfg)
    outcomes = []

    def sender(env):
        rt = world[0]
        # Rendezvous sends hold their packet until the (never-sent) RTR;
        # with a 4-packet pool and the 2-packet receive reserve, two of
        # them exhaust the send-side budget.
        big = rt.config.packet_data_bytes + 1
        for i in range(3):
            req = yield from rt.send_enq(1, tag=0, size=big, payload=i)
            outcomes.append(req is not None)

    env.process(sender(env))
    env.run(until=0.01)
    assert outcomes == [True, True, False]
    assert world[0].pool.alloc_failures == 1


def test_recv_deq_returns_none_when_no_message():
    env, world = make_lci()
    res = []

    def receiver(env):
        req = yield from world[1].recv_deq()
        res.append(req)

    env.process(receiver(env))
    env.run()
    assert res == [None]


def test_status_flag_check_is_free():
    """Reading req.done must not advance simulated time."""
    env, world = make_lci()
    deltas = []

    def sender(env):
        rt = world[0]
        req = yield from rt.send_enq(1, tag=0, size=64, payload="x")
        t0 = env.now
        for _ in range(1000):
            _ = req.done
        deltas.append(env.now - t0)

    env.process(sender(env))
    env.run()
    assert deltas == [0.0]


def test_pool_budget_returns_after_full_protocol():
    env, world = make_lci()
    big = world[0].config.packet_data_bytes * 2

    def sender(env):
        yield from world[0].send_blocking(1, tag=0, size=big, payload="a")
        yield from world[0].send_blocking(1, tag=0, size=128, payload="b")

    def receiver(env):
        yield from world[1].recv_blocking()
        yield from world[1].recv_blocking()

    env.process(sender(env))
    env.process(receiver(env))
    env.run()
    for rt in world:
        assert rt.pool.in_use == 0, f"leaked packets on rank {rt.rank}"


def test_server_backpressure_when_pool_dry():
    """Receiver pool exhaustion stalls the server instead of crashing."""
    cfg = LciConfig(pool_packets_min=2, pool_packets_per_host=1)
    env, world = make_lci(config=cfg)
    received = []

    def sender(env):
        rt = world[0]
        for i in range(6):
            yield from rt.send_blocking(1, tag=0, size=64, payload=i)

    def lazy_receiver(env):
        rt = world[1]
        yield env.timeout(0.01)  # let arrivals pile up against the pool
        for _ in range(6):
            req = yield from rt.recv_blocking()
            received.append(req.payload)

    env.process(sender(env))
    env.process(lazy_receiver(env))
    env.run()
    assert received == list(range(6))
    assert world[1].server_pool_stalls > 0


def test_stop_server():
    env, world = make_lci()

    def stopper(env):
        yield env.timeout(1.0)
        for rt in world:
            rt.stop_server()

    env.process(stopper(env))
    env.run()
    for rt in world:
        assert not rt._server_proc.is_alive
