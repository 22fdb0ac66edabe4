"""Tests for the simulated NIC and fabric (repro.netapi.nic)."""

import pytest

from repro.netapi.nic import Fabric, RegisteredBuffer
from repro.netapi.packet import (
    CONTROL_PACKET_BYTES,
    PACKET_HEADER_BYTES,
    Packet,
    PacketType,
)
from repro.sim.engine import Environment, SimulationError
from repro.sim.machine import stampede2


@pytest.fixture
def fab(env):
    return Fabric(env, 2, stampede2())


def make_pkt(src=0, dst=1, size=100, ptype=PacketType.EGR, **meta):
    pkt = Packet(ptype, src, dst, tag=0, size=size)
    pkt.meta.update(meta)
    return pkt


def test_wire_bytes_accounting():
    assert make_pkt(size=100).wire_bytes == 100 + PACKET_HEADER_BYTES
    assert make_pkt(size=100, ptype=PacketType.RTS).wire_bytes == CONTROL_PACKET_BYTES
    assert make_pkt(size=100, ptype=PacketType.RTR).wire_bytes == CONTROL_PACKET_BYTES


def test_delivery_latency(env, fab):
    nic0, nic1 = fab.nic(0), fab.nic(1)
    pkt = make_pkt(size=0)
    assert nic0.try_inject(pkt)
    env.run()
    assert nic1.poll() is pkt
    model = stampede2().nic
    expected = model.serialization_time(pkt.wire_bytes) + model.latency
    assert env.now == pytest.approx(expected)


def test_serialization_time_scales_with_size(env, fab):
    nic0, nic1 = fab.nic(0), fab.nic(1)
    sizes = (1000, 1_000_000)
    arrivals = []
    for size in sizes:
        e = Environment()
        f = Fabric(e, 2, stampede2())
        f.nic(0).try_inject(make_pkt(size=size))
        e.run()
        arrivals.append(e.now)
    assert arrivals[1] > arrivals[0]
    bw = stampede2().nic.bandwidth
    assert arrivals[1] - arrivals[0] == pytest.approx(
        (sizes[1] - sizes[0]) / bw
    )


def test_per_pair_fifo_ordering(env, fab):
    """Packets between one pair arrive in injection order (RC semantics)."""
    nic0, nic1 = fab.nic(0), fab.nic(1)
    pkts = [make_pkt(size=100 * (5 - i)) for i in range(5)]
    for p in pkts:
        assert nic0.try_inject(p)
    env.run()
    got = []
    while True:
        p = nic1.poll()
        if p is None:
            break
        got.append(p)
    assert got == pkts


def test_injection_rate_cap(env):
    """Minimum gap between message injections bounds the rate."""
    machine = stampede2()
    fab = Fabric(env, 2, machine)
    nic0 = fab.nic(0)
    n = 50
    for _ in range(n):
        assert nic0.try_inject(make_pkt(size=0))
    env.run()
    gap = machine.nic.injection_gap
    # n messages cannot all arrive before (n-1) injection gaps elapse.
    assert env.now >= (n - 1) * gap


def test_tx_queue_depth_enforced(env):
    from dataclasses import replace

    machine = stampede2()
    machine = replace(machine, nic=replace(machine.nic, tx_queue_depth=4))
    fab = Fabric(env, 2, machine)
    nic0 = fab.nic(0)
    ok = [nic0.try_inject(make_pkt(size=10_000_000)) for _ in range(6)]
    assert ok == [True] * 4 + [False] * 2
    assert nic0.tx_queue_full == 2
    env.run()
    # Once drained, injection works again.
    assert nic0.try_inject(make_pkt(size=0))


def test_local_complete_at_departure(env, fab):
    nic0 = fab.nic(0)
    times = []
    pkt = make_pkt(size=1000)
    nic0.try_inject(pkt, on_local_complete=lambda: times.append(env.now))
    env.run()
    ser = stampede2().nic.serialization_time(pkt.wire_bytes)
    assert times == [pytest.approx(ser)]


def test_silent_departure_needs_no_calendar_entry(env, fab):
    """A departure that only gives the transmit slot back is accounted
    for when the slot count is read, not by an entry of its own."""
    nic0 = fab.nic(0)
    pkt = make_pkt(size=1000)
    ser = stampede2().nic.serialization_time(pkt.wire_bytes)
    seq0 = env._seq
    assert nic0.try_inject(pkt)
    assert env._seq - seq0 == 1  # the arrival, nothing for the departure
    assert nic0.tx_outstanding == 1
    env.run(until=ser / 2)
    assert nic0.tx_outstanding == 1
    env.run(until=ser)  # entries due at `until` fire: so has this
    assert nic0.tx_outstanding == 0
    # One with something to do at departure keeps its entry.
    seq0 = env._seq
    assert nic0.try_inject(make_pkt(size=1000), on_local_complete=lambda: None)
    assert env._seq - seq0 == 2


def test_silent_departure_ties_break_like_a_calendar_entry(env):
    """At the very instant of a departure, an entry scheduled before the
    injection still finds the slot taken, one scheduled after finds it
    free — the order a queue entry for the departure would impose."""
    from dataclasses import replace

    machine = stampede2()
    machine = replace(machine, nic=replace(machine.nic, tx_queue_depth=1))
    nic0 = Fabric(env, 2, machine).nic(0)
    first = make_pkt(size=1000)
    departs = machine.nic.serialization_time(first.wire_bytes)
    seen = []

    def retry(label):
        seen.append((label, env.now == departs, nic0.tx_outstanding,
                     nic0.try_inject(make_pkt(size=1000))))

    env.call_later(departs, lambda: retry("scheduled before"))
    assert nic0.try_inject(first)
    assert not nic0.try_inject(make_pkt(size=1000))  # depth 1: full
    env.call_later(departs, lambda: retry("scheduled after"))
    env.run()
    assert seen == [("scheduled before", True, 1, False),
                    ("scheduled after", True, 0, True)]
    assert nic0.tx_queue_full == 2


def test_wrong_source_rejected(env, fab):
    with pytest.raises(SimulationError, match="injected from host"):
        fab.nic(0).try_inject(make_pkt(src=1, dst=0))


def test_wait_arrival_immediate_when_pending(env, fab):
    nic0, nic1 = fab.nic(0), fab.nic(1)
    nic0.try_inject(make_pkt())
    env.run()
    ev = nic1.wait_arrival()
    assert ev.triggered


def test_wait_arrival_fires_on_delivery(env, fab):
    nic0, nic1 = fab.nic(0), fab.nic(1)
    times = []

    def waiter(env):
        yield nic1.wait_arrival()
        times.append(env.now)

    env.process(waiter(env))
    nic0.try_inject(make_pkt())
    env.run()
    assert len(times) == 1 and times[0] > 0


# ---------------------------------------------------------------------------
# RDMA
# ---------------------------------------------------------------------------
def test_rdma_write_lands_in_registered_buffer(env, fab):
    nic0, nic1 = fab.nic(0), fab.nic(1)
    buf = nic1.register(4096, label="sink")
    pkt = make_pkt(size=256, ptype=PacketType.RDMA, rkey=buf.rkey, offset=128)
    pkt.payload = {"data": 42}
    nic0.try_inject(pkt, notify_target=False)
    env.run()
    assert buf.contents[128] == {"data": 42}
    assert buf.bytes_written == 256
    # Silent at the target CPU: nothing to poll.
    assert nic1.poll() is None


def test_rdma_with_target_notify(env, fab):
    nic0, nic1 = fab.nic(0), fab.nic(1)
    buf = nic1.register(4096)
    pkt = make_pkt(size=64, ptype=PacketType.RDMA, rkey=buf.rkey)
    nic0.try_inject(pkt, notify_target=True)
    env.run()
    assert nic1.poll() is pkt


def test_rdma_local_complete_after_ack(env, fab):
    """Put completion needs the ACK: one extra latency vs plain send."""
    nic0, nic1 = fab.nic(0), fab.nic(1)
    buf = nic1.register(4096)
    done = []
    pkt = make_pkt(size=0, ptype=PacketType.RDMA, rkey=buf.rkey)
    nic0.try_inject(
        pkt, notify_target=False, on_local_complete=lambda: done.append(env.now)
    )
    env.run()
    model = stampede2().nic
    one_way = (
        model.serialization_time(pkt.wire_bytes)
        + model.latency + model.rdma_extra_latency
    )
    assert done[0] == pytest.approx(one_way + model.latency)


def test_rdma_unknown_rkey_fails(env, fab):
    pkt = make_pkt(size=64, ptype=PacketType.RDMA, rkey=999999)
    fab.nic(0).try_inject(pkt, notify_target=False)
    with pytest.raises(SimulationError, match="unknown rkey"):
        env.run()


def test_rdma_out_of_bounds_rejected(env, fab):
    buf = fab.nic(1).register(128)
    pkt = make_pkt(size=256, ptype=PacketType.RDMA, rkey=buf.rkey)
    fab.nic(0).try_inject(pkt, notify_target=False)
    with pytest.raises(SimulationError, match="out of bounds"):
        env.run()


def test_rdma_to_revoked_buffer_fails(env, fab):
    nic1 = fab.nic(1)
    buf = nic1.register(4096)
    rkey = buf.rkey
    nic1.deregister(buf)
    pkt = make_pkt(size=64, ptype=PacketType.RDMA, rkey=rkey)
    fab.nic(0).try_inject(pkt, notify_target=False)
    with pytest.raises(SimulationError, match="unknown rkey"):
        env.run()


def test_registered_buffer_clear():
    buf = RegisteredBuffer(0, 1024)
    buf.write(0, "a", 100)
    buf.write(100, "b", 100)
    assert buf.bytes_written == 200
    buf.clear()
    assert buf.contents == {} and buf.bytes_written == 0


# ---------------------------------------------------------------------------
# Fabric
# ---------------------------------------------------------------------------
def test_fabric_validates_host_ids(env, fab):
    with pytest.raises(SimulationError, match="no such host"):
        fab.nic(7)


def test_fabric_requires_hosts(env):
    with pytest.raises(SimulationError):
        Fabric(env, 0, stampede2())


def test_fabric_total_counters(env, fab):
    fab.nic(0).try_inject(make_pkt())
    fab.nic(1).try_inject(make_pkt(src=1, dst=0))
    env.run()
    assert fab.total("pkts_sent") == 2
    assert fab.total("pkts_received") == 2


def test_misdelivered_packet_rejected(env, fab):
    with pytest.raises(SimulationError, match="delivered to host"):
        fab.nic(0).deliver(make_pkt(src=1, dst=1))


def test_fabric_total_rejects_a_misspelt_counter(fab):
    # It must not read as zero: a conservation check built on it would
    # pass vacuously.
    with pytest.raises(AttributeError, match="pkts_sen"):
        fab.total("pkts_sen")
