"""Layer probes (source C): each layer driven alone, no engine above it.

The profiled run lumps kernel dispatch and all unbracketed library code
into ``sim.engine.run`` self time.  These probes split that lump: each
drives one layer through its public entry points with a fixed amount of
work and reports host throughput (median of a few repeats), so a
change to one layer shows in its probe and nowhere else.  Work sizes
are constants — the probes take no seed and generate no graph except
the single-host PageRank one.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from repro.bench import micro
from repro.bench.scenarios import Scenario, build_engine
from repro.comm import make_layers
from repro.comm.serialization import pack_updates, unpack_updates
from repro.netapi.nic import Fabric
from repro.netapi.packet import Packet, PacketType
from repro.sim.engine import Environment, Interrupt
from repro.sim.machine import stampede2

REPEATS = 3
US = 1e-6


def _rate(fn) -> float:
    """Median over REPEATS of work-units per host second; ``fn`` returns
    the number of units it did."""
    rates = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        units = fn()
        rates.append(units / (time.perf_counter() - t0))
    return statistics.median(rates)


# -- sim ----------------------------------------------------------------
def sim_events(procs: int = 64, steps: int = 1500) -> int:
    """Bare kernel: processes yielding timeouts, plus raw callbacks."""
    env = Environment()
    fired = [0]

    def tick():
        fired[0] += 1

    def proc(i):
        delay = (1 + i % 7) * US
        for step in range(steps):
            yield delay
            if step % 4 == 0:
                env.call_later(delay / 2, tick)

    for i in range(procs):
        env.process(proc(i))
    env.run()
    return procs * steps + fired[0]


def sim_cancel_events(timers: int = 60_000) -> int:
    """Timers armed and then defused, the way LCI's reliability layer
    uses them: the ack arrives first, so the expiry callback finds its
    entry gone; every 16th sleeper is interrupted out of a fast timeout,
    leaving a stale calendar entry to drain."""
    env = Environment()
    unacked = {}
    expired = [0]

    def arm(seq):
        def on_expiry():
            if seq in unacked:
                expired[0] += 1
        unacked[seq] = True
        env.schedule_callback(50 * US, on_expiry)

    def sleeper():
        try:
            yield 1.0
        except Interrupt:
            pass

    def driver():
        for seq in range(timers):
            arm(seq)
            if seq % 16 == 0:
                victim = env.process(sleeper())
                yield 1 * US
                victim.interrupt()
            yield 1 * US
            del unacked[seq]  # the ack: defuses the timer just armed

    env.process(driver())
    env.run()
    if expired[0]:
        raise AssertionError("a defused timer fired")
    return timers


# -- netapi ---------------------------------------------------------------
def netapi_packets(hosts: int = 16, per_peer: int = 80) -> int:
    """Fabric + NICs only: inject, deliver, poll — no library on top.
    Every host sends ``per_peer`` packets to every other host."""
    env = Environment()
    fabric = Fabric(env, hosts, stampede2())
    per_host = per_peer * (hosts - 1)
    received = [0]

    def sender(h):
        nic = fabric.nic(h)
        backoff = 4 * nic.model.injection_gap
        for i in range(per_host):
            dst = (h + 1 + i % (hosts - 1)) % hosts
            pkt = Packet.alloc(PacketType.EGR, h, dst, tag=0, size=256)
            while not nic.try_inject(pkt):
                yield backoff
            yield nic.model.injection_gap

    def receiver(h):
        nic = fabric.nic(h)
        got = 0
        while got < per_host:
            yield nic.wait_arrival()
            pkt = nic.poll()
            while pkt is not None:
                got += 1
                pkt.recycle()
                pkt = nic.poll()
        received[0] += got

    for h in range(hosts):
        env.process(sender(h))
        env.process(receiver(h))
    env.run()
    return received[0]


# -- lci / mpi (Fig. 1 interfaces) ---------------------------------------
def library_messages(interface: str, threads: int = 8, window: int = 256):
    micro.message_rate(interface, threads, window=window)
    return threads * window


def sim_latency_gain() -> float:
    """Simulated pingpong latency, probe / queue (exact; Fig. 1's axis)."""
    return (micro.pingpong_latency("probe", 64)
            / micro.pingpong_latency("queue", 64))


# -- comm -------------------------------------------------------------------
class _Pair:
    """Sync-pair stand-in: the layers only ever ask for its length."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n


def comm_blobs(layer_name: str, hosts: int = 16, rounds: int = 12,
               words: int = 64) -> int:
    """All-to-all exchange through one comm layer: no engine, no graph."""
    env = Environment()
    machine = stampede2()
    fabric = Fabric(env, hosts, machine)
    layers = make_layers(layer_name, env, fabric, machine)
    pairs = {(a, b): _Pair(4 * words)
             for a in range(hosts) for b in range(hosts) if a != b}
    positions = np.arange(words)
    collected = [0]

    def host(h):
        layer = layers[h]
        peers = [p for p in range(hosts) if p != h]
        yield from layer.setup(reduce_pairs=pairs, bcast_pairs=None,
                               field_bytes=8, patterns=("reduce",))
        for rnd in range(rounds):
            phase = (rnd, "reduce")
            yield from layer.phase_begin(phase, peers, peers)
            for dst in peers:
                blob = pack_updates(
                    positions, np.full(words, h, dtype=np.int64),
                    4 * words, 8, phase=phase,
                )
                yield from layer.send(dst, blob)
            yield from layer.flush(phase)
            for _src, blob in (yield from layer.collect(phase, peers)):
                layer.consume(blob)
                collected[0] += 1
            yield from layer.phase_end(phase)
        layer.shutdown()

    procs = [env.process(host(h)) for h in range(hosts)]
    env.run(max_events=20_000_000)
    if not all(p.triggered and p.ok for p in procs):
        raise AssertionError(f"{layer_name} all-to-all did not complete")
    return collected[0]


def pack_megabytes(blobs: int = 40_000, words: int = 2048) -> float:
    positions = np.arange(words)
    values = np.arange(words, dtype=np.int64)
    moved = 0
    for _ in range(blobs):
        blob = pack_updates(positions, values, 2 * words, 8)
        pos, vals = unpack_updates(blob)
        moved += pos.nbytes + vals.nbytes
    return moved / 2**20


# -- apps -----------------------------------------------------------------
def app_edge_rate(scale: int = 15, rounds: int = 40) -> float:
    """Single-host PageRank: the app kernels with zero communication
    (graph generation and partitioning happen outside the clock)."""
    sc = Scenario(app="pagerank", graph="rmat", scale=scale, hosts=1,
                  layer="lci", pagerank_rounds=rounds)
    rates = []
    for _ in range(REPEATS):
        eng = build_engine(sc)
        t0 = time.perf_counter()
        m = eng.run()
        rates.append(eng.graph.num_edges * m.rounds
                     / (time.perf_counter() - t0))
    return statistics.median(rates)


def run_probes(quick: bool = False) -> dict:
    """Every (C) metric, by its BENCHMARK.json name."""
    k = 8 if quick else 1  # quick: an eighth of the work, smoke only
    out = {
        "sim.probe_events_per_s": _rate(
            lambda: sim_events(steps=1500 // k)),
        "sim.probe_cancel_events_per_s": _rate(
            lambda: sim_cancel_events(60_000 // k)),
        "netapi.probe_pkts_per_s": _rate(
            lambda: netapi_packets(per_peer=80 // k)),
        "lci.probe_msgs_per_s": _rate(
            lambda: library_messages("queue", window=256 // k)),
        "mpi.probe_msgs_per_s": _rate(
            lambda: library_messages("probe", window=256 // k)),
        "mpi.noprobe_msgs_per_s": _rate(
            lambda: library_messages("no-probe", window=256 // k)),
        "lci.sim_latency_gain_vs_probe": sim_latency_gain(),
        "comm.pack_mb_per_s": _rate(lambda: pack_megabytes(40_000 // k)),
        "apps.probe_edges_per_s": app_edge_rate(scale=12 if quick else 15),
    }
    for layer in ("lci", "mpi-probe", "mpi-rma"):
        out[f"comm.probe_blobs_per_s.{layer}"] = _rate(
            lambda: comm_blobs(layer, rounds=max(1, 12 // k)))
    return out
