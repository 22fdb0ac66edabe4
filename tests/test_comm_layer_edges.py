"""Edge cases of the communication layers beyond the conformance suite."""

import numpy as np
import pytest

from repro.comm import make_layers
from repro.comm.rma_layer import RmaCommLayer, worst_case_blob_bytes
from repro.comm.serialization import pack_updates
from repro.netapi.nic import Fabric
from repro.sim.engine import Environment
from repro.sim.machine import stampede2


def make_world(layer_name, num_hosts=2, **kwargs):
    env = Environment()
    fabric = Fabric(env, num_hosts, stampede2())
    layers = make_layers(layer_name, env, fabric, stampede2(), **kwargs)
    return env, layers


def blob(phase, n=4, pair_len=64):
    return pack_updates(
        np.arange(n), np.arange(n, dtype=np.int64), pair_len, 8, phase=phase
    )


def test_make_layers_unknown_name():
    env = Environment()
    fabric = Fabric(env, 2, stampede2())
    with pytest.raises(ValueError, match="unknown comm layer"):
        make_layers("tcp", env, fabric, stampede2())


def test_worst_case_blob_bytes_formula():
    # header 16 + bitset ceil(100/8)=13 + 100*8
    assert worst_case_blob_bytes(100, 8) == 16 + 13 + 800
    assert worst_case_blob_bytes(0, 8) == 16


def test_rma_pattern_of_requires_tuple_phase():
    with pytest.raises(ValueError, match="phases"):
        RmaCommLayer.pattern_of("round-3")
    assert RmaCommLayer.pattern_of((3, "reduce")) == "reduce"


def test_collect_out_of_order_phases_stash():
    """A blob for a future phase parks until that phase is collected."""
    env, layers = make_world("lci")
    order = []

    def sender(env):
        # Send phase B first, then phase A.
        yield from layers[0].send(1, blob(("B",)))
        yield from layers[0].send(1, blob(("A",)))

    def receiver(env):
        got_a = yield from layers[1].collect(("A",), [0])
        order.append(("A", len(got_a)))
        got_b = yield from layers[1].collect(("B",), [0])
        order.append(("B", len(got_b)))
        for l in layers:
            l.shutdown()

    env.process(sender(env))
    env.process(receiver(env))
    env.run(max_events=1_000_000)
    assert order == [("A", 1), ("B", 1)]


def test_unexpected_source_raises():
    env, layers = make_world("lci", num_hosts=3)

    def sender(env):
        yield from layers[2].send(1, blob(("P",)))

    def receiver(env):
        # Expecting host 0 only; host 2's blob must be flagged.
        yield from layers[1].collect(("P",), [0])

    env.process(sender(env))
    env.process(receiver(env))
    with pytest.raises(RuntimeError, match="unexpected blob from 2"):
        env.run(max_events=1_000_000)


def test_probe_unbuffered_sends_one_message_per_blob():
    env, layers = make_world("mpi-probe", buffered=False)

    def sender(env):
        for i in range(5):
            yield from layers[0].send(1, blob((i,)))
        # No flush needed: unbuffered mode forwards immediately.
        for i in range(5):
            got = yield from layers[1].collect((i,), [0])
            layers[1].consume(got[0][1])
        for l in layers:
            l.shutdown()

    env.process(sender(env))
    env.run(max_events=1_000_000)
    assert layers[0].mpi_isends == 5
    assert layers[0].aggregates_flushed == 0


def test_empty_blob_roundtrip():
    """Zero-update blobs (quiet pairs) still complete the phase."""
    env, layers = make_world("lci")
    result = {}

    def host(h):
        layer = layers[h]
        phase = (0, "reduce")
        peer = 1 - h
        empty = pack_updates(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            64, 8, phase=phase,
        )
        yield from layer.send(peer, empty)
        got = yield from layer.collect(phase, [peer])
        result[h] = got[0][1].count
        layer.consume(got[0][1])
        layer.shutdown()

    for h in range(2):
        env.process(host(h))
    env.run(max_events=1_000_000)
    assert result == {0: 0, 1: 0}


def test_footprint_counts_fixed_pool_for_lci():
    env, layers = make_world("lci")
    pool = layers[0].rt.pool.bytes_allocated()
    assert layers[0].footprint.current == pool
    assert layers[0].footprint.peak >= pool


def test_rma_setup_seconds_recorded():
    env, layers = make_world("mpi-rma", num_hosts=2)

    class _P:
        def __len__(self):
            return 32

    pairs = {(0, 1): _P(), (1, 0): _P()}

    def host(h):
        yield from layers[h].setup(
            reduce_pairs=pairs, field_bytes=8, patterns=("reduce",)
        )

    procs = [env.process(host(h)) for h in range(2)]
    env.run(max_events=1_000_000)
    assert all(p.ok for p in procs)
    assert layers[0].setup_seconds > 0
    assert layers[0].windows["reduce"] is layers[1].windows["reduce"]
