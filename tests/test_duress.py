"""Resilience under network duress: constrained TX queues and pools.

The paper's Section III-D: "LCI avoids fatal failures due to insufficient
network resources ... by allowing the upper layer to retry the operation
on such events."  These tests squeeze the simulated hardware (tiny NIC
TX queues, tiny packet pools) and verify every layer still computes the
right answer — with LCI's retries visible in its statistics rather than
hidden or fatal.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.apps import Bfs, PageRank
from repro.engine import BspEngine, EngineConfig
from repro.graph.generators import rmat
from repro.lci.config import LciConfig
from repro.sim.machine import stampede2


def squeezed_machine(tx_depth=8, injection_rate=2e6):
    m = stampede2()
    return replace(
        m, nic=replace(m.nic, tx_queue_depth=tx_depth,
                       injection_rate=injection_rate),
    )


@pytest.mark.parametrize("layer", ["lci", "mpi-probe", "mpi-rma"])
def test_correct_under_tiny_tx_queue(layer):
    g = rmat(7, edge_factor=8, seed=31)
    app = Bfs(source=0)
    cfg = EngineConfig(
        num_hosts=4, layer=layer, machine=squeezed_machine(tx_depth=4),
    )
    eng = BspEngine(g, app, cfg)
    eng.run()
    assert np.array_equal(eng.assemble_global(), app.reference(g)), layer


def test_lci_correct_with_minimal_pool():
    g = rmat(7, edge_factor=8, seed=31)
    app = PageRank(max_rounds=5, tol=1e-12)
    cfg = EngineConfig(
        num_hosts=4, layer="lci",
        layer_kwargs={
            "lci_config": LciConfig(pool_packets_per_host=0,
                                    pool_packets_min=4)
        },
    )
    eng = BspEngine(g, app, cfg)
    m = eng.run()
    want = app.reference(g, rounds=m.rounds)
    np.testing.assert_allclose(eng.assemble_global(), want, rtol=1e-8)


def test_lci_surfaces_retries_nonfatally():
    """Duress shows up as retry/stall counters, never as an exception."""
    g = rmat(8, edge_factor=12, seed=31)
    app = PageRank(max_rounds=5, tol=1e-12)
    cfg = EngineConfig(
        num_hosts=8, layer="lci", machine=squeezed_machine(),
        layer_kwargs={
            # 3 packets, 2 receive-reserved: one send slot for parallel
            # senders -> guaranteed contention.
            "lci_config": LciConfig(pool_packets_per_host=0,
                                    pool_packets_min=3)
        },
    )
    eng = BspEngine(g, app, cfg)
    eng.run()
    pressure = sum(
        l.send_retries
        + l.rt.server_pool_stalls
        + l.rt.pool.alloc_failures
        for l in eng.layers
    )
    assert pressure > 0, "expected visible back pressure under duress"


def _run_faulted(plan_name, seed=11):
    """One LCI PageRank run under a fault plan; returns (trace, metrics)."""
    from repro.faults import get_plan

    g = rmat(7, edge_factor=8, seed=31)
    app = PageRank(max_rounds=5, tol=1e-12)
    cfg = EngineConfig(
        num_hosts=4, layer="lci", fault_plan=get_plan(plan_name, seed),
    )
    eng = BspEngine(g, app, cfg)
    m = eng.run()
    return eng.injector.trace, m


def test_fault_trace_determinism():
    """Same scenario + same FaultPlan seed => byte-identical fault traces
    and identical RunMetrics."""
    trace1, m1 = _run_faulted("flaky-link", seed=11)
    trace2, m2 = _run_faulted("flaky-link", seed=11)
    assert trace1 == trace2
    assert len(trace1) > 0, "plan injected nothing at this scale"
    assert m1 == m2
    # A different fault seed replays a different adversity schedule.
    trace3, _ = _run_faulted("flaky-link", seed=12)
    assert trace1 != trace3


def test_lci_bfs_identical_answer_under_drops():
    """Acceptance: nonzero drops, LCI answer == fault-free answer, with
    retransmissions visible in the metrics."""
    g = rmat(7, edge_factor=8, seed=31)
    app = Bfs(source=0)
    clean = BspEngine(g, app, EngineConfig(num_hosts=4, layer="lci"))
    clean.run()
    want = clean.assemble_global()

    eng = BspEngine(g, app, EngineConfig(
        num_hosts=4, layer="lci", fault_plan="drop-5pct"))
    m = eng.run()
    assert np.array_equal(eng.assemble_global(), want)
    assert m.fault_counts["drops"] > 0
    assert m.layer_counters["retransmissions"] > 0
    # ... and on the recovery protocol's own counts.
    retrans = sum(l.rt.reliability.retransmissions for l in eng.layers)
    assert retrans == m.layer_counters["retransmissions"]


def test_lci_pagerank_identical_answer_under_drops():
    g = rmat(7, edge_factor=8, seed=31)
    app = PageRank(max_rounds=5, tol=1e-12)
    clean = BspEngine(g, app, EngineConfig(num_hosts=4, layer="lci"))
    clean.run()
    want = clean.assemble_global()

    eng = BspEngine(g, app, EngineConfig(
        num_hosts=4, layer="lci", fault_plan="drop-5pct"))
    m = eng.run()
    np.testing.assert_allclose(eng.assemble_global(), want, rtol=1e-12)
    assert m.fault_counts["drops"] > 0


def test_faults_compose_with_squeezed_hardware():
    """Injected faults stack on top of genuine hardware duress."""
    g = rmat(7, edge_factor=8, seed=31)
    app = Bfs(source=0)
    clean = BspEngine(g, app, EngineConfig(num_hosts=4, layer="lci"))
    clean.run()
    want = clean.assemble_global()
    eng = BspEngine(g, app, EngineConfig(
        num_hosts=4, layer="lci", machine=squeezed_machine(tx_depth=4),
        fault_plan="flaky-link",
    ))
    eng.run()
    assert np.array_equal(eng.assemble_global(), want)


def test_cached_graph_is_frozen():
    """Scenario runs share one graph instance; it must be immutable."""
    from repro.bench.scenarios import cached_graph

    g = cached_graph("rmat", 7, 31, False)
    assert g.frozen
    assert g is cached_graph("rmat", 7, 31, False)
    with pytest.raises(ValueError):
        g.indices[0] = 0
    with pytest.raises(ValueError):
        g.indptr[0] = 1
    # The cached transpose view is frozen too.
    with pytest.raises(ValueError):
        g.transpose().indices[0] = 0
    gw = cached_graph("rmat", 7, 31, True)
    with pytest.raises(ValueError):
        gw.edge_data[0] = 0.0


def test_slow_injection_rate_still_correct():
    g = rmat(7, edge_factor=8, seed=5)
    app = Bfs(source=0)
    cfg = EngineConfig(
        num_hosts=4, layer="lci",
        machine=squeezed_machine(tx_depth=64, injection_rate=1e5),
    )
    eng = BspEngine(g, app, cfg)
    m = eng.run()
    assert np.array_equal(eng.assemble_global(), app.reference(g))
    # The message-rate cap is visible in the communication time.
    fast = BspEngine(
        rmat(7, edge_factor=8, seed=5), Bfs(source=0),
        EngineConfig(num_hosts=4, layer="lci"),
    )
    mf = fast.run()
    assert m.comm_seconds > mf.comm_seconds
