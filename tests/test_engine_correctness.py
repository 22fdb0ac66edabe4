"""End-to-end correctness: distributed results must equal the references.

These are the most important tests in the suite: they run the real
algorithms on real partitioned graphs through the full simulated
communication stack (all three layers, both partition policies) and
compare against sequential reference implementations.
"""

import numpy as np
import pytest

from repro.apps import Bfs, ConnectedComponents, PageRank, Sssp
from repro.engine import BspEngine, EngineConfig, abelian_engine, gemini_engine
from repro.engine.bsp import symmetrize
from repro.graph.generators import rmat, webcrawl

LAYERS = ["lci", "mpi-probe", "mpi-rma"]


def small_graph(weights=False, seed=42):
    return rmat(7, edge_factor=8, seed=seed, weights=weights)


def run(graph, app, hosts, layer, policy="cvc"):
    cfg = EngineConfig(num_hosts=hosts, policy=policy, layer=layer)
    eng = BspEngine(graph, app, cfg)
    metrics = eng.run()
    return eng, metrics


# ---------------------------------------------------------------------------
# BFS
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("layer", LAYERS)
def test_bfs_matches_reference(layer):
    g = small_graph()
    app = Bfs(source=0)
    eng, metrics = run(g, app, hosts=4, layer=layer)
    got = eng.assemble_global()
    want = app.reference(g)
    assert np.array_equal(got, want), f"bfs mismatch on {layer}"
    assert metrics.rounds > 1
    assert metrics.total_seconds > 0


@pytest.mark.parametrize("policy", ["cvc", "edge-cut"])
def test_bfs_policies(policy):
    g = small_graph()
    app = Bfs(source=0)
    eng, _ = run(g, app, hosts=4, layer="lci", policy=policy)
    assert np.array_equal(eng.assemble_global(), app.reference(g))


def test_bfs_single_host():
    g = small_graph()
    app = Bfs(source=0)
    eng, metrics = run(g, app, hosts=1, layer="lci")
    assert np.array_equal(eng.assemble_global(), app.reference(g))


def test_bfs_nondefault_source():
    g = small_graph(seed=3)
    app = Bfs(source=17)
    eng, _ = run(g, app, hosts=3, layer="lci")
    assert np.array_equal(eng.assemble_global(), app.reference(g))


def test_bfs_webcrawl_input():
    g = webcrawl(8, seed=5)
    app = Bfs(source=0)
    eng, _ = run(g, app, hosts=4, layer="lci")
    assert np.array_equal(eng.assemble_global(), app.reference(g))


def test_bfs_probe_layer_wakes_for_a_message_parked_by_its_own_tests():
    # Regression (lost wake-up): rmat16 on 4 hosts, graph seed 3, from
    # vertex 6.  Host 3's comm thread probes and finds nothing; the
    # progress pass inside its MPI_Test loop then parks host 1's 206 KB
    # RTS in the unexpected queue *and* completes the last pending
    # request, so it went to sleep on an arrival that had already come,
    # with no deadline, while host 1 re-polled every flush timeout for
    # ever.  The event cap turns a relapse into a quick failure.
    from repro.bench.scenarios import Scenario, build_engine

    sc = Scenario(app="bfs", graph="rmat", scale=16, hosts=4,
                  layer="mpi-probe", seed=3)
    app = Bfs(source=6)
    eng = build_engine(sc, app=app)
    eng.config.max_events = 300_000
    metrics = eng.run()
    assert metrics.rounds == 4
    assert metrics.layer_counters["rndv_sends"] > 0
    assert np.array_equal(eng.assemble_global(), app.reference(eng.graph))


# ---------------------------------------------------------------------------
# SSSP
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("layer", LAYERS)
def test_sssp_matches_dijkstra(layer):
    g = small_graph(weights=True)
    app = Sssp(source=0)
    eng, _ = run(g, app, hosts=4, layer=layer)
    got = eng.assemble_global()
    want = app.reference(g)
    assert np.array_equal(got, want), f"sssp mismatch on {layer}"


def test_sssp_requires_weights():
    g = small_graph(weights=False)
    with pytest.raises(ValueError, match="weights"):
        run(g, Sssp(source=0), hosts=2, layer="lci")


# ---------------------------------------------------------------------------
# CC
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("layer", LAYERS)
def test_cc_matches_reference(layer):
    g = small_graph(seed=9)
    app = ConnectedComponents()
    eng, _ = run(g, app, hosts=4, layer=layer)
    got = eng.assemble_global()
    want = app.reference(symmetrize(g))
    assert np.array_equal(got, want), f"cc mismatch on {layer}"


def test_cc_disconnected_graph():
    import numpy as np
    from repro.graph.csr import CsrGraph

    # Two separate triangles plus an isolated node.
    src = np.array([0, 1, 2, 3, 4, 5])
    dst = np.array([1, 2, 0, 4, 5, 3])
    g = CsrGraph.from_edges(src, dst, 7, name="tri2")
    app = ConnectedComponents()
    eng, _ = run(g, app, hosts=2, layer="lci")
    got = eng.assemble_global()
    assert list(got[:3]) == [0, 0, 0]
    assert list(got[3:6]) == [3, 3, 3]
    assert got[6] == 6  # isolated: own component


# ---------------------------------------------------------------------------
# PageRank
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("layer", LAYERS)
def test_pagerank_matches_power_iteration(layer):
    g = small_graph(seed=4)
    app = PageRank(max_rounds=30, tol=1e-12)
    eng, metrics = run(g, app, hosts=4, layer=layer)
    got = eng.assemble_global()
    want = app.reference(g, rounds=metrics.rounds)
    np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-12)
    assert abs(got.sum()) <= 1.0 + 1e-6


def test_pagerank_respects_round_cap():
    g = small_graph(seed=4)
    app = PageRank(max_rounds=5, tol=0.0)
    _, metrics = run(g, app, hosts=2, layer="lci")
    assert metrics.rounds == 5


# ---------------------------------------------------------------------------
# Engine wrappers
# ---------------------------------------------------------------------------
def test_abelian_engine_uses_cvc():
    g = small_graph()
    eng = abelian_engine(g, Bfs(source=0), num_hosts=4, layer="lci")
    assert eng.partition.policy == "cvc"
    eng.run()
    assert np.array_equal(eng.assemble_global(), Bfs(source=0).reference(g))


def test_gemini_engine_uses_edge_cut_and_inline_mpi():
    g = small_graph()
    eng = gemini_engine(g, Bfs(source=0), num_hosts=4, layer="mpi-probe")
    assert eng.partition.policy == "edge-cut"
    assert eng.layers[0].inline_sends
    eng.run()
    assert np.array_equal(eng.assemble_global(), Bfs(source=0).reference(g))


def test_gemini_rejects_rma():
    g = small_graph()
    with pytest.raises(ValueError, match="RMA"):
        gemini_engine(g, Bfs(source=0), num_hosts=2, layer="mpi-rma")


# ---------------------------------------------------------------------------
# Metrics sanity
# ---------------------------------------------------------------------------
def test_metrics_structure():
    g = small_graph()
    eng, m = run(g, Bfs(source=0), hosts=4, layer="lci")
    assert m.rounds == len(m.compute_per_round) == len(m.comm_per_round)
    assert m.compute_seconds > 0
    assert m.comm_seconds > 0
    assert m.total_seconds >= m.compute_seconds
    assert len(m.footprint_per_host) == 4
    assert all(f > 0 for f in m.footprint_per_host)
    assert m.blobs_sent > 0
    row = m.row()
    assert row["app"] == "bfs" and row["hosts"] == 4
