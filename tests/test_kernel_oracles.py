"""The relax kernel, the bitmap sieve and the per-column scatters against
their oracles.

``tests/oracles.py`` keeps the ``np.unique`` + 2-D ``ufunc.at``
formulations.  Inputs here are duplicate-heavy on purpose: edge targets
repeat inside one compute phase, which is exactly where a gather /
``np.minimum`` / fancy-assign shortcut would go wrong.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import Bfs, KCore, PageRank
from repro.apps.bfs import INF
from repro.engine.vertex_program import at_columns, min_relax, sorted_unique
from repro.graph.csr import CsrGraph
from repro.graph.partition import make_partition
from repro.serve.programs import MultiSourceBfs, MultiSourcePageRank
from tests import oracles


def multigraph_locals(seed, num_nodes=60, num_edges=900, hosts=3,
                      frozen=False):
    """Local graphs of a small multigraph: ~15 parallel edges per node
    and no dedup, so every phase hits the same targets many times."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_nodes, size=num_edges)
    dst = rng.integers(0, num_nodes // 3, size=num_edges)  # crowded targets
    weights = rng.integers(1, 9, size=num_edges)
    graph = CsrGraph.from_edges(src, dst, num_nodes, edge_data=weights)
    part = make_partition(graph, hosts, "cvc")
    if frozen:
        part.freeze()
    return graph, [lg for lg in part.locals if lg.num_edges]


def frontiers(rng, n):
    """Empty, full, sparse and dense active masks."""
    yield np.zeros(n, dtype=bool)
    yield np.ones(n, dtype=bool)
    yield rng.random(n) < 0.1
    yield rng.random(n) < 0.6


def assert_same_result(got, want):
    assert got.updated.dtype == want.updated.dtype == np.int64
    assert np.array_equal(got.updated, want.updated)
    assert (got.work_edges, got.work_nodes) == (want.work_edges, want.work_nodes)
    assert type(got.work_edges) is int and type(got.work_nodes) is int


def weighted_cand(lg, label):
    """SSSP's candidates for a 1-D or ``(n, K)`` label."""
    if label.ndim == 1:
        return lambda src, sel: label[src] + lg.edge_data[sel]
    return lambda src, sel: label[src] + lg.edge_data[sel][:, None]


def test_sorted_unique_is_np_unique():
    rng = np.random.default_rng(0)
    for size in (0, 1, 50, 5000):
        ids = rng.integers(0, 97, size=size)
        got = sorted_unique(ids, 97)
        assert got.dtype == np.unique(ids).dtype
        assert np.array_equal(got, np.unique(ids))


@pytest.mark.parametrize("seed", range(4))
def test_min_relax_equals_oracle(seed):
    rng = np.random.default_rng(seed)
    _graph, locals_ = multigraph_locals(seed)
    for lg in locals_:
        for active in frontiers(rng, lg.num_local):
            start = rng.integers(0, 50, size=lg.num_local)
            start[rng.random(lg.num_local) < 0.3] = INF
            got_label, want_label = start.copy(), start.copy()
            got = min_relax(lg, got_label, active, weighted_cand(lg, got_label))
            want = oracles.min_relax(
                lg, want_label, active, weighted_cand(lg, want_label))
            assert_same_result(got, want)
            assert np.array_equal(got_label, want_label)


@pytest.mark.parametrize("columns", [1, 3, 8])
@pytest.mark.parametrize("seed", range(3))
def test_min_relax_multi_equals_oracle(seed, columns):
    rng = np.random.default_rng([seed, columns])
    _graph, locals_ = multigraph_locals(seed)
    for lg in locals_:
        for active in frontiers(rng, lg.num_local):
            start = rng.integers(0, 50, size=(lg.num_local, columns))
            start[rng.random(start.shape) < 0.3] = INF
            got_label, want_label = start.copy(), start.copy()
            got = min_relax(lg, got_label, active, weighted_cand(lg, got_label))
            want = oracles.min_relax(
                lg, want_label, active, weighted_cand(lg, want_label))
            assert_same_result(got, want)
            assert np.array_equal(got_label, want_label)


@pytest.mark.parametrize("seed", range(4))
def test_bfs_pull_equals_oracle(seed):
    rng = np.random.default_rng(seed)
    _graph, locals_ = multigraph_locals(seed)
    for lg in locals_:
        for reached in (0.0, 0.2, 1.0):  # nothing, some, everything
            start = np.full(lg.num_local, INF, dtype=np.int64)
            known = rng.random(lg.num_local) < reached
            start[known] = rng.integers(0, 6, size=int(known.sum()))
            got_label, want_label = start.copy(), start.copy()
            got = Bfs()._pull(lg, {"label": got_label})
            want = oracles.bfs_pull(lg, want_label, INF)
            assert_same_result(got, want)
            assert np.array_equal(got_label, want_label)


@st.composite
def relax_cases(draw):
    """A crowded multigraph cut into 1-4 hosts (local graphs without
    edges included), plus the label shape, INF fraction and frontier
    density one round sees on each of them."""
    seed = draw(st.integers(0, 2**32 - 1))
    num_nodes = draw(st.integers(1, 80))
    num_edges = draw(st.integers(0, 1200))
    rng = np.random.default_rng(seed)
    graph = CsrGraph.from_edges(
        rng.integers(0, num_nodes, size=num_edges),
        rng.integers(0, max(1, num_nodes // 3), size=num_edges),
        num_nodes, edge_data=rng.integers(1, 9, size=num_edges),
    )
    part = make_partition(
        graph, draw(st.integers(1, 4)),
        draw(st.sampled_from(["cvc", "edge-cut"])),
    )
    return (part.locals, rng, draw(st.sampled_from([None, 1, 3, 8])),
            draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)))


def start_labels(rng, shape, inf_frac):
    label = rng.integers(0, 50, size=shape)
    label[rng.random(shape) < inf_frac] = INF
    return label


@settings(derandomize=True, max_examples=100, deadline=None)
@given(relax_cases())
def test_min_relax_property_equals_oracle(case):
    locals_, rng, columns, inf_frac, density = case
    for lg in locals_:
        shape = lg.num_local if columns is None else (lg.num_local, columns)
        start = start_labels(rng, shape, inf_frac)
        active = rng.random(lg.num_local) < density
        got_label, want_label = start.copy(), start.copy()
        got = min_relax(lg, got_label, active, weighted_cand(lg, got_label))
        want = oracles.min_relax(
            lg, want_label, active, weighted_cand(lg, want_label))
        assert_same_result(got, want)
        assert got_label.dtype == want_label.dtype
        assert got_label.tobytes() == want_label.tobytes()


@settings(derandomize=True, max_examples=50, deadline=None)
@given(relax_cases())
def test_bfs_pull_property_equals_oracle(case):
    locals_, rng, _columns, inf_frac, _density = case
    for lg in locals_:
        start = start_labels(rng, lg.num_local, inf_frac)
        got_label, want_label = start.copy(), start.copy()
        got = Bfs()._pull(lg, {"label": got_label})
        want = oracles.bfs_pull(lg, want_label, INF)
        assert_same_result(got, want)
        assert got_label.tobytes() == want_label.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_kcore_compute_equals_oracle(seed):
    rng = np.random.default_rng(seed)
    _graph, locals_ = multigraph_locals(seed)
    for lg in locals_:
        for pending in frontiers(rng, lg.num_local):
            removals = rng.integers(0, 4, size=lg.num_local)
            states = [
                {"dead_pending": pending.copy(), "removals": removals.copy()}
                for _ in range(2)
            ]
            got = KCore().compute(lg, states[0], None)
            want = oracles.kcore_compute(lg, states[1])
            assert_same_result(got, want)
            for key in states[0]:
                assert np.array_equal(states[0][key], states[1][key])


@pytest.mark.parametrize("columns", [1, 3, 8])
def test_ppr_compute_and_apply_keep_float_bits(columns):
    rng = np.random.default_rng(columns)
    graph, locals_ = multigraph_locals(columns)
    app = MultiSourcePageRank(list(range(columns)), rounds=2)
    for lg in locals_:
        states = [app.init_state(lg, graph) for _ in range(2)]
        contrib = rng.random((lg.num_local, columns))
        for state in states:
            state["contrib"][:] = contrib
        for _round in range(2):  # partial accumulates across the two
            got = app.compute(lg, states[0], None)
            want = oracles.ppr_compute(lg, states[1], columns)
            assert_same_result(got, want)
            assert states[0]["partial"].tobytes() == states[1]["partial"].tobytes()
        ids = rng.integers(0, lg.num_local, size=200)  # repeats allowed
        values = rng.random((200, columns))
        app.apply_reduce(states[0], ids, values)
        np.add.at(states[1]["partial"], ids, values)
        assert states[0]["partial"].tobytes() == states[1]["partial"].tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_pagerank_compute_keeps_float_bits(seed):
    """Three rounds of compute, mirrors shipped, post_reduce and a
    broadcast on a frozen partition, against the bincount oracle."""
    rng = np.random.default_rng(seed)
    graph, locals_ = multigraph_locals(seed, frozen=True)
    for lg in locals_:
        app = PageRank(tol=0.0)
        state = app.init_state(lg, graph)
        degree = np.diff(graph.indptr)[lg.global_ids].astype(float)
        want = {
            "contrib": np.where(degree > 0, np.full(
                lg.num_local, 1.0 / graph.num_nodes) / np.maximum(degree, 1.0),
                0.0),
            "partial": np.zeros(lg.num_local),
        }
        assert state["contrib"].tobytes() == want["contrib"].tobytes()
        masters = slice(0, lg.num_masters)
        mirrors = np.arange(lg.num_masters, lg.num_local)
        rank = np.full(lg.num_masters, 1.0 / graph.num_nodes)
        outdeg = degree[masters]
        for _round in range(3):
            got = app.compute(lg, state, None)
            assert_same_result(got, oracles.pagerank_compute(lg, want))
            assert state["partial"].tobytes() == want["partial"].tobytes()
            for partial in (state["partial"], want["partial"]):
                partial[mirrors] = 0.0  # shipped to their masters
            changed = app.post_reduce(lg, state)
            new_rank = ((1.0 - app.damping) / graph.num_nodes
                        + app.damping * want["partial"][masters])
            assert np.array_equal(
                changed, np.flatnonzero(np.abs(new_rank - rank) > 0.0))
            rank = new_rank
            want["contrib"][masters] = np.where(
                outdeg > 0, rank / np.maximum(outdeg, 1.0), 0.0)
            want["partial"][masters] = 0.0
            assert state["rank"].tobytes() == rank.tobytes()
            assert state["contrib"].tobytes() == want["contrib"].tobytes()
            values = rng.random(len(mirrors))
            app.apply_bcast(state, mirrors, values)
            want["contrib"][mirrors] = values


@pytest.mark.parametrize("columns", [1, 3, 8])
def test_multi_source_apply_reduce_equals_2d_at(columns):
    rng = np.random.default_rng(columns)
    app = MultiSourceBfs(list(range(columns)))
    label = rng.integers(0, 50, size=(40, columns))
    want = label.copy()
    ids = rng.integers(0, 40, size=300)
    values = rng.integers(0, 50, size=(300, columns))
    before = want[ids]
    np.minimum.at(want, ids, values)
    changed = app.apply_reduce({"label": label}, ids, values)
    assert np.array_equal(label, want)
    assert np.array_equal(changed, np.any(want[ids] < before, axis=1))


def test_at_columns_empty_and_repeated_ids():
    target = np.zeros((5, 2))
    at_columns(np.add, target, np.empty(0, dtype=np.int64), np.empty((0, 2)))
    assert not target.any()
    at_columns(np.add, target, np.array([1, 1, 1]), np.ones((3, 2)))
    assert target[1].tolist() == [3.0, 3.0]
