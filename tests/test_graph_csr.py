"""Tests for the CSR graph representation and IO."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.csr import CsrGraph
from repro.graph.io import load_edgelist, load_npz, save_edgelist, save_npz


def small_graph():
    # 0->1, 0->2, 1->2, 2->0, 3->3 (self loop kept when dedup=False)
    src = np.array([0, 0, 1, 2, 3])
    dst = np.array([1, 2, 2, 0, 3])
    return CsrGraph.from_edges(src, dst, 4, name="tiny")


def test_from_edges_basic():
    g = small_graph()
    assert g.num_nodes == 4
    assert g.num_edges == 5
    assert list(g.neighbors(0)) == [1, 2]
    assert list(g.neighbors(2)) == [0]
    assert g.out_degree(0) == 2
    assert g.out_degree(3) == 1


def test_dedup_removes_self_loops_and_duplicates():
    src = np.array([0, 0, 0, 1, 1])
    dst = np.array([1, 1, 0, 2, 2])
    g = CsrGraph.from_edges(src, dst, 3, dedup=True)
    assert g.num_edges == 2
    assert list(g.neighbors(0)) == [1]
    assert list(g.neighbors(1)) == [2]


def test_edge_data_follows_sort_and_dedup():
    src = np.array([1, 0])
    dst = np.array([2, 1])
    w = np.array([20, 10])
    g = CsrGraph.from_edges(src, dst, 3, edge_data=w, dedup=True)
    # after sorting by src: edge 0->1 has w=10, 1->2 has w=20
    assert list(g.edge_data) == [10, 20]


def test_in_degrees():
    g = small_graph()
    ind = g.in_degrees()
    assert list(ind) == [1, 1, 2, 1]


def test_transpose_roundtrip():
    g = small_graph()
    t = g.transpose()
    assert t.num_edges == g.num_edges
    assert list(t.neighbors(2)) == [0, 1]
    # transpose of transpose is the original object (cached)
    assert t.transpose() is g


def test_edge_sources_alignment():
    g = small_graph()
    src, dst = g.edges()
    assert len(src) == g.num_edges
    rebuilt = CsrGraph.from_edges(src, dst, g.num_nodes)
    assert np.array_equal(rebuilt.indptr, g.indptr)
    assert np.array_equal(rebuilt.indices, g.indices)


def test_invalid_indptr_rejected():
    with pytest.raises(ValueError):
        CsrGraph(np.array([0, 2, 1]), np.array([0, 1]), 2)


def test_out_of_range_target_rejected():
    with pytest.raises(ValueError):
        CsrGraph(np.array([0, 1]), np.array([5]), 1)


@pytest.mark.parametrize("src, dst, num_nodes, data, dedup, message", [
    # (0, 4) would alias (1, 0) in the dedup key 0 * 4 + 4 == 1 * 4 + 0
    ([1, 0], [0, 4], 4, None, True, r"edge target out of range \[0, 4\)"),
    # (1, -1) would alias (0, 3) in the dedup key
    ([1, 0], [-1, 3], 4, None, True, r"edge target out of range \[0, 4\)"),
    ([0, 6], [1, 2], 6, None, False, r"edge source out of range \[0, 6\)"),
    ([0, 6], [1, 2], 6, None, True, r"edge source out of range \[0, 6\)"),
    ([0, -1], [1, 2], 3, None, False, r"edge source out of range \[0, 3\)"),
    ([0, 1], [1, 0], 2, [1, 2, 3], False, "edge_data has 3 entries for 2"),
    ([0, 1], [1, 0], 2, [1, 2, 3], True, "edge_data has 3 entries for 2"),
    ([0, 1], [1, 0], 2, [1], True, "edge_data has 1 entries for 2"),
])
def test_from_edges_rejects_bad_input(src, dst, num_nodes, data, dedup,
                                      message):
    """Lengths and id ranges are checked before any key arithmetic: an
    out-of-range id must not alias another pair, and a misaligned
    ``edge_data`` must not be cut to fit."""
    with pytest.raises(ValueError, match=message):
        CsrGraph.from_edges(np.array(src), np.array(dst), num_nodes,
                            edge_data=data, dedup=dedup)


def test_npz_roundtrip(tmp_path):
    g = small_graph()
    path = str(tmp_path / "g.npz")
    save_npz(g, path)
    g2 = load_npz(path)
    assert g2.name == "tiny"
    assert np.array_equal(g2.indptr, g.indptr)
    assert np.array_equal(g2.indices, g.indices)


def test_npz_roundtrip_with_weights(tmp_path):
    src = np.array([0, 1])
    dst = np.array([1, 0])
    g = CsrGraph.from_edges(src, dst, 2, edge_data=np.array([3, 4]), name="w")
    path = str(tmp_path / "w.npz")
    save_npz(g, path)
    g2 = load_npz(path)
    assert list(g2.edge_data) == [3, 4]


def test_edgelist_roundtrip(tmp_path):
    g = small_graph()
    path = str(tmp_path / "g.txt")
    save_edgelist(g, path)
    g2 = load_edgelist(path, num_nodes=4)
    assert g2.num_edges == g.num_edges
    assert np.array_equal(g2.indices, g.indices)


def test_edgelist_with_weights_roundtrip(tmp_path):
    src = np.array([0, 1])
    dst = np.array([1, 0])
    g = CsrGraph.from_edges(src, dst, 2, edge_data=np.array([7, 9]))
    path = str(tmp_path / "gw.txt")
    save_edgelist(g, path)
    g2 = load_edgelist(path)
    assert list(g2.edge_data) == [7, 9]


@settings(max_examples=30, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=200
    )
)
def test_property_csr_preserves_edge_multiset(edges):
    n = 20
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    g = CsrGraph.from_edges(src, dst, n)
    rs, rd = g.edges()
    assert sorted(zip(src, dst)) == sorted(zip(rs, rd))


@settings(max_examples=30, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=150
    )
)
def test_property_transpose_is_involution(edges):
    n = 16
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    g = CsrGraph.from_edges(src, dst, n)
    t = g.transpose()
    # in-degree of g == out-degree of t
    assert np.array_equal(g.in_degrees(), t.out_degree())
    assert np.array_equal(t.in_degrees(), g.out_degree())
