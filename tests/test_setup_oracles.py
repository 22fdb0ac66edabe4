"""The one-pass CSR and partition builders against their oracles.

Every array the fast builders produce must equal the reference
builders' (``tests/oracles.py``) in value *and* dtype, and the sync-pair
dicts must come out in the same key order: simulated schedules depend
on all of it.
"""

import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.engine.bsp import symmetrize
from repro.graph import generators
from repro.graph.csr import (
    CsrGraph, _packed_sort, first_occurrences, group_offsets, stable_argsort,
)
from repro.graph.generators import GRAPH_FAMILIES
from repro.graph.partition import edge_cut, make_partition, vertex_cut
from repro.graph.partition.proxies import build_partition, host_dtype
from tests import oracles

HOSTS = (1, 2, 3, 4, 7, 8, 16, 32, 128)
POLICIES = ("cvc", "edge-cut")
LOCAL_ARRAYS = ("global_ids", "indptr", "indices", "edge_data",
                "is_edge_src", "is_edge_dst", "_src_cache")


def assert_same_array(got, want, what):
    if want is None:
        assert got is None, what
        return
    assert got.dtype == want.dtype, f"{what}: {got.dtype} != {want.dtype}"
    assert np.array_equal(got, want), what


def assert_same_graph(got, want):
    assert got.num_nodes == want.num_nodes and got.name == want.name
    for field in ("indptr", "indices", "edge_data"):
        assert_same_array(getattr(got, field), getattr(want, field), field)


def assert_same_partition(got, want):
    assert_same_array(got.owner, want.owner, "owner")
    assert len(got.locals) == len(want.locals)
    for a, b in zip(got.locals, want.locals):
        assert (a.host, a.num_masters) == (b.host, b.num_masters)
        for field in LOCAL_ARRAYS:
            assert_same_array(getattr(a, field), getattr(b, field),
                              f"host {a.host} {field}")
    for kind in ("reduce_pairs", "bcast_pairs"):
        pairs, ref = getattr(got, kind), getattr(want, kind)
        assert list(pairs) == list(ref), f"{kind} key order"
        for key, sp in pairs.items():
            assert (sp.mirror_host, sp.master_host) == key
            assert_same_array(sp.mirror_ids, ref[key].mirror_ids, (kind, key))
            assert_same_array(sp.master_ids, ref[key].master_ids, (kind, key))
    for view in ("reduce_out", "reduce_in", "bcast_out", "bcast_in"):
        for h in range(got.num_hosts):
            assert ([(sp.mirror_host, sp.master_host)
                     for sp in getattr(got, view)(h)]
                    == [(sp.mirror_host, sp.master_host)
                        for sp in getattr(want, view)(h)])


@pytest.fixture
def oracle_partition(monkeypatch):
    """``make_partition`` with the reference builder behind the same
    policy code (same ``owner`` / ``edge_owner`` assignment)."""
    def make(graph, hosts, policy):
        with monkeypatch.context() as patch:
            for module in (edge_cut, vertex_cut):
                patch.setattr(module, "build_partition",
                              oracles.build_partition)
            return make_partition(graph, hosts, policy)
    return make


# ----------------------------------------------------------------------
# stable_argsort: every tier equals NumPy's stable argsort
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bound", [255, 256, 257, 65_535, 65_536, 65_537])
def test_narrowed_sort_key_never_wraps(bound):
    """256 hosts still fit 8 bits and 65 536 fit 16; one more does not,
    and its largest key must not come back as 0."""
    keys = np.array([0, bound - 1, 0, bound - 1, 1], dtype=np.int64)
    assert stable_argsort(keys, bound).tolist() == [0, 2, 4, 1, 3]
    narrowed = keys.astype(np.min_scalar_type(bound - 1))
    assert narrowed.tolist() == keys.tolist()
    assert narrowed.itemsize == (1 if bound <= 256 else
                                 2 if bound <= 65_536 else 4)


@pytest.mark.parametrize("bound", [
    1, 2, 255, 256, 257, 65_535, 65_536, 65_537,  # radix tiers and edge
    1 << 34, 1 << 40,                              # packed above position
    1 << 53, 1 << 54,                  # 63 and 64 bits with 1000 positions
    (1 << 54) + 1, 1 << 58, 1 << 62,               # does not fit 64 bits
])
@pytest.mark.parametrize("count", [0, 1, 2, 1000])
def test_stable_argsort_equals_numpy(bound, count):
    rng = np.random.default_rng([bound % 9973, count])
    keys = rng.integers(0, bound, size=count, dtype=np.int64)
    if count >= 2:
        # plenty of ties, and the extremes of the range
        keys[count // 2:] = keys[: count - count // 2]
        keys[0], keys[-1] = bound - 1, 0
    want = np.argsort(keys, kind="stable")
    got = stable_argsort(keys, bound)
    assert_same_array(got, want, f"bound {bound}")


def test_packed_sort_covers_exactly_up_to_64_bits():
    """Both sides of the one arithmetic fact that picks the tier, for
    both callers of the packed sort: 1024 keys (10 position bits), the
    largest of which sets the packed value's top bit where 64 bits are
    taken to fit."""
    for bound, packed in (
        (1 << 53, True),         # 53 + 10 = 63 bits
        ((1 << 53) + 1, True),   # 54 + 10 = 64: the top bit is set
        (1 << 54, True),         # 64: the largest key packs to 2**64 - 1024
        ((1 << 54) + 1, False),  # 55 + 10 = 65
    ):
        keys = np.array([5, bound - 1, 5, 0] * 256, dtype=np.int64)
        assert (_packed_sort(keys, bound) is not None) == packed, bound
        assert_same_array(stable_argsort(keys, bound),
                          np.argsort(keys, kind="stable"), bound)
        want = np.zeros(len(keys), dtype=bool)
        want[np.unique(keys, return_index=True)[1]] = True
        assert_same_array(first_occurrences(keys.copy(), bound), want, bound)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.int32])
def test_stable_argsort_takes_any_integer_keys(dtype):
    """Host ids arrive in ``host_dtype``; a key packed above its position
    is widened to int64 first, so it cannot wrap in its own dtype."""
    top = int(np.iinfo(dtype).max)
    keys = np.array([top, 0, top, 1, 0] * 200, dtype=dtype)
    for bound in (top + 1, 1 << 40):
        assert_same_array(stable_argsort(keys, bound),
                          np.argsort(keys, kind="stable"), (dtype, bound))


@pytest.mark.parametrize("bound", [
    1, 2, 300, 1 << 40, 1 << 53, 1 << 54, (1 << 54) + 1, 1 << 58, 1 << 62,
])
@pytest.mark.parametrize("count", [0, 1, 2, 1000])
def test_first_occurrences_equals_unique(bound, count):
    """Packed and sorted in place, or (key plus position past 64 bits)
    through the stable argsort: the mask is ``np.unique``'s first
    indices either way, and ``keys`` is only scratch."""
    rng = np.random.default_rng([bound % 9973, count])
    keys = rng.integers(0, bound, size=count, dtype=np.int64)
    if count >= 2:
        keys[count // 2:] = keys[: count - count // 2]
        keys[0], keys[-1] = bound - 1, 0
    want = np.zeros(count, dtype=bool)
    want[np.unique(keys, return_index=True)[1]] = True
    assert_same_array(first_occurrences(keys.copy(), bound), want, bound)


def test_group_offsets():
    ids = np.array([2, 0, 2, 2, 5], dtype=np.int64)
    assert group_offsets(ids, 7).tolist() == [0, 1, 1, 4, 4, 4, 5, 5]
    assert group_offsets(ids[:0], 3).tolist() == [0, 0, 0, 0]


# ----------------------------------------------------------------------
# CsrGraph.from_edges
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dedup", [False, True])
@pytest.mark.parametrize("weights", [False, True])
@pytest.mark.parametrize("num_nodes, num_edges", [
    (1, 0), (1, 5), (5, 40), (200, 3000), (300, 100_000),
    (70_000, 5000),  # sources wider than the 16-bit radix tier
])
def test_from_edges_equals_oracle(num_nodes, num_edges, weights, dedup):
    rng = np.random.default_rng([num_nodes, num_edges])
    src = rng.integers(0, num_nodes, size=num_edges)
    dst = rng.integers(0, num_nodes, size=num_edges)
    data = rng.integers(1, 64, size=num_edges) if weights else None
    got = CsrGraph.from_edges(src, dst, num_nodes, edge_data=data,
                              dedup=dedup, name="g")
    want = oracles.from_edges(src, dst, num_nodes, edge_data=data,
                              dedup=dedup, name="g")
    assert_same_graph(got, want)
    assert_same_graph(got.transpose(), oracles.from_edges(
        want.indices, want.edge_sources(), num_nodes,
        edge_data=want.edge_data, name="g.T",
    ))


def test_from_edges_float_edge_data_keeps_dtype_and_first_duplicate():
    src = np.array([3, 1, 3, 1, 2, 2])
    dst = np.array([0, 2, 0, 2, 2, 0])
    data = np.array([0.5, 1.5, 2.5, 3.5, 4.5, 5.5])
    g = CsrGraph.from_edges(src, dst, 4, edge_data=data, dedup=True)
    assert_same_graph(
        g, oracles.from_edges(src, dst, 4, edge_data=data, dedup=True))
    # (1,2) and (3,0) keep their first weight; the (2,2) loop is dropped
    assert g.edge_data.tolist() == [1.5, 5.5, 0.5]


@pytest.mark.parametrize("data", [None, "int", "float"])
@pytest.mark.parametrize("num_nodes, num_edges", [
    (1, 0), (1, 3), (4, 30), (50, 2000), (70_000, 5000),
])
def test_symmetrize_equals_oracle(num_nodes, num_edges, data):
    """Multi-edges, self loops and both directions of a pair carrying
    different data: which occurrence survives, and in which order, is
    the reference's."""
    rng = np.random.default_rng([num_nodes, num_edges])
    src = rng.integers(0, num_nodes, size=num_edges)
    dst = rng.integers(0, num_nodes, size=num_edges)
    edge_data = {
        None: None,
        "int": rng.integers(1, 64, size=num_edges).astype(np.int32),
        "float": rng.random(num_edges),
    }[data]
    graph = CsrGraph.from_edges(src, dst, num_nodes, edge_data=edge_data,
                                name="g")
    assert_same_graph(symmetrize(graph), oracles.symmetrize(graph))


# ----------------------------------------------------------------------
# The R-MAT sampler: any slice count gives the one-thread arrays
# ----------------------------------------------------------------------
def sampler_probabilities(family):
    """The ``(a, b, c)`` the family's generator hands ``_rmat_edges``."""
    seen = []
    real = generators._rmat_edges

    def spy(scale, num_edges, rng, a, b, c):
        seen.append((a, b, c))
        return real(scale, num_edges, rng, a, b, c)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generators, "_rmat_edges", spy)
        GRAPH_FAMILIES[family](2)
    (probabilities,) = seen
    return probabilities


@pytest.mark.parametrize("slices", [1, 2, 3, 7])
@pytest.mark.parametrize("family", ["kron", "rmat"])
def test_rmat_sampler_equals_oracle(family, slices, monkeypatch):
    """Every element reads the same stream position however the edges
    are sliced — none, one or several edges per slice, or more slices
    than edges — and the stream is left where the one-thread sampler
    leaves it, a buffered 32-bit half included."""
    probabilities = sampler_probabilities(family)
    monkeypatch.setattr(generators, "_usable_cores", lambda: slices)
    monkeypatch.setattr(generators, "_THREADED_EDGES", 0)
    for scale in range(1, 13):
        for num_edges in (0, 1, 2, 5, 6, 7, 999, 4097):
            for buffered in (False, True):
                streams = [np.random.default_rng([scale, num_edges])
                           for _ in range(2)]
                if buffered:
                    for rng in streams:
                        rng.integers(0, 10, dtype=np.uint32)
                got_rng, want_rng = streams
                got = generators._rmat_edges(scale, num_edges, got_rng,
                                             *probabilities)
                want = oracles.rmat_edges(scale, num_edges, want_rng,
                                          *probabilities)
                what = (scale, num_edges, buffered)
                assert_same_array(got[0], want[0], ("src",) + what)
                assert_same_array(got[1], want[1], ("dst",) + what)
                for dtype in (np.uint32, np.int64):
                    assert_same_array(got_rng.integers(1, 64, 3, dtype),
                                      want_rng.integers(1, 64, 3, dtype),
                                      ("next draw",) + what)


def test_rmat_sampler_slices_by_core_count(monkeypatch):
    """One slice per usable core from ``_THREADED_EDGES`` edges on, one
    below: the ids are the oracle's either way."""
    slices = []
    real = generators._sample_slice

    def spy(*args):
        slices.append(len(args[4]))
        real(*args)

    monkeypatch.setattr(generators, "_sample_slice", spy)
    monkeypatch.setattr(generators, "_usable_cores", lambda: 3)
    for num_edges, want in ((generators._THREADED_EDGES - 1, 1),
                            (generators._THREADED_EDGES, 3)):
        slices.clear()
        got = generators._rmat_edges(4, num_edges,
                                     np.random.default_rng(1), 0.5, 0.2, 0.2)
        assert len(slices) == want and sum(slices) == num_edges
        ref = oracles.rmat_edges(4, num_edges, np.random.default_rng(1),
                                 0.5, 0.2, 0.2)
        assert_same_array(got[0], ref[0], num_edges)
        assert_same_array(got[1], ref[1], num_edges)


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_rmat_sampler_raises_when_a_thread_fails(monkeypatch):
    real = generators._sample_slice

    def failing_off_the_main_thread(*args):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError
        real(*args)

    monkeypatch.setattr(generators, "_sample_slice",
                        failing_off_the_main_thread)
    monkeypatch.setattr(generators, "_usable_cores", lambda: 2)
    with pytest.raises(RuntimeError, match="sampling thread failed"):
        generators._rmat_edges(4, generators._THREADED_EDGES,
                               np.random.default_rng(1), 0.5, 0.2, 0.2)


# ----------------------------------------------------------------------
# Generators, symmetrize, transpose, and their partitions
# ----------------------------------------------------------------------
def reference_graph(family, scale, seed, weights, monkeypatch):
    """The family's generator with the reference sampler and CSR
    builder, and the reference symmetrize."""
    with monkeypatch.context() as patch:
        patch.setattr(generators, "_rmat_edges", oracles.rmat_edges)
        patch.setattr(CsrGraph, "from_edges", staticmethod(oracles.from_edges))
        graph = GRAPH_FAMILIES[family](scale, seed=seed, weights=weights)
        return graph, oracles.symmetrize(graph), graph.transpose()


@pytest.mark.parametrize("weights", [False, True])
@pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
def test_graphs_and_partitions_equal_oracles(
    family, weights, monkeypatch, oracle_partition
):
    for seed in (1, 5):
        graph = GRAPH_FAMILIES[family](7, seed=seed, weights=weights)
        forms = (graph, symmetrize(graph), graph.transpose())
        wanted = reference_graph(family, 7, seed, weights, monkeypatch)
        for form, want in zip(forms, wanted):
            assert_same_graph(form, want)
            for hosts in HOSTS:
                for policy in POLICIES:
                    assert_same_partition(
                        make_partition(form, hosts, policy),
                        oracle_partition(form, hosts, policy),
                    )


@pytest.mark.parametrize("hosts", [1, 3, 8, 257, 300])
def test_arbitrary_assignments_equal_oracle(hosts):
    """``build_partition`` takes any assignment, not only the two
    policies' contiguous blocks: scattered owners, hosts without nodes
    or edges, more hosts than the 8-bit key holds, and ``edge_owner`` in
    every integer dtype that holds the host ids (the policies pass the
    narrowest; 257 hosts is the first that needs 16 bits)."""
    graph = GRAPH_FAMILIES["rmat"](7, seed=9, weights=True)
    rng = np.random.default_rng(hosts)
    owner = rng.integers(0, hosts, size=graph.num_nodes)
    edge_owner = rng.integers(0, hosts, size=graph.num_edges)
    if hosts > 2:
        owner[owner == 1] = 0        # host 1 owns nothing
        edge_owner[edge_owner == 2] = 0  # host 2 computes nothing
    dtypes = [t for t in (np.uint8, np.uint16, np.int64)
              if hosts - 1 <= np.iinfo(t).max]
    assert len(dtypes) == (3 if hosts <= 256 else 2)
    for dtype in dtypes:
        got = build_partition(graph, hosts, owner, edge_owner.astype(dtype),
                              "random")
        assert_same_partition(
            got,
            oracles.build_partition(graph, hosts, owner, edge_owner, "random"),
        )
        for lg in got.locals:
            # the builder hands over its sorted local sources; they must
            # be exactly what ``indptr`` says
            assert_same_array(lg.edge_sources(), np.repeat(
                np.arange(lg.num_local, dtype=np.int64), np.diff(lg.indptr),
            ), f"{dtype.__name__}: host {lg.host} edge sources")


@pytest.mark.parametrize("hosts", [1, 4, 7, 256, 257, 70_000])
def test_policies_build_edge_owner_in_the_host_dtype(hosts, monkeypatch):
    """Both policies hand ``build_partition`` an |E| array one or two
    bytes wide, holding the same host ids as the int64 arithmetic."""
    graph = GRAPH_FAMILIES["rmat"](7, seed=3)
    seen = {}

    def spy(graph, num_hosts, owner, edge_owner, policy):
        seen[policy] = edge_owner
        return SimpleNamespace()

    for module in (edge_cut, vertex_cut):
        monkeypatch.setattr(module, "build_partition", spy)
    edge_cut.blocked_edge_cut(graph, hosts)
    vertex_cut.cartesian_vertex_cut(graph, hosts)
    owner = edge_cut.balanced_node_blocks(graph, hosts)
    src_owner = np.repeat(owner, np.diff(graph.indptr))
    dst_owner = owner[graph.indices]
    cols = vertex_cut.grid_shape(hosts)[1]
    want = {"edge-cut": src_owner,
            "cvc": (src_owner // cols) * cols + (dst_owner % cols)}
    for policy, edge_owner in seen.items():
        assert edge_owner.dtype == host_dtype(hosts), policy
        assert edge_owner.dtype.itemsize == (1 if hosts <= 256 else
                                             2 if hosts <= 65_536 else 4)
        assert np.array_equal(edge_owner, want[policy]), policy


def test_assignments_outside_the_host_range_are_rejected():
    graph = GRAPH_FAMILIES["rmat"](5, seed=1)
    owner = np.zeros(graph.num_nodes, dtype=np.int64)
    edge_owner = np.zeros(graph.num_edges, dtype=np.int64)
    for bad in (-1, 2, 256):  # 256 would wrap to 0 in an 8-bit key
        for name in ("owner", "edge_owner"):
            args = {"owner": owner.copy(), "edge_owner": edge_owner.copy()}
            args[name][3] = bad
            with pytest.raises(ValueError, match=f"{name} out of host range"):
                build_partition(graph, 2, args["owner"], args["edge_owner"],
                                "bad")
