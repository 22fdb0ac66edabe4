"""Residency of what is derived from a frozen graph
(:func:`repro.graph.csr.resident`): symmetrized graphs and partitions
are built once, frozen, shared — and bounded."""

import numpy as np
import pytest

from repro.apps import PageRank
from repro.bench.scenarios import Scenario, build_engine
from repro.engine.bsp import symmetrize
from repro.graph.csr import RESIDENT_BOUND
from repro.graph.generators import rmat
from repro.graph.partition import make_partition, vertex_cut
from repro.serve import Query, ServeConfig, ServeEngine
from repro.serve.programs import MultiSourcePageRank


def frozen_rmat(**kwargs):
    return rmat(6, seed=77, **kwargs).freeze()


@pytest.fixture
def partitions_built(monkeypatch):
    """Counts calls into the cvc partition builder."""
    calls = []
    real = vertex_cut.build_partition

    def counting(graph, *args):
        calls.append(graph)
        return real(graph, *args)

    monkeypatch.setattr(vertex_cut, "build_partition", counting)
    return calls


def test_frozen_graph_derives_once():
    g = frozen_rmat()
    sym = symmetrize(g)
    assert symmetrize(g) is sym and sym.frozen
    part = make_partition(g, 4, "cvc")
    assert make_partition(g, 4, "cvc") is part and part.frozen
    # the policy's spellings name one partition
    assert make_partition(g, 4, "vertex-cut") is part
    assert make_partition(g, 4) is part
    # a different key is a different partition
    assert make_partition(g, 4, "edge-cut") is not part
    assert make_partition(g, 2, "cvc") is not part
    assert make_partition(sym, 4, "cvc") is not part


def test_unfrozen_graph_derives_afresh():
    g = rmat(6, seed=77)
    assert symmetrize(g) is not symmetrize(g)
    assert not symmetrize(g).frozen
    part = make_partition(g, 4, "cvc")
    assert make_partition(g, 4, "cvc") is not part
    assert not part.frozen
    part.local(0).indices[:1] = part.local(0).indices[:1]  # writable
    # freezing the graph afterwards starts a residency of its own
    g.freeze()
    assert make_partition(g, 4, "cvc") is make_partition(g, 4, "cvc")


def test_same_name_and_topology_never_share():
    """Plain and weighted rmat share name, nodes and edges — but not
    ``edge_data``; and an equal graph is not the same graph."""
    plain, weighted = frozen_rmat(), frozen_rmat(weights=True)
    assert plain.name == weighted.name
    assert np.array_equal(plain.indices, weighted.indices)
    assert make_partition(plain, 4).local(0).edge_data is None
    assert make_partition(weighted, 4).local(0).edge_data is not None
    assert symmetrize(plain).edge_data is None
    assert symmetrize(weighted).edge_data is not None
    twin = frozen_rmat()
    assert make_partition(twin, 4) is not make_partition(plain, 4)
    assert make_partition(twin, 4).graph is twin


def test_residency_is_bounded(partitions_built):
    g = frozen_rmat()
    first = make_partition(g, 1)
    for hosts in range(2, RESIDENT_BOUND + 1):
        make_partition(g, hosts)
    assert make_partition(g, 1) is first  # the bound itself fits
    assert len(partitions_built) == RESIDENT_BOUND
    make_partition(g, RESIDENT_BOUND + 1)  # one more: 2 hosts is evicted
    assert len(partitions_built) == RESIDENT_BOUND + 1
    assert make_partition(g, 1) is first   # recently used, so kept
    make_partition(g, 2)
    assert len(partitions_built) == RESIDENT_BOUND + 2


def test_mini_sweep_partitions_once_per_host_count(partitions_built):
    """4 host counts x 3 layers of cc: 12 cells, 4 partitions, 1
    symmetrized graph (counted, not timed)."""
    graphs = []
    for layer in ("lci", "mpi-probe", "mpi-rma"):
        for hosts in (2, 3, 4, 6):
            eng = build_engine(Scenario(
                app="cc", graph="rmat", scale=6, hosts=hosts, layer=layer,
                seed=78,
            ))
            eng.run()
            graphs.append(eng.graph)
    assert len(partitions_built) == 4
    assert all(g is graphs[0] for g in graphs)
    assert all(g is graphs[0] for g in partitions_built)
    assert graphs[0].name.endswith(".sym")


def test_serve_engine_batches_share_the_residency(partitions_built):
    """One partition per form of the graph, however many batches: the
    service keeps no residency of its own."""
    eng = ServeEngine(ServeConfig(scale=6, hosts=4, seed=79, max_batch=2))
    assert len(partitions_built) == 1
    report = eng.drain([
        Query(qid=i, kind=kind, source=i, k=i + 1, arrival=i * 1e-3)
        for i, kind in enumerate(["bfs", "kcore", "sssp", "kcore", "ppr"])
    ])
    assert [r.status for r in report.results] == ["ok"] * 5
    assert len(eng.batch_log) == 5
    assert len(partitions_built) == 2
    assert partitions_built[0] is eng.graph
    assert partitions_built[1] is symmetrize(eng.graph)
    assert eng.partition is make_partition(eng.graph, 4, "cvc")


# ----------------------------------------------------------------------
# What is shared is frozen
# ----------------------------------------------------------------------
def test_resident_structures_reject_writes_at_the_offending_line():
    g = frozen_rmat(weights=True)
    sym = symmetrize(g)
    part = make_partition(sym, 4, "cvc")
    arrays = {"sym.indptr": sym.indptr, "sym.indices": sym.indices,
              "sym.edge_data": sym.edge_data, "owner": part.owner}
    for lg in part.locals:
        for field in ("global_ids", "indptr", "indices", "edge_data",
                      "is_edge_src", "is_edge_dst"):
            arrays[f"local {lg.host} {field}"] = getattr(lg, field)
        arrays[f"local {lg.host} edge_sources"] = lg.edge_sources()
    for kind in ("reduce_pairs", "bcast_pairs"):
        assert getattr(part, kind)
        for key, sp in getattr(part, kind).items():
            arrays[f"{kind} {key} mirror_ids"] = sp.mirror_ids
            arrays[f"{kind} {key} master_ids"] = sp.master_ids
    for what, array in arrays.items():
        assert not array.flags.writeable, what
        if len(array):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]
    # an app that scribbles on its local graph fails where it does so
    # (``ufunc.at`` excepted: NumPy 2.4 does not check the flag there)
    indices = part.local(0).indices
    with pytest.raises(ValueError, match="read-only"):
        indices += 1
    with pytest.raises(ValueError, match="read-only"):
        np.minimum(indices, 0, out=indices)


def test_frozen_partition_runs_every_app_unchanged():
    """Engines only read the partition: answers on the resident (frozen)
    partition equal answers on a private, writable one."""
    for app_name in ("bfs", "cc", "sssp", "pagerank", "kcore"):
        results = []
        for freeze in (True, False):
            graph = rmat(6, seed=80, weights=True)
            if freeze:
                graph.freeze()
            eng = build_engine(
                Scenario(app=app_name, graph="rmat", scale=6, hosts=4,
                         layer="lci", pagerank_rounds=4),
                graph=graph,
            )
            assert eng.partition.frozen is freeze
            metrics = eng.run()
            results.append((metrics.row(), eng.assemble_global()))
        assert results[0][0] == results[1][0]
        assert np.array_equal(results[0][1], results[1][1])


# ----------------------------------------------------------------------
# What a run keeps
# ----------------------------------------------------------------------
def test_a_run_keeps_nothing_per_edge_but_the_edge_lists():
    """A partition keeps per edge only its targets and edge data; a
    PageRank state keeps ``rank`` and ``outdeg`` per master and
    ``contrib``, ``partial`` (and ``active``) per proxy, nothing per edge
    — also after the rounds ran."""
    graph = rmat(8, seed=81, weights=True).freeze()
    sources = [0, 5, 9]
    for app in (PageRank(max_rounds=3), MultiSourcePageRank(sources, 3)):
        eng = build_engine(
            Scenario(app="pagerank", graph="rmat", scale=8, hosts=4,
                     layer="lci"),
            app=app, graph=graph,
        )
        eng.run()
        for lg, state in zip(eng.partition.locals, eng.states):
            assert lg.num_edges not in (lg.num_local, lg.num_masters)
            per_edge = {name for name, value in vars(lg).items()
                        if isinstance(value, np.ndarray)
                        and len(value) == lg.num_edges}
            assert per_edge == {"indices", "edge_data"}, lg
            rows = {"rank": lg.num_masters, "outdeg": lg.num_masters,
                    "contrib": lg.num_local, "partial": lg.num_local}
            if isinstance(app, PageRank):
                rows["active"] = lg.num_local
            else:
                rows["teleport"] = lg.num_masters
            arrays = {key: len(value) for key, value in state.items()
                      if isinstance(value, np.ndarray)}
            assert arrays == rows
