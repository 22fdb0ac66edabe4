"""Setup keeps about one copy at a time.

Freed heap is not handed back to the OS, so a process's peak RSS is the
high-water mark of whatever setup held at once (docs/MODEL.md §15.5).
These tests bound each setup builder's *transient* memory — tracemalloc's
peak minus what is still allocated when it returns — by a multiple of the
bytes of what it built, on weighted rmat14 (16 k nodes, 262 k generated
edges).  Each multiple is 1.35-1.7x what the builders measure (more for
the 128-host partitions, whose transient is a few hundred KiB), and each
is below what the builders measured when they stacked five to nine
|E|-sized temporaries.  The generator's row is the whole ``rmat`` call
(sampling, weights, ``from_edges``) over the graph it returns; its
high-water mark is ``from_edges`` with both id columns still alive, which
the sampler's own buffers (two id columns, the draws, two byte flags)
stay under:

========================  ========  ==========  ==========
builder                   measured  bound       stacked
========================  ========  ==========  ==========
rmat(14, weights=True)    2.41      3.3         4.72
from_edges(dedup=True)    0.68      1.0         2.99
symmetrize                1.18      1.6         4.62
cvc, 4 hosts              0.44      0.7         1.76
edge-cut, 4 hosts         0.29      0.5         0.99
cvc, 128 hosts            0.07      0.2         1.03
edge-cut, 128 hosts       0.05      0.2         0.46
========================  ========  ==========  ==========
"""

import gc
import tracemalloc

import pytest

from repro.engine.bsp import symmetrize
from repro.graph.csr import CsrGraph
from repro.graph.generators import rmat
from repro.graph.partition import make_partition


def transient(build):
    """``(result, peak - retained)`` of ``build()`` under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        result = build()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - retained


def nbytes(*arrays):
    return sum(a.nbytes for a in arrays if a is not None)


def graph_bytes(graph):
    return nbytes(graph.indptr, graph.indices, graph.edge_data)


def partition_bytes(part):
    arrays = [part.owner]
    for lg in part.locals:
        arrays += [lg.global_ids, lg.indptr, lg.indices, lg.edge_data,
                   lg.is_edge_src, lg.is_edge_dst, lg.edge_sources()]
    for pairs in (part.reduce_pairs, part.bcast_pairs):
        for sp in pairs.values():
            arrays += [sp.mirror_ids, sp.master_ids]
    return nbytes(*arrays)


@pytest.fixture(scope="module")
def generated(request):
    """Weighted rmat14 (unfrozen, so nothing is kept resident) and the
    arguments its generator passed to ``from_edges``."""
    calls = []
    real = CsrGraph.from_edges.__func__

    def spy(cls, *args, **kwargs):
        calls.append((args, kwargs))
        return real(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CsrGraph, "from_edges", classmethod(spy))
        graph = rmat(14, seed=1, weights=True)
    (args, kwargs), = calls
    assert kwargs["dedup"] and kwargs["edge_data"] is not None
    return graph, args, kwargs


def test_rmat_generate_transient():
    graph, extra = transient(lambda: rmat(14, seed=1, weights=True))
    assert extra <= 3.3 * graph_bytes(graph), extra / graph_bytes(graph)


def test_from_edges_dedup_transient(generated):
    _, args, kwargs = generated
    graph, extra = transient(lambda: CsrGraph.from_edges(*args, **kwargs))
    assert extra <= 1.0 * graph_bytes(graph), extra / graph_bytes(graph)


def test_symmetrize_transient(generated):
    graph = generated[0]
    sym, extra = transient(lambda: symmetrize(graph))
    assert extra <= 1.6 * graph_bytes(sym), extra / graph_bytes(sym)


@pytest.mark.parametrize("policy, hosts, bound", [
    ("cvc", 4, 0.7), ("edge-cut", 4, 0.5),
    ("cvc", 128, 0.2), ("edge-cut", 128, 0.2),
])
def test_partition_transient(generated, policy, hosts, bound):
    graph = generated[0]
    part, extra = transient(lambda: make_partition(graph, hosts, policy))
    assert extra <= bound * partition_bytes(part), \
        extra / partition_bytes(part)
