"""Synthetic graph generators for the paper's three input families.

Table I of the paper:

============  =========  =========  ======  =========  ========
property      clueweb12  kron30     rmat28
============  =========  =========  ======
\\|V\\|          978M       1073M      268M
\\|E\\|          42.57B     10.79B     4.29B
\\|E\\|/\\|V\\|     44         10         16
max D_out     7,447      3.2M       4M
max D_in      75M        3.2M       0.3M
============  =========  =========  ======

Those scales are far beyond a single Python process, so the generators
are *scale-parameterized* analogues preserving each family's structure:

* :func:`rmat` — classic R-MAT recursive quadrant sampling with the
  Graph500 (A,B,C,D) = (0.57, 0.19, 0.19, 0.05) defaults; heavy-tailed
  out- and in-degrees with max-out >> typical.
* :func:`kron` — Kronecker/Graph500 generator; we use the same recursive
  machinery with a symmetrizing pass (kron30 in the paper has equal max
  in/out degree because it is symmetrized) and edge factor 10.
* :func:`webcrawl` — a clueweb-like bowtie digraph: moderate, bounded
  out-degrees (a crawler caps links per page) but an extremely skewed
  in-degree distribution (hubs), generated by preferential attachment of
  in-links; max in-degree is orders of magnitude above max out-degree,
  matching clueweb12's 75M vs 7.4K asymmetry in shape.

All generators are deterministic given (scale, seed).
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Callable, Dict, Optional

import numpy as np

from repro.graph.csr import CsrGraph

__all__ = ["rmat", "kron", "webcrawl", "GRAPH_FAMILIES", "make_graph"]


#: Below this many edges one slice samples them all, so small graphs
#: start no thread.
_THREADED_EDGES = 1 << 16


def _usable_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _deposit(ids: np.ndarray, bit: int, flags: np.ndarray) -> None:
    """``ids |= flags << bit`` for 0/1 ``uint8`` flags (scratch): the
    flags are weighted in place and or-ed into the one byte of each id
    that holds ``bit``, a strided ``uint8`` column of the int64 array."""
    byte = bit // 8 if sys.byteorder == "little" else 7 - bit // 8
    column = ids.view(np.uint8)[byte::8]
    flags *= 1 << (bit % 8)
    column |= flags


def _sample_slice(scale, skip, thresholds, draws, src, dst, r, above,
                  parity) -> None:
    """Set every bit of one slice's ids from its own stream ``draws``.

    Per bit the slice draws its doubles, then skips the ``skip`` doubles
    the other slices draw for that bit.  The quadrant is read off three
    compares of the same draw: the source bit is ``r >= a+b``, the
    target bit ``(r >= a) ^ (r >= a+b) ^ (r >= a+b+c)``.  Every array is
    the caller's, so a worker thread allocates nothing.
    """
    a, ab, abc = thresholds
    bit_generator = draws.bit_generator
    above_set, parity_set = above.view(bool), parity.view(bool)
    for bit in range(scale):
        draws.random(out=r)
        bit_generator.advance(skip)
        np.greater_equal(r, ab, out=above_set)
        np.greater_equal(r, a, out=parity_set)
        parity ^= above
        _deposit(src, bit, above)
        np.greater_equal(r, abc, out=above_set)
        parity ^= above
        _deposit(dst, bit, parity)


def _rmat_edges(
    scale: int,
    num_edges: int,
    rng: np.random.Generator,
    a: float,
    b: float,
    c: float,
) -> tuple:
    """Sample ``num_edges`` (src, dst) pairs by recursive quadrant choice.

    Bit ``k`` of edge ``i`` reads double ``k * num_edges + i`` of
    ``rng``'s stream, which is left past all ``scale * num_edges`` of
    them.  The edges are cut into one slice per usable core, each
    sampled on its own thread from a copy of the stream advanced to the
    slice's offset; as every double takes exactly one 64-bit output, the
    ids do not depend on how many slices there are (docs/MODEL.md §15.6).
    """
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    r = np.empty(num_edges, dtype=np.float64)
    above = np.empty(num_edges, dtype=np.uint8)
    parity = np.empty(num_edges, dtype=np.uint8)
    slices = _usable_cores() if num_edges >= _THREADED_EDGES else 1
    cuts = [num_edges * k // slices for k in range(slices + 1)]
    bit_generator = rng.bit_generator
    state = bit_generator.state
    work = []
    for lo, hi in zip(cuts, cuts[1:]):
        stream = type(bit_generator)()
        stream.state = state
        stream.advance(lo)
        part = slice(lo, hi)
        work.append((scale, num_edges - (hi - lo), (a, a + b, a + b + c),
                     np.random.Generator(stream), src[part], dst[part],
                     r[part], above[part], parity[part]))
    finished = []

    def sample(args):
        _sample_slice(*args)
        finished.append(args)

    # ``threading``, not ``concurrent.futures``: importing that costs every
    # process 1 MiB of peak RSS.
    threads = [threading.Thread(target=sample, args=(args,))
               for args in work[1:]]
    for thread in threads:
        thread.start()
    _sample_slice(*work[0])
    for thread in threads:
        thread.join()
    if len(finished) != len(threads):
        raise RuntimeError("an R-MAT sampling thread failed (traceback above)")
    bit_generator.advance(scale * num_edges)
    # ``advance`` drops a buffered 32-bit half, which doubles never touch
    bit_generator.state = {**bit_generator.state,
                           "has_uint32": state["has_uint32"],
                           "uinteger": state["uinteger"]}
    return src, dst


def rmat(
    scale: int,
    edge_factor: int = 16,
    seed: int = 1,
    a: float = 0.55,
    b: float = 0.30,
    c: float = 0.10,
    weights: bool = False,
    name: Optional[str] = None,
) -> CsrGraph:
    """R-MAT scale-free digraph: 2**scale nodes, ~edge_factor per node.

    The paper's rmat28 uses edge factor 16 (4.29B / 268M) and shows a
    13x asymmetry between max out-degree (4M) and max in-degree (0.3M),
    so its quadrant probabilities are asymmetric (b > c); the defaults
    here reproduce that signature — out-hubs concentrate with
    (a+b)^scale, in-hubs with the much smaller (a+c)^scale.
    """
    n = 1 << scale
    m = n * edge_factor
    rng = np.random.default_rng(seed)
    src, dst = _rmat_edges(scale, m, rng, a, b, c)
    edge_data = None
    if weights:
        edge_data = rng.integers(1, 64, size=m)
    g = CsrGraph.from_edges(
        src, dst, n, edge_data=edge_data, dedup=True,
        name=name or f"rmat{scale}",
    )
    return g


def kron(
    scale: int,
    edge_factor: int = 10,
    seed: int = 2,
    weights: bool = False,
    name: Optional[str] = None,
) -> CsrGraph:
    """Graph500-style Kronecker graph, symmetrized.

    kron30 in the paper has edge factor ~10 and (being symmetric) equal
    max in/out degree; we symmetrize by adding each sampled edge in both
    directions before deduplication.
    """
    n = 1 << scale
    m = n * edge_factor // 2  # each sample contributes two directed edges
    rng = np.random.default_rng(seed)
    # Graph500's symmetric (A,B,C) = (0.57, 0.19, 0.19).
    src, dst = _rmat_edges(scale, m, rng, a=0.57, b=0.19, c=0.19)
    all_src = np.concatenate([src, dst])
    all_dst = np.concatenate([dst, src])
    edge_data = None
    if weights:
        w = rng.integers(1, 64, size=m)
        edge_data = np.concatenate([w, w])
    return CsrGraph.from_edges(
        all_src, all_dst, n, edge_data=edge_data, dedup=True,
        name=name or f"kron{scale}",
    )


def webcrawl(
    scale: int,
    edge_factor: int = 44,
    seed: int = 3,
    max_out: int = 64,
    hub_exponent: float = 1.3,
    weights: bool = False,
    name: Optional[str] = None,
) -> CsrGraph:
    """A clueweb12-like web-crawl digraph.

    Pages have bounded out-degree (links per page: Zipf-distributed,
    capped at ``max_out``) while in-degree is extremely skewed: link
    targets are drawn from a Zipf distribution over pages, so a handful
    of hub pages collect a large constant fraction of all in-links —
    reproducing clueweb12's max-in/max-out ratio of ~10^4 in shape.
    """
    n = 1 << scale
    rng = np.random.default_rng(seed)
    # Out-degrees: Zipf capped — most pages have few links, none absurd.
    out_deg = np.minimum(rng.zipf(1.7, size=n), max_out)
    target_edges = n * edge_factor
    total = int(out_deg.sum())
    if total < target_edges:
        # top up uniformly to reach the family's E/V ratio
        deficit = target_edges - total
        bump = rng.integers(0, n, size=deficit)
        out_deg += np.bincount(bump, minlength=n)
    src = np.repeat(np.arange(n, dtype=np.int64), out_deg)
    m = len(src)
    # In-links: Zipf-ranked popularity over a random page permutation.
    ranks = rng.zipf(hub_exponent, size=m)
    ranks = np.minimum(ranks - 1, n - 1)
    perm = rng.permutation(n)
    dst = perm[ranks]
    edge_data = None
    if weights:
        edge_data = rng.integers(1, 64, size=m)
    return CsrGraph.from_edges(
        src, dst, n, edge_data=edge_data, dedup=True,
        name=name or f"webcrawl{scale}",
    )


#: The three input families of Table I, keyed by the paper's names.
GRAPH_FAMILIES: Dict[str, Callable[..., CsrGraph]] = {
    "rmat": rmat,
    "kron": kron,
    "webcrawl": webcrawl,
}

#: Paper input -> (family, canonical edge factor).
PAPER_INPUTS = {
    "rmat28": ("rmat", 16),
    "kron30": ("kron", 10),
    "clueweb12": ("webcrawl", 44),
}


def make_graph(family: str, scale: int, seed: int = 1, weights: bool = False) -> CsrGraph:
    """Uniform entry point used by the benchmark harness."""
    if family in PAPER_INPUTS:
        fam, _ = PAPER_INPUTS[family]
        return GRAPH_FAMILIES[fam](scale, seed=seed, weights=weights)
    if family not in GRAPH_FAMILIES:
        raise ValueError(
            f"unknown family {family!r}; pick from {sorted(GRAPH_FAMILIES)}"
        )
    return GRAPH_FAMILIES[family](scale, seed=seed, weights=weights)
