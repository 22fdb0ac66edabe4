"""The serve benchmark behind ``repro bench-serve`` and BENCH_serve.json.

One deterministic heavy-traffic tape served on a small simulated
cluster, folded into a single JSON document committed at the repo root
(``BENCH_serve.json``).
Because the whole pipeline is simulated and seeded, the document is
reproducible bit for bit: CI regenerates it and fails on drift, which
turns service throughput/latency regressions into diffable facts.

Fields the acceptance gate reads: ``serve.throughput.queries_per_sec``,
``serve.throughput.messages_per_sec``, ``serve.latency.p50_us`` /
``p95_us`` / ``p99_us``.
"""

from __future__ import annotations

import json
from typing import List, Optional

__all__ = [
    "BENCH_FORMAT",
    "serve_benchmark",
    "compare_bench_docs",
]

BENCH_FORMAT = "repro-bench-serve/v1"

#: The committed benchmark's shape: small enough for a CI smoke lane,
#: big enough that batching, caching, and backpressure all engage.
DEFAULT_TAPE_QUERIES = 48
DEFAULT_SCALE = 9
DEFAULT_HOSTS = 4
#: Heavy traffic: mean inter-arrival well under one batch execution.
DEFAULT_MEAN_GAP = 1e-05


def serve_benchmark(
    scale: int = DEFAULT_SCALE,
    hosts: int = DEFAULT_HOSTS,
    layer: str = "lci",
    num_queries: int = DEFAULT_TAPE_QUERIES,
    tape_seed: int = 7,
) -> dict:
    """Build the full benchmark document (deterministic)."""
    from repro.serve import ServeConfig, ServeEngine, TapeSpec

    spec = TapeSpec(
        seed=tape_seed, num_queries=num_queries, scale=scale,
        mean_gap=DEFAULT_MEAN_GAP,
    )
    engine = ServeEngine(ServeConfig(
        scale=scale, hosts=hosts, layer=layer, max_batch=8, ppr_rounds=6,
    ))
    report = engine.run_tape(spec)
    serve_doc = {
        k: v for k, v in report.as_dict().items() if k != "results"
    }
    return {
        "format": BENCH_FORMAT,
        "tape": spec.as_dict(),
        "serve": serve_doc,
    }


def compare_bench_docs(fresh: dict, committed: dict,
                       rel_tol: float = 1e-9,
                       path: str = "") -> List[str]:
    """Mismatches between a regenerated doc and the committed one.

    Exact on structure, strings, ints and bools; floats compare to
    ``rel_tol`` so a NumPy point release can't fail CI on last-bit
    noise.  Empty list = documents agree.
    """
    diffs: List[str] = []
    if isinstance(fresh, dict) and isinstance(committed, dict):
        for key in sorted(set(fresh) | set(committed)):
            here = f"{path}.{key}" if path else str(key)
            if key not in fresh:
                diffs.append(f"{here}: missing from regenerated doc")
            elif key not in committed:
                diffs.append(f"{here}: missing from committed doc")
            else:
                diffs.extend(compare_bench_docs(
                    fresh[key], committed[key], rel_tol, here
                ))
        return diffs
    if isinstance(fresh, list) and isinstance(committed, list):
        if len(fresh) != len(committed):
            return [f"{path}: length {len(fresh)} != {len(committed)}"]
        for i, (a, b) in enumerate(zip(fresh, committed)):
            diffs.extend(compare_bench_docs(a, b, rel_tol, f"{path}[{i}]"))
        return diffs
    if isinstance(fresh, float) or isinstance(committed, float):
        a, b = float(fresh), float(committed)
        scale = max(abs(a), abs(b), 1e-30)
        if abs(a - b) / scale > rel_tol:
            return [f"{path}: {a!r} != {b!r}"]
        return []
    if fresh != committed:
        return [f"{path}: {fresh!r} != {committed!r}"]
    return []


def check_against_file(doc: dict, path: str) -> Optional[List[str]]:
    """Compare ``doc`` with the JSON at ``path``; None if unreadable."""
    try:
        with open(path) as fh:
            committed = json.load(fh)
    except (OSError, ValueError):
        return None
    return compare_bench_docs(doc, committed)
