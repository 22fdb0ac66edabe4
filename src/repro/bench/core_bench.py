"""The simulator-core benchmark behind ``repro bench-core`` / BENCH_core.json.

A curated set of canonical scenarios run under the host-side profiler
(:mod:`repro.obs.profile`), folded into one JSON document committed at
the repo root.  Each scenario contributes one **deterministic** ``sim``
block: simulated seconds, rounds, message and update volumes, event
counts, the full work-counter dictionary, its fingerprint, and the
communication-observatory totals (wire/blob volume + comm fingerprint,
from an extra run that also pins the observatory's bit-identity
contract).  Pure functions of the scenario, so CI regenerates them and
fails on drift (exactly the ``BENCH_serve.json`` contract; encoded by
:func:`repro.obs.atomic.canonical_json`, compared by
:func:`repro.bench.serve_bench.compare_bench_docs`).  Any perf refactor
that changes these changed *behaviour*, not just speed — an app-kernel
rewrite included, since the labels a relax kernel reports as lowered
decide what the next blob carries.

The ``sim.comm`` blocks are the traffic gate: a change that moves one
byte or one packet between any two hosts, on any layer, changes a
``sim.comm`` fingerprint and fails ``repro bench-core --check``.

Host time is not this module's business: ``benchmarks/perf`` measures
it (and the profiler's own overhead, ``obs.trace_overhead_frac``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.bench.scenarios import Scenario, build_engine
from repro.obs.commstats import CommStatsContext
from repro.obs.profile import ProfileContext

__all__ = [
    "BENCH_CORE_FORMAT",
    "CANONICAL_SCENARIOS",
    "core_benchmark",
]

BENCH_CORE_FORMAT = "repro-bench-core/v1"

#: The canonical scenarios: every comm layer (MPI-RMA below and above
#: 16 hosts), both engines (Abelian cvc + Gemini edge-cut), traversal,
#: label-propagation and fixed-round apps — small enough for a CI lane,
#: hot enough to exercise the event loop, matching walks, pool, and
#: serialization paths.
CANONICAL_SCENARIOS: Tuple[Scenario, ...] = (
    Scenario(app="bfs", graph="rmat", scale=10, hosts=8, layer="lci"),
    Scenario(app="pagerank", graph="kron", scale=10, hosts=8,
             layer="mpi-probe", pagerank_rounds=6),
    Scenario(app="sssp", graph="rmat", scale=9, hosts=4, layer="mpi-rma"),
    Scenario(app="bfs", graph="rmat", scale=10, hosts=8, layer="mpi-probe",
             system="gemini"),
    # The scale the ROADMAP's sweeps need: a million-node graph across
    # 128 hosts, feasible as a canonical scenario only since the
    # fast-path/slotted-record core (PR 9) — single-digit seconds
    # per engine run (graph generation is cached and untimed).
    Scenario(app="bfs", graph="rmat", scale=20, hosts=128, layer="lci"),
    # MPI-RMA at 32 hosts: the paper's Fig. 3 RMA cells from 16 hosts up
    # sit where no other scenario here reaches.  cc also pins the
    # symmetrized input and the min-relax kernel on it.
    Scenario(app="cc", graph="rmat", scale=12, hosts=32, layer="mpi-rma"),
)


def core_benchmark(
    scenarios: Optional[Sequence[Scenario]] = None, repeats: int = 2
) -> dict:
    """Build the benchmark document.

    Every repeat runs under a fresh :class:`ProfileContext`; the
    deterministic block comes from the first run and the remaining
    repeats must reproduce its counter fingerprint exactly (a failed
    reproduction is a determinism bug, reported loudly).
    """
    if scenarios is None:
        scenarios = CANONICAL_SCENARIOS
    rows: List[dict] = []
    for sc in scenarios:
        first_ctx = None
        first_metrics = None
        for _ in range(max(1, repeats)):
            ctx = ProfileContext()
            metrics = build_engine(sc, profile=ctx).run()
            if first_ctx is None:
                first_ctx, first_metrics = ctx, metrics
            elif ctx.fingerprint() != first_ctx.fingerprint():
                raise AssertionError(
                    f"{sc.label()}: counter fingerprint not reproducible "
                    f"({ctx.fingerprint()} != {first_ctx.fingerprint()})"
                )
        counters = first_ctx.counters_dict()
        # One extra run under the comm observatory pins both the traffic
        # fingerprint and the bit-identity contract — a commstats run
        # must reproduce the plain run's RunMetrics exactly.
        comm_ctx = CommStatsContext()
        comm_metrics = build_engine(sc, commstats=comm_ctx).run()
        if comm_metrics.row() != first_metrics.row():
            raise AssertionError(
                f"{sc.label()}: RunMetrics changed under commstats — "
                "the observatory must be a pure observer"
            )
        comm_doc = comm_ctx.comm_doc()
        comm_totals = comm_doc["totals"]
        rows.append({
            "label": sc.label(),
            "sim": {
                "sim_seconds": round(first_metrics.total_seconds, 9),
                "rounds": first_metrics.rounds,
                "messages": first_metrics.blobs_sent,
                "payload_bytes": first_metrics.payload_bytes_sent,
                "updates": first_metrics.updates_shipped,
                "events_fired": counters.get("sim.events_fired", 0),
                "events_scheduled": counters.get("sim.events_scheduled", 0),
                "counters": counters,
                "fingerprint": first_ctx.fingerprint(),
                "comm": {
                    "wire_msgs": comm_totals["wire_msgs"],
                    "wire_bytes": comm_totals["wire_bytes"],
                    "blob_msgs": comm_totals["blob_msgs"],
                    "blob_bytes": comm_totals["blob_bytes"],
                    "fingerprint": comm_doc["fingerprint"],
                },
            },
        })
    return {"format": BENCH_CORE_FORMAT, "scenarios": rows}
