#!/usr/bin/env python
"""Where does the *simulator's own* time go?  Host-side profile study.

Everything else in ``examples/`` measures simulated seconds — what the
modelled hardware would do.  This study measures the other axis: the
wall-clock cost of running the simulator itself, using the host-side
region profiler behind ``repro profile`` and ``repro bench-core``.

Two scenarios are profiled, one per engine:

* Abelian (cvc partitioning) BFS over LCI — the progress-engine path:
  packet-pool traffic, server harvesting, eager completions;
* Gemini (edge-cut) BFS over MPI-Probe — the two-sided path: posted /
  unexpected matching walks on every arrival.

For each run the study prints the top-10 regions by *self* wall-clock
time (where the Python interpreter actually spends its cycles), then a
per-layer breakdown of the deterministic work counters — the counts
that must reproduce bit-for-bit on every machine, fingerprinted in
``BENCH_core.json``.  It closes by re-running one scenario unprofiled
to confirm the contract the profiler is built on: instrumentation
never changes a single simulated metric.

Run:  python examples/profile_study.py
"""

from repro.bench.scenarios import Scenario, build_engine
from repro.obs import ProfileContext

SCENARIOS = [
    Scenario(app="bfs", graph="rmat", scale=10, hosts=8, layer="lci"),
    Scenario(app="bfs", graph="rmat", scale=10, hosts=8, layer="mpi-probe",
             system="gemini"),
]


def counters_by_layer(ctx):
    """Group the flat work counts by their dotted layer prefix."""
    groups = {}
    for name, value in ctx.counters_dict().items():
        prefix = name.split(".", 1)[0]
        groups.setdefault(prefix, []).append((name, value))
    return groups


def main():
    for sc in SCENARIOS:
        ctx = ProfileContext()
        metrics = build_engine(sc, profile=ctx).run()
        print(f"== {sc.label()} "
              f"({metrics.rounds} rounds, {metrics.blobs_sent} blobs) ==")
        print()
        print(ctx.format_top(10))
        print()
        print("work counters by layer:")
        for prefix, items in sorted(counters_by_layer(ctx).items()):
            print(f"  [{prefix}]")
            for name, value in items:
                print(f"    {name:<38} {value:>12}")
        print(f"  fingerprint: {ctx.fingerprint()}")
        print()

    # The profiler's contract: observation only.  Same scenario without
    # the context must report the identical metrics row.
    sc = SCENARIOS[0]
    plain = build_engine(sc).run()
    traced = build_engine(sc, profile=ProfileContext()).run()
    assert plain.row() == traced.row(), "profiler perturbed the simulation"
    print(f"bit-identical check: profiled and plain runs of {sc.label()} "
          "report the same RunMetrics row")


if __name__ == "__main__":
    main()
