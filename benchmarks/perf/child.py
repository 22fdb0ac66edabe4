"""One run of one workload (or of the layer probes) in a fresh process.

Started by run.py, never by hand: prints exactly one JSON document on
its last stdout line.  ``--spawned-at`` is the parent's ``time.time()``
just before the fork, so ``total_s`` covers interpreter start-up and
imports the way a ``repro run`` user pays them.
"""

import argparse
import json
import resource
import statistics
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "quick"), required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args()

    if args.workload == "probes":
        from probes import run_probes

        print(json.dumps({"probes": run_probes(quick=args.size == "quick")}))
        return 0

    import workloads as wl

    cfg = wl.SIZES[args.size][args.workload]
    run = wl.Run(args.workload, cfg, args.seed, bool(args.traced))
    wl.WORKLOADS[args.workload](run)

    # -- results handed back: every clock stops here --------------------
    run.sample_speed(force=True)
    total_s = time.time() - args.spawned_at - run.speed_spent
    cpu_s = time.process_time()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdict = wl.check(run, corrupt=args.corrupt)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "sizes": cfg,
        "traced": bool(args.traced),
        "e2e": {
            "setup_s": run.rec.bucket_seconds("setup"),
            "run_s": run.rec.bucket_seconds("run"),
            "total_s": total_s,
            "peak_rss_mb": peak_rss_mb,
            **wl.sim_metrics(run),
        },
        "cpu_over_wall": cpu_s / (total_s + run.speed_spent),
        "speed": {
            "interp_ms": 1e3 * statistics.median(s[0] for s in run.speed),
            "numeric_ms": 1e3 * statistics.median(s[1] for s in run.speed),
            "samples": len(run.speed),
        },
        "fingerprint": wl.fingerprint(run),
        "cells": wl.cell_rows(run),
        "serve": wl.serve_summary(run),
        "graph": {
            "edges_generated": run.edges_generated,
            "edges_partitioned": run.edges_partitioned,
            "replication": run.replication,
        },
        **verdict,
    }
    if run.traced:
        doc["spans"] = run.rec.spans
        doc["profile"] = wl.profile_doc(run)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
