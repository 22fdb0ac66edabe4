"""Command-line interface: run experiments without writing code.

::

    python -m repro run --app bfs --graph rmat --scale 12 --hosts 16 \\
        --layer lci [--obs-chrome trace.json]
    python -m repro sweep --app pagerank --graph kron --hosts 4 16 64
    python -m repro chaos --plan flaky-link --layer lci [--list-plans]
    python -m repro micro [--sizes 8 512 65536] [--threads 1 8 64]
    python -m repro inputs --scale 14
    python -m repro calibrate
    python -m repro lint [--json report.json] [--sarif r.sarif] [paths...]
    python -m repro run ... --obs obs.json [--obs-chrome t.json] \\
        [--obs-prom m.prom]
    python -m repro explain obs.json [--check] [--top 5] [--per-round]
    python -m repro serve --scale 10 --hosts 4 --layer lci \\
        [--tape tape.json | --tape-queries 48 --tape-seed 7] \\
        [--fault-plan drop-5pct] [--report report.json]
    python -m repro bench-serve [--out BENCH_serve.json] \\
        [--check BENCH_serve.json]
    python -m repro profile --app bfs --scale 10 --hosts 8 --layer lci \\
        [--top 15] [--json prof.json] [--collapsed prof.folded]
    python -m repro bench-core [--out BENCH_core.json] \\
        [--check BENCH_core.json]
    python -m repro run ... --comm comm.json
    python -m repro commstats --app bfs --scale 10 --hosts 8 --layer lci \\
        [--json c.json] [--csv c.csv] [--heatmap h.txt] [--prom c.prom]

Each subcommand prints the same tables the benchmark harness produces.
``bench-core --check BENCH_core.json`` is the traffic gate: its
``sim.comm`` blocks pin every canonical scenario's comm fingerprint.
The scenario flags (``--graph`` ... ``--seed``, ``--app``, ``--mpi`` /
``--pagerank-rounds``) are declared once and shared by the verbs that
take them; counts are range-checked at parse time.

Exit codes: 0 success; 1 generic failure / lint findings; 2 usage
errors (bad flags, unknown fault plans, unreadable tapes); 3
(:data:`repro.sanitize.SANITIZER_EXIT_CODE`) when a per-event protocol
check or an engine run's end-of-run conservation audit raised
:class:`~repro.sanitize.SanitizerError`, from any verb.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.micro import MICRO_INTERFACES, message_rate, pingpong_latency
from repro.bench.report import format_seconds, format_table
from repro.bench.scenarios import Scenario, build_engine, run_scenario
from repro.comm.layer_base import LAYER_NAMES
from repro.sanitize.runtime import SANITIZER_EXIT_CODE, SanitizerError

__all__ = ["main", "build_parser"]


APPS = ["bfs", "cc", "sssp", "pagerank", "kcore"]
GRAPHS = ["rmat", "kron", "webcrawl"]
SYSTEMS = ["abelian", "gemini"]


def _at_least(low, kind=int):
    """An argparse ``type``: a ``kind`` value no smaller than ``low``, so
    a bad count ends in one ``error:`` line and exit 2."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}") from None
        if not value >= low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return value
    return parse


COUNT = _at_least(1)
SCALE = _at_least(0)


# The scenario flags, declared once.  Each verb gets fresh parent parsers:
# argparse hands a parent's action objects to every child, so one verb's
# ``set_defaults(scale=...)`` would otherwise move every other verb's.
def _cluster_flags() -> argparse.ArgumentParser:
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--graph", default="rmat", choices=GRAPHS)
    flags.add_argument("--scale", type=SCALE)
    flags.add_argument("--hosts", type=COUNT)
    flags.add_argument("--layer", default="lci", choices=list(LAYER_NAMES))
    flags.add_argument("--system", default="abelian", choices=SYSTEMS)
    flags.add_argument("--machine", default="stampede2",
                       choices=["stampede2", "stampede1"])
    flags.add_argument("--seed", type=int, default=1)
    return flags


def _app_flag() -> argparse.ArgumentParser:
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--app", default="bfs", choices=APPS)
    return flags


def _mpi_flags() -> argparse.ArgumentParser:
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--mpi", default="intelmpi", dest="mpi_impl",
                       choices=["intelmpi", "mvapich2", "openmpi"])
    flags.add_argument("--pagerank-rounds", type=COUNT, default=20)
    return flags


def _bench_flags() -> argparse.ArgumentParser:
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--out", metavar="PATH",
                       help="write the benchmark document here")
    flags.add_argument("--check", metavar="PATH",
                       help="compare against a committed document; exit 1 "
                            "on drift (read before the benchmark runs)")
    return flags


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="LCI-reproduction experiment runner (simulated cluster)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run one scenario",
        parents=[_cluster_flags(), _app_flag(), _mpi_flags()],
    )
    run.set_defaults(scale=12, hosts=16)
    run.add_argument("--obs", nargs="?", const="obs-timeline.json",
                     metavar="PATH",
                     help="trace the message lifecycle and write the "
                          "observability timeline JSON (input of "
                          "`repro explain`)")
    run.add_argument("--obs-chrome", metavar="PATH",
                     help="also export the obs timeline as a Chrome "
                          "trace: message flow arrows, round spans, "
                          "fault instants (implies --obs)")
    run.add_argument("--obs-prom", metavar="PATH",
                     help="also export aggregate obs metrics in "
                          "Prometheus text format (implies --obs)")
    run.add_argument("--comm", nargs="?", const="comm.json",
                     metavar="PATH", dest="comm_path",
                     help="collect per-(src,dst,kind/phase) traffic "
                          "matrices and write the comm-doc JSON; with "
                          "--obs-prom the repro_comm_* families are "
                          "merged into the Prometheus output")

    chaos = sub.add_parser(
        "chaos", help="run one scenario under a named fault plan",
        parents=[_cluster_flags(), _app_flag()],
    )
    chaos.set_defaults(scale=10, hosts=4)
    chaos.add_argument("--plan", default="flaky-link",
                       help="fault plan name (see --list-plans)")
    chaos.add_argument("--fault-seed", type=int, default=None,
                       help="seed of the fault draw streams")
    chaos.add_argument("--list-plans", action="store_true",
                       help="list the named fault plans and exit")
    chaos.add_argument("--obs", nargs="?", const="obs-timeline.json",
                       metavar="PATH",
                       help="trace the faulted run's message lifecycle "
                            "and write the observability timeline JSON")
    chaos.add_argument("--obs-chrome", metavar="PATH",
                       help="also export the faulted run's timeline as a "
                            "Chrome trace with fault instants (implies "
                            "--obs)")

    explain = sub.add_parser(
        "explain",
        help="critical-path report from an observability timeline",
    )
    explain.add_argument("timeline", metavar="TIMELINE",
                         help="timeline JSON written by `repro run --obs`")
    explain.add_argument("--check", action="store_true",
                         help="validate the timeline document first "
                              "(exit 1 on format errors)")
    explain.add_argument("--top", type=int, default=5,
                         help="how many slowest messages to break down")
    explain.add_argument("--per-round", action="store_true",
                         help="include the per-round dominant-stage table")

    sweep = sub.add_parser("sweep", help="host-count sweep across layers",
                           parents=[_app_flag()])
    sweep.set_defaults(app="pagerank")
    sweep.add_argument("--graph", default="kron", choices=GRAPHS)
    sweep.add_argument("--scale", type=SCALE, default=12)
    sweep.add_argument("--hosts", type=COUNT, nargs="+", default=[4, 16, 64])
    sweep.add_argument("--system", default="abelian", choices=SYSTEMS)
    sweep.add_argument("--pagerank-rounds", type=COUNT, default=10)

    micro = sub.add_parser("micro", help="Fig. 1 microbenchmarks")
    micro.add_argument("--sizes", type=_at_least(0), nargs="+",
                       default=[8, 512, 4096, 65536])
    micro.add_argument("--threads", type=COUNT, nargs="+",
                       default=[1, 4, 16, 64])

    inputs = sub.add_parser("inputs", help="Table I input properties")
    inputs.add_argument("--scale", type=SCALE, default=14)

    sub.add_parser("calibrate", help="model-calibration report")

    serve = sub.add_parser(
        "serve",
        help="long-lived query service: serve a traffic tape against a "
             "resident graph",
        parents=[_cluster_flags()],
    )
    serve.set_defaults(scale=10, hosts=4)
    serve.add_argument("--max-batch", type=COUNT, default=8,
                       help="max queries fused into one batched execution")
    serve.add_argument("--ppr-rounds", type=COUNT, default=10)
    serve.add_argument("--tape", metavar="PATH",
                       help="replay a saved tape JSON instead of "
                            "generating one")
    serve.add_argument("--tape-queries", type=COUNT, default=48,
                       help="generated tape length")
    serve.add_argument("--tape-seed", type=int, default=7)
    serve.add_argument("--tape-gap", type=_at_least(0, float), default=2e-4,
                       help="mean inter-arrival gap in simulated seconds")
    serve.add_argument("--save-tape", metavar="PATH",
                       help="write the (generated or replayed) tape JSON")
    serve.add_argument("--report", metavar="PATH",
                       help="write the full service report JSON")
    serve.add_argument("--fault-plan", default=None,
                       help="serve under a named fault plan "
                            "(graceful degradation)")
    serve.add_argument("--fault-seed", type=int, default=None)
    serve.add_argument("--obs", nargs="?", const="obs-serve.json",
                       metavar="PATH",
                       help="write the last executed batch's "
                            "observability timeline JSON")
    serve.add_argument("--obs-prom", metavar="PATH",
                       help="also export service latency + obs metrics "
                            "in Prometheus text format (implies --obs)")
    serve.add_argument("--comm", action="store_true",
                       help="collect per-batch traffic matrices and "
                            "include the comm summary in batch logs "
                            "and the report")

    sub.add_parser(
        "bench-serve", parents=[_bench_flags()],
        help="deterministic serve benchmark (BENCH_serve.json)",
    )

    profile = sub.add_parser(
        "profile",
        help="run one scenario under the host-side region profiler "
             "and print its work counts",
        parents=[_cluster_flags(), _app_flag(), _mpi_flags()],
    )
    profile.set_defaults(scale=10, hosts=8)
    profile.add_argument("--top", type=int, default=15,
                         help="rows in the self-time table")
    profile.add_argument("--json", metavar="PATH", dest="json_path",
                         help="write the full profile document "
                              "(regions + counters + fingerprint)")
    profile.add_argument("--collapsed", metavar="PATH",
                         dest="collapsed_path",
                         help="write a collapsed-stack (flamegraph.pl "
                              "/ speedscope) export")

    commstats = sub.add_parser(
        "commstats",
        help="communication-pattern observatory: traffic matrices, "
             "skew analytics, and comm fingerprints",
        parents=[_cluster_flags(), _app_flag(), _mpi_flags()],
    )
    commstats.set_defaults(scale=10, hosts=8)
    commstats.add_argument("--fault-plan", default=None,
                           help="run under a named fault plan (the "
                                "dropped matrix attributes lost bytes)")
    commstats.add_argument("--json", metavar="PATH", dest="json_path",
                           help="write the comm-doc JSON")
    commstats.add_argument("--csv", metavar="PATH", dest="csv_path",
                           help="write the flat CSV matrix dump")
    commstats.add_argument("--heatmap", metavar="PATH",
                           dest="heatmap_path",
                           help="write the ASCII heatmap to PATH")
    commstats.add_argument("--prom", metavar="PATH", dest="prom_path",
                           help="write the repro_comm_* Prometheus "
                                "families")

    sub.add_parser(
        "bench-core", parents=[_bench_flags()],
        help="deterministic simulator-core benchmark (BENCH_core.json); "
             "its sim.comm blocks are the traffic gate",
    )

    lint = sub.add_parser(
        "lint", help="static determinism lint over the simulation sources"
    )
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files/directories to lint (default: the "
                           "installed repro package)")
    lint.add_argument("--json", metavar="PATH", dest="json_path",
                      help="also write the machine-readable JSON report")
    lint.add_argument("--sarif", metavar="PATH", dest="sarif_path",
                      help="also write the findings as SARIF 2.1.0")

    return p


#: The :class:`Scenario` fields a verb's flags set.
SCENARIO_FLAGS = ("app", "graph", "scale", "hosts", "layer", "system",
                  "machine", "mpi_impl", "pagerank_rounds", "seed")


def _scenario(args) -> Scenario:
    """The scenario a verb's flags name; unset fields keep their
    defaults."""
    return Scenario(**{name: getattr(args, name) for name in SCENARIO_FLAGS
                       if hasattr(args, name)})


def _cmd_run(args) -> int:
    obs = None
    obs_path = args.obs or "obs-timeline.json"
    if args.obs or args.obs_chrome or args.obs_prom:
        from repro.obs import ObsContext
        obs = ObsContext()
    commstats = None
    if args.comm_path:
        from repro.obs import CommStatsContext
        commstats = CommStatsContext()
    sc = _scenario(args)
    from repro.obs.profile import wall_now

    wall0 = wall_now()
    m = build_engine(sc, obs=obs, commstats=commstats).run()
    m.stamp_wall(wall_now() - wall0)
    comm_doc = None
    if commstats is not None:
        from repro.obs import save_comm_doc
        comm_doc = commstats.comm_doc(meta={"scenario": sc.label()})
        save_comm_doc(args.comm_path, comm_doc)
        totals = comm_doc["totals"]
        print(f"comm-doc written to {args.comm_path} "
              f"({totals['wire_msgs']} pkts / {totals['wire_bytes']} "
              f"wire bytes, fingerprint {comm_doc['fingerprint']})")
    if obs is not None:
        _export_obs(obs, m, sc, obs_path, args.obs_chrome, args.obs_prom,
                    comm_doc)
    print(format_table([m.row()]))
    print(f"\ntotal {format_seconds(m.total_seconds)} = compute "
          f"{format_seconds(m.compute_seconds)} + comm "
          f"{format_seconds(m.comm_seconds)} over {m.rounds} rounds")
    return 0


def _obs_meta(m, sc: Scenario) -> dict:
    """Run-level metadata embedded in the observability timeline."""
    return {
        "scenario": sc.label(),
        "layer": sc.layer,
        "hosts": sc.hosts,
        "total_seconds": m.total_seconds,
        "compute_seconds": m.compute_seconds,
        "comm_seconds": m.comm_seconds,
        "setup_seconds": m.setup_seconds,
        "rounds": m.rounds,
        "blobs_sent": m.blobs_sent,
        "updates_shipped": m.updates_shipped,
    }


def _export_obs(obs, m, sc: Scenario, obs_path, chrome_path, prom_path,
                comm_doc=None):
    from repro.obs import (
        build_timelines,
        format_stage_table,
        save_chrome_trace,
        save_prometheus,
        save_timeline,
        stage_attribution,
    )

    timeline = obs.as_timeline(meta=_obs_meta(m, sc))
    save_timeline(obs_path, timeline)
    print(f"obs timeline written to {obs_path} "
          f"({len(timeline['events'])} events)")
    if chrome_path:
        save_chrome_trace(chrome_path, timeline)
        print(f"obs chrome trace written to {chrome_path}")
    if prom_path:
        save_prometheus(prom_path, timeline, comm=comm_doc)
        print(f"obs prometheus metrics written to {prom_path}")
    print("\nstage attribution (per layer):")
    print(format_stage_table(stage_attribution(build_timelines(timeline))))
    print(f"\nrun `repro explain {obs_path}` for the full "
          "critical-path report\n")


def _cmd_explain(args) -> int:
    from repro.obs import explain_report, load_timeline, validate_timeline

    try:
        timeline = load_timeline(args.timeline)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {args.timeline}: {exc}", file=sys.stderr)
        return 1
    if args.check:
        errors = validate_timeline(timeline)
        if errors:
            for err in errors:
                print(f"invalid timeline: {err}", file=sys.stderr)
            return 1
    print(explain_report(timeline, top=args.top, per_round=args.per_round))
    return 0


def _cmd_chaos(args) -> int:
    from repro.faults import NAMED_PLANS, get_plan
    from repro.faults.harness import format_chaos_report, run_chaos

    if args.list_plans:
        rows = [
            {"plan": name, "faults": plan.describe()}
            for name, plan in sorted(NAMED_PLANS.items())
        ]
        print(format_table(rows))
        return 0
    try:
        plan = get_plan(args.plan, args.fault_seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    obs = None
    obs_path = args.obs or "obs-timeline.json"
    if args.obs or args.obs_chrome:
        from repro.obs import ObsContext
        obs = ObsContext()
    sc = _scenario(args)
    # --obs also arms the comm observatory so the report can
    # attribute byte deltas (retransmits, drops) to the fault plan.
    report = run_chaos(sc, plan, obs=obs, commstats=obs is not None)
    if obs is not None:
        from repro.obs import save_chrome_trace, save_timeline
        timeline = obs.as_timeline(meta={
            "scenario": sc.label(), "layer": sc.layer, "hosts": sc.hosts,
            "plan": report.plan, "outcome": report.outcome,
        })
        save_timeline(obs_path, timeline)
        print(f"obs timeline written to {obs_path} "
              f"({len(timeline['events'])} events)")
        if args.obs_chrome:
            save_chrome_trace(args.obs_chrome, timeline)
            print(f"obs chrome trace written to {args.obs_chrome}")
    print(format_chaos_report(report))
    return 0 if report.outcome == "recovered" else 1


def _cmd_sweep(args) -> int:
    layers = [l for l in LAYER_NAMES
              if not (args.system == "gemini" and l == "mpi-rma")]
    rows = []
    for hosts in args.hosts:
        row = {"hosts": hosts}
        for layer in layers:
            sc = Scenario(
                app=args.app, graph=args.graph, scale=args.scale,
                hosts=hosts, layer=layer, system=args.system,
                pagerank_rounds=args.pagerank_rounds,
            )
            m = run_scenario(sc)
            row[layer] = format_seconds(m.total_seconds)
        rows.append(row)
    print(f"{args.system}/{args.app} on {args.graph}{args.scale}")
    print(format_table(rows))
    return 0


def _cmd_micro(args) -> int:
    lat_rows = []
    for size in args.sizes:
        row = {"bytes": size}
        for iface in MICRO_INTERFACES:
            row[iface] = f"{pingpong_latency(iface, size, iters=20) * 1e6:.2f}us"
        lat_rows.append(row)
    print("one-way latency")
    print(format_table(lat_rows))
    rate_rows = []
    for t in args.threads:
        row = {"threads": t}
        for iface in MICRO_INTERFACES:
            row[iface] = f"{message_rate(iface, t, window=16) / 1e6:.3f}M/s"
        rate_rows.append(row)
    print("\nmessage rate")
    print(format_table(rate_rows))
    return 0


def _cmd_inputs(args) -> int:
    from repro.graph.generators import kron, rmat, webcrawl
    from repro.graph.properties import graph_properties

    rows = [
        graph_properties(g).as_row()
        for g in (webcrawl(args.scale), kron(args.scale), rmat(args.scale))
    ]
    print(format_table(rows))
    return 0


def _cmd_calibrate(_args) -> int:
    from repro.bench.calibration import calibration_report

    rows = []
    ok = True
    for name, (value, low, high) in sorted(calibration_report().items()):
        in_range = low <= value <= high
        ok &= in_range
        rows.append({
            "observable": name,
            "value": f"{value:.4g}",
            "range": f"[{low:.3g}, {high:.3g}]",
            "ok": "yes" if in_range else "NO",
        })
    print(format_table(rows))
    return 0 if ok else 1


def _cmd_serve(args) -> int:
    from repro.obs.atomic import atomic_write_text, canonical_json
    from repro.serve import (
        ServeConfig,
        ServeEngine,
        TapeSpec,
        format_serve_report,
        generate_tape,
        tape_from_json,
        tape_to_json,
    )

    if args.tape:
        try:
            with open(args.tape) as fh:
                spec, queries = tape_from_json(fh.read())
        except (OSError, ValueError) as exc:
            print(f"error: cannot load tape {args.tape}: {exc}",
                  file=sys.stderr)
            return 2
        if spec.scale > args.scale:
            print(f"error: tape draws sources from scale {spec.scale} "
                  f"but the resident graph is scale {args.scale}",
                  file=sys.stderr)
            return 2
    else:
        spec = TapeSpec(
            seed=args.tape_seed, num_queries=args.tape_queries,
            scale=args.scale, mean_gap=args.tape_gap,
        )
        queries = generate_tape(spec)

    obs_path = args.obs or "obs-serve.json"
    obs = bool(args.obs or args.obs_prom)
    profile = None
    if args.obs_prom:
        from repro.obs import ProfileContext
        profile = ProfileContext()

    config = ServeConfig(
        graph=args.graph, scale=args.scale, hosts=args.hosts,
        layer=args.layer, system=args.system, machine=args.machine,
        seed=args.seed, max_batch=args.max_batch,
        ppr_rounds=args.ppr_rounds, fault_plan=args.fault_plan,
        fault_seed=args.fault_seed,
    )
    try:
        engine = ServeEngine(config, obs=obs, profile=profile,
                             commstats=args.comm)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = engine.drain(queries)

    if args.save_tape:
        atomic_write_text(args.save_tape, tape_to_json(spec, queries))
        print(f"tape written to {args.save_tape}")
    if args.report:
        # Deterministic by default: replaying the same tape must produce
        # a byte-identical report file.  Wall-clock throughput stays
        # available via ServeReport.as_dict(include_wall=True).
        atomic_write_text(args.report, canonical_json(report.as_dict()))
        print(f"report written to {args.report}")
    if engine.last_obs is not None:
        from repro.obs import save_timeline, to_prometheus

        timeline = engine.last_obs.as_timeline(meta={
            "scenario": f"serve/{args.graph}{args.scale}"
                        f"@{args.hosts}h/{args.layer}",
            "layer": args.layer, "hosts": args.hosts,
        })
        save_timeline(obs_path, timeline)
        print(f"obs timeline written to {obs_path} "
              f"({len(timeline['events'])} events)")
        if args.obs_prom:
            counters = (
                profile.counters_dict() if profile is not None else None
            )
            lat_lines = report.latency_summary().prometheus_lines(
                "repro_serve_query_latency_seconds"
            )
            atomic_write_text(
                args.obs_prom,
                to_prometheus(timeline, counters=counters)
                + "\n".join(lat_lines) + "\n",
            )
            print(f"obs prometheus metrics written to {args.obs_prom}")
    print(format_serve_report(report))
    return 0


def _cmd_commstats(args) -> int:
    from repro.faults import get_plan
    from repro.obs.atomic import atomic_write_text
    from repro.obs.commstats import (
        CommStatsContext,
        comm_doc_to_csv,
        comm_prometheus_lines,
        format_comm_report,
        render_heatmap,
        save_comm_doc,
    )

    try:
        plan = get_plan(args.fault_plan) if args.fault_plan else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sc = _scenario(args)
    ctx = CommStatsContext()
    build_engine(sc, fault_plan=plan, commstats=ctx).run()
    doc = ctx.comm_doc(meta={"scenario": sc.label()})
    print(format_comm_report(doc))

    if args.json_path:
        save_comm_doc(args.json_path, doc)
        print(f"comm-doc json written to {args.json_path}")
    if args.csv_path:
        atomic_write_text(args.csv_path, comm_doc_to_csv(doc))
        print(f"comm csv written to {args.csv_path}")
    if args.heatmap_path:
        atomic_write_text(args.heatmap_path,
                          f"== {sc.label()} ==\n{render_heatmap(doc)}\n")
        print(f"heatmap written to {args.heatmap_path}")
    if args.prom_path:
        atomic_write_text(args.prom_path,
                          "\n".join(comm_prometheus_lines(doc)) + "\n")
        print(f"comm prometheus metrics written to {args.prom_path}")
    return 0


def _bench_verb(args, verb: str, run) -> int:
    """The shared body of ``bench-serve`` / ``bench-core``: the
    ``--check`` document is read first (an unreadable one fails before
    the benchmark runs), ``run()`` builds the fresh document or returns
    None on failure, ``--out`` writes it, ``--check`` fails on drift."""
    import json

    from repro.bench.serve_bench import compare_bench_docs
    from repro.obs.atomic import atomic_write_text, canonical_json

    if args.check:
        try:
            with open(args.check) as fh:
                committed = json.load(fh)
        except (OSError, ValueError):
            print(f"error: cannot read committed benchmark {args.check}",
                  file=sys.stderr)
            return 1
    doc = run()
    if doc is None:
        return 1
    if args.out:
        atomic_write_text(args.out, canonical_json(doc))
        print(f"benchmark written to {args.out}")
    if args.check:
        diffs = compare_bench_docs(doc, committed)
        if diffs:
            for d in diffs[:20]:
                print(f"benchmark drift: {d}", file=sys.stderr)
            print(f"{len(diffs)} mismatch(es) vs {args.check}; regenerate "
                  f"with `repro {verb} --out {args.check}` if the "
                  "change is intended", file=sys.stderr)
            return 1
        print(f"matches committed {args.check}")
    return 0


def _cmd_bench_serve(args) -> int:
    from repro.bench.serve_bench import serve_benchmark

    def run():
        doc = serve_benchmark()
        serve_doc = doc["serve"]
        print(f"serve: {serve_doc['throughput']['queries_per_sec']} "
              f"queries/s, p50 {serve_doc['latency']['p50_us']}us, "
              f"p95 {serve_doc['latency']['p95_us']}us, "
              f"p99 {serve_doc['latency']['p99_us']}us, "
              f"{serve_doc['throughput']['messages_per_sec']} msgs/s")
        return doc

    return _bench_verb(args, "bench-serve", run)


def _cmd_profile(args) -> int:
    from repro.obs.profile import ProfileContext, wall_now

    sc = _scenario(args)
    ctx = ProfileContext()
    engine = build_engine(sc, profile=ctx)
    wall0 = wall_now()
    m = engine.run().stamp_wall(wall_now() - wall0)
    print(format_table([m.row(include_wall=True)]))
    print()
    print(ctx.format_top(args.top))
    print()
    print(ctx.format_counters())
    if args.json_path:
        ctx.save_json(args.json_path, meta={
            "scenario": sc.label(),
            "wall_seconds": round(m.wall_seconds, 6),
        })
        print(f"\nprofile json written to {args.json_path}")
    if args.collapsed_path:
        ctx.save_collapsed(args.collapsed_path)
        print(f"collapsed stacks written to {args.collapsed_path} "
              "(feed to flamegraph.pl / speedscope)")
    return 0


def _cmd_bench_core(args) -> int:
    from repro.bench.core_bench import core_benchmark

    def run():
        try:
            doc = core_benchmark()
        except AssertionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return None
        for row in doc["scenarios"]:
            sim = row["sim"]
            print(f"{row['label']}: {sim['events_fired']} events, "
                  f"fingerprint {sim['fingerprint']}, "
                  f"comm {sim['comm']['wire_bytes']} B "
                  f"[{sim['comm']['fingerprint']}]")
        return doc

    return _bench_verb(args, "bench-core", run)


def _cmd_lint(args) -> int:
    from repro.sanitize.lint import (
        format_findings,
        lint_paths,
        repo_package_root,
        report_dict,
        save_report,
    )

    paths = args.paths or [repo_package_root()]
    result = lint_paths(paths)
    print(format_findings(result))
    if args.json_path:
        save_report(result, args.json_path)
        print(f"json report written to {args.json_path}")
    if args.sarif_path:
        from repro.sanitize.report import save_sarif
        save_sarif(report_dict(result), args.sarif_path)
        print(f"sarif report written to {args.sarif_path}")
    return 1 if result.findings else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "explain": _cmd_explain,
        "chaos": _cmd_chaos,
        "sweep": _cmd_sweep,
        "micro": _cmd_micro,
        "inputs": _cmd_inputs,
        "calibrate": _cmd_calibrate,
        "serve": _cmd_serve,
        "commstats": _cmd_commstats,
        "bench-serve": _cmd_bench_serve,
        "profile": _cmd_profile,
        "bench-core": _cmd_bench_core,
        "lint": _cmd_lint,
    }[args.command]
    try:
        return handler(args)
    except SanitizerError as exc:
        print(f"sanitizer violation: {exc}", file=sys.stderr)
        return SANITIZER_EXIT_CODE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
