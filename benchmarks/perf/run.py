#!/usr/bin/env python3
"""The repo's one performance benchmark: five workloads, two clocks, and
a per-layer ledger.  See README.md beside this file.

Full protocol (what a perf claim cites)::

    python benchmarks/perf/run.py [--seed N] [--runs R] [--quick] [--out-dir D]
    python benchmarks/perf/run.py --aa            # two sets, same code
    python benchmarks/perf/run.py --compare A.json B.json

per workload: one discarded warm-up run, R timed runs with nothing
attached, one traced run; every run is a fresh single-threaded child
process, one at a time.  Exit status is non-zero when any output check
fails (or, for --aa/--compare, when any row disagrees).

Driver protocol (BENCHMARK.json)::

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

runs timed children of one workload back to back for S seconds and
prints, as the last stdout line, the medians as one JSON object
(``--trace 1``: one timed run, one traced run and the layer probes
instead, reporting the per-layer metrics).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import metrics as M  # noqa: E402  (needs HERE on the path)

WORKLOADS = ("sweep", "scale128", "compute", "serve", "chaos")
RESULT_FORMAT = "repro-perfbench/v1"
#: The driver allows a run 180 s; a child that takes longer is hung.
CHILD_TIMEOUT_S = 170


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def spawn(workload: str, seed: int, size: str, traced: bool,
          corrupt: bool = False) -> dict:
    """One run in a fresh child: single-threaded, alone on the box."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--traced", str(int(traced)),
           "--spawned-at", repr(time.time())]
    if corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crashed": f"no result within {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"exit {proc.returncode}\n{proc.stderr[-2000:]}"}
    return json.loads(lines[-1])


def bytecode_is_cold() -> bool:
    """True in a checkout no run has imported ``repro`` in yet."""
    return not (SRC / "repro" / "__pycache__").exists()


# ----------------------------------------------------------------------
# One workload: runs -> result block
# ----------------------------------------------------------------------
def run_summary(role: str, doc: dict) -> dict:
    """What the result file keeps of every run made."""
    if "crashed" in doc:
        return {"role": role, "crashed": doc["crashed"]}
    return {
        "role": role, "e2e": M.end_to_end(doc),
        "cpu_over_wall": doc["cpu_over_wall"], "speed": doc["speed"],
        "contended": doc["contended"], "fingerprint": doc["fingerprint"],
        "attempted": doc["attempted"], "failed": doc["failed"],
    }


def mark_contended(docs: List[dict]) -> None:
    """Flag the runs during which the box was slow (see metrics.py)."""
    fastest = min((d["speed"]["interp_ms"] for d in docs), default=0.0)
    for d in docs:
        d["contended"] = (
            d["cpu_over_wall"] < M.CONTENDED_CPU_BELOW
            or d["speed"]["interp_ms"] > M.CONTENDED_SLICE_ABOVE * fastest)


def assemble(size: str, runs: List[tuple], probes: Optional[dict]) -> dict:
    """Fold the (role, doc) runs of one workload into its result block;
    ``probes`` is the probe child's document (``None``: not asked for)."""
    problems: List[str] = []
    if probes is not None and "crashed" in probes:
        problems.append(f"probes crashed: {probes['crashed']}")
    for role, doc in runs:
        if "crashed" in doc:
            problems.append(f"{role} run crashed: {doc['crashed']}")
        else:
            problems.extend(f"{role}: {p}" for p in doc["problems"])
    good = [(r, d) for r, d in runs if "crashed" not in d]
    mark_contended([d for _r, d in good])
    timed = [d for r, d in good if r == "timed"]
    # Medians are over the runs made while the box was steady; every run
    # stays in the result file.  All contended = nothing to prefer.
    made_timed = len(timed)
    timed = [d for d in timed if not d["contended"]] or timed
    traced = next((d for r, d in good if r == "traced"), None)
    prints = {d["fingerprint"] for r, d in good if d["size"] == size}
    if len(prints) > 1:
        problems.append(f"sim_fingerprint differs between runs: {sorted(prints)}")
    block = {
        "sizes": next((d["sizes"] for _r, d in good if d["size"] == size),
                      None),
        "runs": [run_summary(r, d) for r, d in runs],
        "fingerprint": prints.pop() if len(prints) == 1 else "",
        "attempted": sum(d["attempted"] for d in timed) or 1,
        "failed": sum(d["failed"] for d in timed),
        "timed_runs": made_timed, "timed_runs_used": len(timed),
        "e2e": {}, "layer": None,
    }
    for name in M.E2E_NAMES:
        values = [v for v in (M.end_to_end(d)[name] for d in timed)
                  if v is not None]
        block["e2e"][name] = M.summarize(values) if values else None
    if traced is not None and timed and probes and "probes" in probes:
        block["layer"] = M.per_layer(timed, traced, probes["probes"])
        shares = {k: block["layer"][f"{k}.self_share"]
                  for k in M.SHARE_LAYERS}
        problems.extend(f"traced: {p}"
                        for p in M.trace_problems(traced, shares))
    if not timed:
        problems.append("no timed run finished")
    block["problems"] = problems
    block["correct"] = not problems
    return block


def write_trace(out_dir: Path, workload: str, seed: int, traced: dict) -> None:
    """trace.json: the traced run's spans and profile, written once."""
    if "crashed" in traced:
        return
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"trace-{workload}.json", "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "spans": traced["spans"], "profile": traced["profile"],
                   "cells": traced["cells"]}, fh)


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def fmt(v) -> str:
    if v is None:
        return "n/a"
    if isinstance(v, str):
        return v
    return f"{v:.6g}"


def print_block(workload: str, block: dict) -> None:
    n = next((s["n"] for s in block["e2e"].values() if s), 0)
    print(f"\n== {workload}  sizes={block['sizes']}  "
          f"sim_fingerprint={block['fingerprint'] or 'MISMATCH'}")
    for run in block["runs"]:
        if run.get("contended"):
            print(f"   note: a {run['role']} run was contended "
                  f"(cpu/wall {run['cpu_over_wall']:.2f}, interp slice "
                  f"{run['speed']['interp_ms']:.2f} ms)")
    if block["timed_runs_used"] < block["timed_runs"]:
        print(f"   medians are over the {block['timed_runs_used']} steady "
              f"of {block['timed_runs']} timed runs")
    print(f"   {'end-to-end metric':<28}{'unit':<10}{'median':>12}"
          f"{'min':>12}{'max':>12}{'R':>3}  bound")
    for name, unit, better, bound in M.END_TO_END:
        s = block["e2e"][name]
        if s is None:
            print(f"   {name:<28}{unit:<10}{'n/a':>12}")
            continue
        bound_txt = "exact" if better == "exact" else f"{bound:.0%} {better}"
        print(f"   {name:<28}{unit:<10}{fmt(s['median']):>12}"
              f"{fmt(s['min']):>12}{fmt(s['max']):>12}{n:>3}  {bound_txt}")
    if block["layer"]:
        print(f"   {'per-layer metric (traced run)':<38}{'unit':<10}value")
        for name, unit, _better in M.PER_LAYER:
            print(f"   {name:<38}{unit:<10}{fmt(block['layer'][name])}")
    for p in block["problems"]:
        print(f"   FAILED CHECK: {p}")


def print_comparison(rows: List[dict]) -> None:
    print(f"\n{'workload':<10}{'metric':<26}{'A median':>18}{'B median':>18}"
          f"{'A iqr':>13}{'B iqr':>13}{'bound':>7}  verdict")
    for r in rows:
        print(f"{r['workload']:<10}{r['metric']:<26}{fmt(r['a']):>18}"
              f"{fmt(r['b']):>18}{fmt(r.get('iqr_a')):>13}"
              f"{fmt(r.get('iqr_b')):>13}{r['bound']:>7.0%}  {r['verdict']}"
              + (f" ({r['delta']:+.1%})" if "delta" in r else ""))


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def hygiene(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"), "commit": commit,
        "seed": seed, "loadavg_start": os.getloadavg(),
    }


def full_set(seed: int, runs: int, size: str, out_dir: Path) -> dict:
    """The full protocol over all five workloads -> one result doc."""
    doc = {"format": RESULT_FORMAT, "size": size, "hygiene": hygiene(seed),
           "workloads": {}}
    probes = spawn("probes", seed, size, traced=False)
    doc["probes"] = probes.get("probes")
    for w in WORKLOADS:
        made = [("warmup", spawn(w, seed, size, traced=False))]
        made += [("timed", spawn(w, seed, size, traced=False))
                 for _ in range(runs)]
        made.append(("traced", spawn(w, seed, size, traced=True)))
        write_trace(out_dir, w, seed, made[-1][1])
        doc["workloads"][w] = assemble(size, made, probes)
        print_block(w, doc["workloads"][w])
    doc["hygiene"]["loadavg_end"] = os.getloadavg()
    doc["correct"] = all(b["correct"] for b in doc["workloads"].values())
    return doc


def save(doc: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"\nresult file: {path}")


def driver(args) -> int:
    """One workload for --seconds; the last stdout line is the result."""
    w, size = args.workload, "quick" if args.quick else "full"
    made: List[tuple] = []
    if bytecode_is_cold():
        # The checkout's first run "builds": compile bytecode and pull
        # NumPy into the page cache with a small discarded run.
        made.append(("warmup", spawn(w, args.seed, "quick", traced=False)))
    probes = None
    if args.trace:
        made.append(("timed", spawn(w, args.seed, size, False)))
        made.append(("traced", spawn(w, args.seed, size, True)))
        write_trace(args.out_dir, w, args.seed, made[-1][1])
        probes = spawn("probes", args.seed, size, False)
    else:
        t0 = time.perf_counter()
        walls: List[float] = []
        while True:
            t1 = time.perf_counter()
            made.append(("timed", spawn(w, args.seed, size, False,
                                        corrupt=args.corrupt)))
            walls.append(time.perf_counter() - t1)
            elapsed = time.perf_counter() - t0
            if elapsed + statistics.median(walls) > args.seconds:
                break
    block = assemble(size, made, probes)
    print_block(w, block)
    if args.trace and block["layer"] is None:
        print("no per-layer result: a run or the probes crashed",
              file=sys.stderr)
        return 1
    if not any(r == "timed" and "crashed" not in d for r, d in made):
        print("no timed run finished", file=sys.stderr)
        return 1
    if args.trace:
        values = {name: (block["layer"][name], unit)
                  for name, unit, _b in M.PER_LAYER}
        # The end-to-end metrics BENCHMARK.json cannot bound (exact, or
        # absent on some workloads) ride along here; 0 = does not apply.
        for name, unit, _better, _bound in M.END_TO_END:
            if name not in M.UNIVERSAL:
                s = block["e2e"][name]
                values[name] = (s["median"] if s else 0.0, unit)
    else:
        values = {name: (block["e2e"][name]["median"], M.UNITS[name])
                  for name in M.UNIVERSAL}
    print(json.dumps({
        "correct": block["correct"], "attempted": block["attempted"],
        "failed": block["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0 if block["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--runs", type=int,
                    help="timed runs per workload (default 5; --quick: 1)")
    ap.add_argument("--quick", action="store_true",
                    help="smoke sizes (scales 8-10); not a measurement")
    ap.add_argument("--out-dir", type=Path, default=OUT,
                    help="where result and trace files go")
    ap.add_argument("--aa", action="store_true",
                    help="two full sets back to back, then compare them")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="driver protocol: this workload only")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true",
                    help="test hook: falsify one answer before checking")
    args = ap.parse_args(argv)

    if args.compare:
        rows = M.compare(*(json.loads(p.read_text()) for p in args.compare))
        print_comparison(rows)
        return 1 if any(r["verdict"] == "disagree" for r in rows) else 0
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"error: no program to measure ({SRC / 'repro'} is missing)",
              file=sys.stderr)
        return 2
    if args.workload:
        return driver(args)

    size = "quick" if args.quick else "full"
    runs = max(1, args.runs or (1 if args.quick else 5))
    out = args.out_dir / f"result-seed{args.seed}.json"
    a = full_set(args.seed, runs, size, args.out_dir)
    if not args.aa:
        save(a, out)
        return 0 if a["correct"] else 1
    b = full_set(args.seed, runs, size, args.out_dir)
    save(a, out.with_name(out.stem + "-A.json"))
    save(b, out.with_name(out.stem + "-B.json"))
    rows = M.compare(a, b)
    print_comparison(rows)
    bad = [r for r in rows if r["verdict"] == "disagree"]
    return 1 if bad or not (a["correct"] and b["correct"]) else 0


if __name__ == "__main__":
    sys.exit(main())
