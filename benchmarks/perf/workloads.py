"""The five workloads, run once each inside a fresh child process.

Everything here drives ``repro`` through its public functions only.
A :class:`Run` owns the span recorder, the optional ``ProfileContext``
(traced runs only) and the list of finished cells; the workload
functions below fill it, and :func:`check` — called after every clock
has stopped — compares each answer with the program's own reference.

Why these five (the short form; README.md has the measured shares):

* ``sweep``    — many small clusters, all three libraries, both engines:
  the sim kernel and per-cell partitioning dominate.
* ``scale128`` — one big resident partition on 128 hosts: packets grow
  with hosts squared, and cold setup rivals the runs.
* ``compute``  — big graph, 4 hosts: app NumPy kernels dominate and the
  comm stack is nearly idle (the bypass workload for comm changes).
* ``serve``    — the engine behind the query service: a fresh cluster
  per batch, multi-source programs, then the result cache's hit path.
* ``chaos``    — LCI under fault plans: retransmit timers armed and
  defused, acks, duplicate suppression, on the hooked NIC path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import signal
import traceback
import zlib
from contextlib import ExitStack, contextmanager, nullcontext
from typing import Dict, List, Optional

import numpy as np
from repro.apps import make_app
from repro.bench.scenarios import Scenario, build_engine, cached_graph
from repro.engine.bsp import symmetrize
from repro.graph.partition import make_partition
from repro.obs.profile import ProfileContext
from repro.serve import (
    ServeConfig,
    ServeEngine,
    TapeSpec,
    generate_tape,
    make_batched_program,
)
import calib
from spans import Recorder

LAYERS = ("lci", "mpi-probe", "mpi-rma")

#: Final sizes.  ``full`` is what every reported number uses; ``quick``
#: is a smoke size for test_perf_smoke.py, not a measurement.  Full
#: sizes sit one or two graph-scale steps below the issue's first
#: proposal so that a child run takes 5-11 s on a 2-core box and the
#: driver's run-count fits its time cap; host counts are the issue's.
SIZES: Dict[str, Dict[str, dict]] = {
    "full": {
        "sweep": dict(scale=12, abelian_hosts=(4, 8, 16, 32),
                      gemini_hosts=(8, 32), pagerank_rounds=10),
        "scale128": dict(scale=17, hosts=128, pagerank_rounds=3),
        "compute": dict(scale=16, hosts=4, pagerank_rounds=20, repeats=2),
        "serve": dict(scale=12, hosts=8, queries=512, mean_gap=3.3e-5,
                      max_batch=8, ppr_rounds=6, sample=6),
        "chaos": dict(scale=13, hosts=32, pagerank_rounds=10,
                      plans=("drop-5pct", "reorder-heavy", "flaky-link"),
                      fault_seeds=2),
    },
    "quick": {
        "sweep": dict(scale=8, abelian_hosts=(4, 8), gemini_hosts=(8,),
                      pagerank_rounds=3),
        "scale128": dict(scale=10, hosts=32, pagerank_rounds=2),
        "compute": dict(scale=10, hosts=4, pagerank_rounds=5, repeats=1),
        "serve": dict(scale=8, hosts=4, queries=48, mean_gap=3e-5,
                      max_batch=8, ppr_rounds=3, sample=3),
        "chaos": dict(scale=9, hosts=8, pagerank_rounds=3,
                      plans=("drop-5pct", "flaky-link"), fault_seeds=1),
    },
}

#: PageRank answers compare within the tolerance the tier-1 tests use
#: (tests/test_engine_correctness.py); integer labels compare exactly.
PAGERANK_RTOL, PAGERANK_ATOL = 1e-8, 1e-12


class Hung(Exception):
    """A call into the program did not return within its deadline."""


@contextmanager
def deadline(seconds: float):
    """Turn a hang inside the program into a failed operation.

    Cells take about a second; one that is still running after
    ``seconds`` has livelocked (the simulator keeps scheduling timers),
    and would otherwise take the whole benchmark run with it.
    """
    def on_alarm(_signum, _frame):
        raise Hung(f"no return within {seconds:.0f} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


#: Per-call deadlines: one engine run, one pass over the serve tape.
CELL_DEADLINE_S, TAPE_DEADLINE_S = 30.0, 90.0


class Run:
    """State of one run of one workload."""

    def __init__(self, workload: str, cfg: dict, seed: int, traced: bool):
        self.workload = workload
        self.cfg = cfg
        self.seed = seed
        self.traced = traced
        self.rec = Recorder()
        #: Traced runs only: region rows (by path) and counters (by name)
        #: summed over one ``ProfileContext`` per cell — see
        #: :meth:`absorb_profile`.  Timed runs attach nothing (no
        #: profiler, obs, commstats or sanitizer).
        self.regions: Dict[str, dict] = {}
        self.counters: Dict[str, int] = {}
        self._profile: Optional[ProfileContext] = None
        self.rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
        self.cells: List[dict] = []
        self.serve: Optional[dict] = None
        self.edges_generated = 0
        self.edges_partitioned = 0
        self.replication: List[float] = []
        self._references: dict = {}
        #: (interp, numeric) host-speed slice timings, and what taking
        #: them cost (kept out of every clock, ``total_s`` included).
        self.speed: List[tuple] = []
        self.speed_spent = 0.0
        self._speed_at = 0.0

    def new_profile(self) -> Optional[ProfileContext]:
        if self.traced:
            self._profile = ProfileContext()
        return self._profile

    def absorb_profile(self) -> None:
        """Fold the open profile context into the run's totals and let
        go of it.

        One context per cell, dropped with its engine, for two reasons.
        A context shared by hooked (faulted) and plain engines loses the
        hooked NIC time: the plain NICs' deferred fold *writes* the
        ``netapi.nic.*`` nodes the hooked path adds to.  And a context
        keeps every engine it has seen alive, which timed runs do not:
        the collector then walks them all on each pass, mostly from
        inside the allocation-heavy inject path, and ``netapi``'s share
        reads several times too high.
        """
        ctx, self._profile = self._profile, None
        if ctx is None:
            return
        for row in ctx.regions.rows():
            into = self.regions.setdefault(
                row["path"], dict(row, calls=0, cum_s=0.0, self_s=0.0))
            into["calls"] += row["calls"]
            into["cum_s"] += row["cum_s"]
        for name, value in ctx.counters_dict().items():
            self.counters[name] = self.counters.get(name, 0) + value

    def sample_speed(self, force: bool = False) -> None:
        """Time the two calibration slices, between spans, at most every
        0.3 s (``force``: now) — see calib.py for why."""
        t0 = self.rec.clock()
        if force or t0 - self._speed_at > 0.3:
            self.speed.append((calib.interp_slice(), calib.numeric_slice()))
            self._speed_at = self.rec.clock()
            self.speed_spent += self._speed_at - t0

    # -- setup steps -----------------------------------------------------
    def graph(self, weights: bool):
        """The workload's rmat input, through the scenario cache as
        ``repro run``/``sweep`` users get it (cold in a fresh process)."""
        self.sample_speed(force=True)
        with self.rec.span("graph.generate", "setup"):
            g = cached_graph("rmat", self.cfg["scale"], self.seed, weights)
        self.sample_speed(force=True)
        self.edges_generated += g.num_edges
        return g

    def partition(self, graph, hosts: int, policy: str = "cvc"):
        with self.rec.span("graph.partition", "setup"):
            part = make_partition(graph, hosts, policy)
        self.edges_partitioned += graph.num_edges
        self.replication.append(part.replication_factor())
        return part

    def pick_source(self, graph) -> int:
        """The BFS/SSSP source: the seeded graph's highest out-degree
        vertex.

        From the top hub a traversal takes the same number of rounds on
        every seed tried (4 at scale 17 on 128 hosts, seeds 11-20);
        from the next seven hubs it takes 4 or 5 depending on one or two
        straggler vertices — a 25 % swing in the bfs cells that says
        nothing about the program — and a uniformly drawn rmat vertex is
        isolated half the time.
        """
        return int(np.argmax(graph.out_degree()))

    def app(self, name: str, source: int):
        if name in ("bfs", "sssp"):
            return make_app(name, source=source)
        if name == "pagerank":
            # build_engine's own settings for a pagerank scenario.
            return make_app(
                name, max_rounds=self.cfg["pagerank_rounds"], tol=1e-12
            )
        return make_app(name)

    def scenario(self, app: str, layer: str, hosts: int, **kw) -> Scenario:
        return Scenario(
            app=app, graph="rmat", scale=self.cfg["scale"], hosts=hosts,
            layer=layer, seed=self.seed,
            pagerank_rounds=self.cfg["pagerank_rounds"], **kw,
        )

    # -- one cell --------------------------------------------------------
    def _engine(self, sc: Scenario, app, graph, resident):
        span = self.rec.span
        if resident is not None:
            graph, part = resident
        elif not self.traced:
            # The user path: build_engine symmetrizes and partitions.
            with span("scenario.build", "setup"):
                return build_engine(sc, app=app)
        else:
            # Traced runs do what build_engine(sc) does, one public step
            # at a time, so each step gets its own span.  The run's
            # fingerprint must equal the timed runs', which proves the
            # two paths are the same work.
            if app.needs_symmetric:
                with span("graph.symmetrize", "setup"):
                    graph = symmetrize(graph)
            policy = "cvc" if sc.system == "abelian" else "edge-cut"
            part = self.partition(graph, sc.hosts, policy)
        with span("engine.build", "setup"):
            return build_engine(
                sc, app=app, graph=graph, partition=part,
                profile=self.new_profile(),
            )

    def cell(self, sc: Scenario, app, graph, resident=None, control=None):
        """Build, run and export one cell; a cell that raises is kept as
        a failed operation and the workload carries on."""
        cell = {
            "label": sc.label(), "system": sc.system, "app": sc.app,
            "layer": sc.layer, "hosts": sc.hosts,
            "plan": sc.fault_plan or "none", "program": app,
            "control": control, "error": None,
        }
        self.cells.append(cell)
        self.rec.cell = f"{len(self.cells) - 1}:{cell['label']}"
        self.sample_speed()
        try:
            with self.rec.span("cell"):
                eng = self._engine(sc, app, graph, resident)
                with self.rec.span("engine.run", "run") as run_span:
                    with deadline(CELL_DEADLINE_S):
                        m = eng.run()
                with self.rec.span("engine.assemble"):
                    cell["answer"] = eng.assemble_global()
                with self.rec.span("bench.export"):
                    cell["row"] = m.row()
        except Exception:  # a failed operation, reported with its trace
            cell["error"] = traceback.format_exc()
            return cell
        finally:
            self.absorb_profile()
        cell.update(
            run_s=run_span["end"] - run_span["start"],
            sim_s=m.total_seconds, rounds=m.rounds, graph=eng.graph,
            retransmissions=m.layer_counters.get("retransmissions", 0),
            faults=sum(m.fault_counts.values()),
        )
        return cell


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def sweep(run: Run) -> None:
    cfg = run.cfg
    plain, weighted = run.graph(False), run.graph(True)
    source = run.pick_source(plain)
    grids = (
        ("abelian", ("bfs", "cc", "sssp", "pagerank"), LAYERS,
         cfg["abelian_hosts"]),
        # The paper does not evaluate Gemini with MPI-RMA.
        ("gemini", ("bfs", "pagerank"), LAYERS[:2], cfg["gemini_hosts"]),
    )
    for system, apps, layers, host_counts in grids:
        for name in apps:
            for layer in layers:
                for hosts in host_counts:
                    run.cell(
                        run.scenario(name, layer, hosts, system=system),
                        run.app(name, source),
                        weighted if name == "sssp" else plain,
                    )


def scale128(run: Run) -> None:
    hosts = run.cfg["hosts"]
    graph = run.graph(False)
    resident = (graph, run.partition(graph, hosts))
    source = run.pick_source(graph)
    for name in ("bfs", "pagerank"):
        for layer in LAYERS:
            run.cell(run.scenario(name, layer, hosts),
                     run.app(name, source), graph, resident)


def compute(run: Run) -> None:
    hosts = run.cfg["hosts"]
    graph = run.graph(True)
    directed = (graph, run.partition(graph, hosts))
    with run.rec.span("graph.symmetrize", "setup"):
        sym = symmetrize(graph).freeze()
    undirected = (sym, run.partition(sym, hosts))
    source = run.pick_source(graph)
    for _repeat in range(run.cfg["repeats"]):
        for name in ("pagerank", "sssp", "cc", "bfs"):
            # lci + mpi-rma, not mpi-probe: at this blob size the seed
            # commit's probe layer can hang on a rendezvous send (bfs,
            # seed 3 — a lost wake-up; see README "Findings"), and a
            # benchmark workload must not fail.
            for layer in ("lci", "mpi-rma"):
                app = run.app(name, source)
                run.cell(
                    run.scenario(name, layer, hosts), app, graph,
                    undirected if app.needs_symmetric else directed,
                )


def chaos(run: Run) -> None:
    cfg, hosts = run.cfg, run.cfg["hosts"]
    graph = run.graph(True)
    resident = (graph, run.partition(graph, hosts))
    source = run.pick_source(graph)
    for name in ("bfs", "sssp", "pagerank"):
        base = run.scenario(name, "lci", hosts)
        control = run.cell(base, run.app(name, source), graph, resident)
        for plan in cfg["plans"]:
            for k in range(cfg["fault_seeds"]):
                faulted = dataclasses.replace(
                    base, fault_plan=plan, fault_seed=1000 * run.seed + k
                )
                run.cell(faulted, run.app(name, source), graph, resident,
                         control=control)


@contextmanager
def _batch_spans(run: Run):
    """Traced serve runs only: one ``serve.batch`` span per executed
    batch, around the public calls ``ServeEngine`` makes for it
    (``build_engine``, ``BspEngine.run``, ``assemble_global``).

    The service looks ``build_engine`` up in its module at call time, so
    interposing there times those calls from outside without touching
    ``src/``.  Timed runs never come here.
    """
    import repro.serve.engine as serve_engine

    real = serve_engine.build_engine
    rec = run.rec
    batch = ExitStack()  # holds the open serve.batch span, if any
    opened = 0

    def traced_build(*args, **kwargs):
        nonlocal opened
        batch.close()  # a batch that failed never reached assemble
        rec.cell = f"batch{opened}"
        opened += 1
        batch.enter_context(rec.span("serve.batch"))
        with rec.span("engine.build"):
            eng = real(*args, **kwargs)
        run_, assemble = eng.run, eng.assemble_global

        def traced_run():
            with rec.span("engine.run"):
                return run_()

        def traced_assemble():
            try:
                with rec.span("engine.assemble"):
                    return assemble()
            finally:
                batch.close()

        eng.run, eng.assemble_global = traced_run, traced_assemble
        return eng

    serve_engine.build_engine = traced_build
    try:
        yield batch.close
    finally:
        batch.close()
        serve_engine.build_engine = real


def serve(run: Run) -> None:
    cfg, rec = run.cfg, run.rec
    config = ServeConfig(
        scale=cfg["scale"], hosts=cfg["hosts"], layer="lci",
        max_batch=cfg["max_batch"], ppr_rounds=cfg["ppr_rounds"],
        seed=run.seed,
        # Room for every answer of the tape, so the replay below is the
        # cache's hit path rather than an LRU thrash.
        cache_capacity=2 * cfg["queries"],
    )
    spec = TapeSpec(seed=run.seed, num_queries=cfg["queries"],
                    scale=cfg["scale"], mean_gap=cfg["mean_gap"])
    rec.cell = "serve"
    run.sample_speed(force=True)
    with rec.span("serve.build", "setup"):
        engine = ServeEngine(config, profile=run.new_profile())
    run.serve = {"engine": engine, "error": None, "submitted": 0}
    batch_spans = (_batch_spans(run) if run.traced
                   else nullcontext(lambda: None))
    try:
        with batch_spans as close_batch:
            with rec.span("serve.run_tape", "run"), deadline(TAPE_DEADLINE_S):
                cold = engine.run_tape(spec)
            close_batch()
            run.sample_speed(force=True)
            run.serve["submitted"] += len(cold.results)
            # The same queries again, re-stamped to arrive after the
            # first pass ended (a tape replayed at its old timestamps
            # would all arrive "at once" and be shed by admission).
            rec.cell = "serve-replay"
            replay = [
                dataclasses.replace(q, qid=q.qid + cfg["queries"],
                                    arrival=q.arrival + engine.clock)
                for q in generate_tape(spec)
            ]
            with rec.span("serve.run_tape", "run"), deadline(TAPE_DEADLINE_S):
                warm = engine.drain(replay)
            run.serve["submitted"] += len(warm.results)
        with rec.span("bench.export"):
            docs = [cold.as_dict(), warm.as_dict()]
    except Exception:
        run.serve["error"] = traceback.format_exc()
        return
    finally:
        run.absorb_profile()
    run.serve.update(cold=cold, warm=warm, docs=docs, config=config)


WORKLOADS = {
    "sweep": sweep, "scale128": scale128, "compute": compute,
    "serve": serve, "chaos": chaos,
}


# ----------------------------------------------------------------------
# Correctness oracle (runs after the clocks have stopped)
# ----------------------------------------------------------------------
def _same(app_name: str, got, want) -> bool:
    if got.shape != want.shape:
        return False
    if app_name in ("pagerank", "ppr"):
        return bool(np.allclose(got, want, rtol=PAGERANK_RTOL,
                                atol=PAGERANK_ATOL))
    return bool(np.array_equal(got, want))


def _reference(run: Run, cell: dict):
    """``app.reference()`` on the graph the engine computed on, shared
    by the cells that ask the same question of the same input."""
    app, graph = cell["program"], cell["graph"]
    rounds = cell["rounds"] if cell["app"] == "pagerank" else None
    key = (cell["app"], getattr(app, "source", None), rounds,
           graph.num_edges)
    if key not in run._references:
        kwargs = {} if rounds is None else {"rounds": rounds}
        run._references[key] = app.reference(graph, **kwargs)
    return run._references[key]


def check(run: Run, corrupt: bool = False) -> dict:
    """Count attempted and failed operations; list what went wrong."""
    problems: List[str] = []
    attempted = failed = 0
    if corrupt and run.cells and run.cells[0]["error"] is None:
        # test hook: a wrong answer must be caught and counted
        run.cells[0]["answer"] = run.cells[0]["answer"] + 1
    for cell in run.cells:
        attempted += 1
        cell["ok"] = False
        if cell["error"] is not None:
            problems.append(f"{cell['label']}: raised\n{cell['error']}")
        elif not _same(cell["app"], cell["answer"], _reference(run, cell)):
            problems.append(f"{cell['label']}: answer != app.reference()")
        elif cell["control"] is not None and (
            cell["control"]["error"] is not None
            or not _same(cell["app"], cell["answer"],
                         cell["control"]["answer"])
        ):
            problems.append(f"{cell['label']}: answer != fault-free control")
        else:
            cell["ok"] = True
        failed += not cell["ok"]
    if run.serve is not None:
        a, f = _check_serve(run, problems, corrupt)
        attempted += a
        failed += f
    return {"attempted": attempted, "failed": failed, "problems": problems}


def _check_serve(run: Run, problems: List[str], corrupt: bool):
    sv = run.serve
    if sv["error"] is not None:
        problems.append(f"serve: raised\n{sv['error']}")
        return max(1, sv["submitted"]), max(1, sv["submitted"])
    cold, warm, engine = sv["cold"], sv["warm"], sv["engine"]
    results = cold.results + warm.results
    bad = {r.query.qid for r in results if r.status != "ok"}
    # Replayed answers must be the first pass's answers.
    first = {r.query.qid: r for r in cold.results}
    for r in warm.results:
        orig = first[r.query.qid - len(cold.results)]
        if r.status == "ok" and orig.status == "ok" and not _same(
            r.query.kind, r.answer, orig.answer
        ):
            bad.add(r.query.qid)
            problems.append(f"serve: replayed q{r.query.qid} changed answer")
    # A seeded sample of batched answers against solo runs of the same
    # query on the same resident partition.
    pool = [r for r in cold.results
            if r.status == "ok" and r.query.kind != "kcore"]
    picks = run.rng.choice(len(pool), size=min(run.cfg["sample"], len(pool)),
                           replace=False)
    solo_sc = Scenario(app="serve", graph="rmat", scale=run.cfg["scale"],
                       hosts=run.cfg["hosts"], layer="lci", seed=run.seed)
    for n, i in enumerate(sorted(int(i) for i in picks)):
        r = pool[i]
        app = make_batched_program(
            r.query.kind, [r.query.source],
            ppr_rounds=sv["config"].ppr_rounds,
            ppr_damping=sv["config"].ppr_damping,
        )
        eng = build_engine(solo_sc, app=app, graph=engine.graph,
                           partition=engine.partition)
        eng.run()
        got = r.answer + 1 if corrupt and n == 0 else r.answer
        if not _same(r.query.kind, got, eng.assemble_global()[:, 0]):
            bad.add(r.query.qid)
            problems.append(
                f"serve: q{r.query.qid} ({r.query.kind} from "
                f"{r.query.source}) != its solo run"
            )
    return len(results), len(bad)


# ----------------------------------------------------------------------
# What a run hands back
# ----------------------------------------------------------------------
def fingerprint(run: Run) -> str:
    """16 hex over the run's deterministic outputs: the sorted
    ``RunMetrics.row()`` of every cell, and the serve reports (which
    carry no wall-clock field)."""
    rows = sorted(
        json.dumps([c["label"], c.get("row")], sort_keys=True)
        for c in run.cells
    )
    docs = run.serve.get("docs") if run.serve else None
    blob = json.dumps([rows, docs], sort_keys=True).encode("ascii")
    return hashlib.sha256(blob).hexdigest()[:16]


def _geomean(ratios: List[float]) -> Optional[float]:
    if not ratios:
        return None
    return float(np.exp(np.mean(np.log(ratios))))


def _speedup_vs(run: Run, other: str) -> Optional[float]:
    """Geo-mean over (system, app, hosts) of ``other`` / lci simulated
    time, for fault-free cells that ran under both layers."""
    sim: Dict[tuple, float] = {}
    for c in run.cells:
        if c["error"] is None and c["plan"] == "none":
            sim[(c["system"], c["app"], c["hosts"], c["layer"])] = c["sim_s"]
    return _geomean([
        sim[key[:3] + (other,)] / t
        for key, t in sorted(sim.items())
        if key[3] == "lci" and key[:3] + (other,) in sim
    ])


def sim_metrics(run: Run) -> dict:
    """The simulated-clock end-to-end metrics (exact: pure functions of
    workload and seed).  ``None`` where a metric does not apply."""
    out = {
        "sim_time_s": sum(c["sim_s"] for c in run.cells
                          if c["error"] is None),
        "sim_lci_speedup_vs_probe": None, "sim_lci_speedup_vs_rma": None,
        "serve_sim_p50_us": None, "serve_sim_p95_us": None,
    }
    if run.workload in ("sweep", "scale128"):
        out["sim_lci_speedup_vs_probe"] = _speedup_vs(run, "mpi-probe")
        out["sim_lci_speedup_vs_rma"] = _speedup_vs(run, "mpi-rma")
    sv = run.serve
    if sv is not None and sv["error"] is None:
        out["sim_time_s"] = sv["cold"].exec_seconds + sv["warm"].exec_seconds
        # First pass only: replayed queries are cache hits served the
        # instant they arrive, which is not a latency distribution.
        lat = sv["cold"].latency_summary()
        out["serve_sim_p50_us"] = lat.p50 * 1e6
        out["serve_sim_p95_us"] = lat.p95 * 1e6
    return out


def serve_summary(run: Run) -> Optional[dict]:
    sv = run.serve
    if sv is None or sv["error"] is not None:
        return None
    results = sv["cold"].results + sv["warm"].results
    ok = [r for r in results if r.status == "ok"]
    batches = sv["warm"].batches  # the engine's cumulative batch log
    return {
        "submitted": len(results),
        "answered": len(ok),
        "latency_samples": sv["cold"].latency_summary().count,
        "cache_hits": sum(r.cache_hit for r in ok),
        "rejected": sum(r.status == "rejected" for r in results),
        "batches": len(batches),
        "batched_queries": sum(b["size"] for b in batches),
    }


def profile_doc(run: Run) -> dict:
    """The run's merged region tree and counters.  Self time is taken
    once, on the merged tree (cumulative minus direct children, floored
    at zero): sampled leaf regions overshoot their parent in some small
    cells, and flooring cell by cell would add that up."""
    for path, row in run.regions.items():
        children = sum(r["cum_s"] for p, r in run.regions.items()
                       if p.rpartition(";")[0] == path)
        row["self_s"] = max(row["cum_s"] - children, 0.0)
    return {"regions": [run.regions[p] for p in sorted(run.regions)],
            "counters": dict(sorted(run.counters.items()))}


def cell_rows(run: Run) -> List[dict]:
    keep = ("label", "system", "app", "layer", "hosts", "plan", "ok",
            "run_s", "sim_s", "rounds", "retransmissions", "faults")
    return [{k: c.get(k) for k in keep} for c in run.cells]
