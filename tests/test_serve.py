"""The serve layer: batched execution equivalence, cache, admission.

The load-bearing assertion is **batched-vs-sequential bit-identity**:
a multi-source batch's per-column answer must exactly equal the answer
of running that query alone — for the integer min programs (BFS, SSSP)
and for float personalized PageRank (fixed rounds + ordered scatter),
with and without an active fault plan.
"""

import json

import numpy as np
import pytest

from repro.bench.scenarios import cached_graph
from repro.serve import (
    AdmissionConfig,
    AdmissionController,
    Query,
    ResultCache,
    ServeConfig,
    ServeEngine,
    TapeSpec,
    generate_tape,
    make_batched_program,
)
from repro.serve.programs import (
    MultiSourceBfs,
    MultiSourcePageRank,
    MultiSourceSssp,
)

SCALE = 8
HOSTS = 4


def serve_config(**kw):
    base = dict(scale=SCALE, hosts=HOSTS, layer="lci", max_batch=8,
                ppr_rounds=5)
    base.update(kw)
    return ServeConfig(**base)


def solo_answer(kind, source, config):
    """The query's answer when it is the only thing the service runs."""
    eng = ServeEngine(config)
    res = eng.drain([Query(qid=0, kind=kind, source=source)]).results[0]
    assert res.status == "ok"
    return res.answer


# ----------------------------------------------------------------------
# Batched-vs-sequential equivalence (the acceptance bit-identity gate)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["bfs", "sssp", "ppr"])
def test_batched_matches_sequential_bitwise(kind):
    config = serve_config()
    sources = [3, 59, 140, 201]
    eng = ServeEngine(config)
    batched = eng.drain([
        Query(qid=i, kind=kind, source=s) for i, s in enumerate(sources)
    ])
    assert [b["size"] for b in eng.batch_log] == [len(sources)]
    for i, s in enumerate(sources):
        got = batched.results[i].answer
        want = solo_answer(kind, s, config)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), f"{kind} source {s} diverged"


@pytest.mark.parametrize("layer", ["lci", "mpi-probe", "mpi-rma"])
def test_ppr_bit_identity_across_layers(layer):
    """Float batching must be schedule-independent on every layer."""
    config = serve_config(layer=layer)
    sources = [7, 33, 180]
    eng = ServeEngine(config)
    batched = eng.drain([
        Query(qid=i, kind="ppr", source=s) for i, s in enumerate(sources)
    ])
    for i, s in enumerate(sources):
        want = solo_answer("ppr", s, config)
        assert np.array_equal(batched.results[i].answer, want)


def test_batched_matches_sequential_under_faults():
    """Equivalence holds while LCI's recovery protocol absorbs drops."""
    config = serve_config(fault_plan="drop-5pct")
    clean = serve_config()
    sources = [11, 87, 222]
    for kind in ("bfs", "sssp", "ppr"):
        eng = ServeEngine(config)
        batched = eng.drain([
            Query(qid=i, kind=kind, source=s)
            for i, s in enumerate(sources)
        ])
        for i, s in enumerate(sources):
            res = batched.results[i]
            assert res.status == "ok"
            want = solo_answer(kind, s, clean)
            assert np.array_equal(res.answer, want), (kind, s)


def test_batched_answers_match_references():
    graph = cached_graph("rmat", SCALE, 1, True)
    sources = (5, 100, 200)
    for app in (MultiSourceBfs(sources), MultiSourceSssp(sources)):
        eng = ServeEngine(serve_config())
        rep = eng.drain([
            Query(qid=i, kind=app.name.split("-")[0], source=s)
            for i, s in enumerate(sources)
        ])
        ref = app.reference(graph)
        for i in range(len(sources)):
            assert np.array_equal(rep.results[i].answer, ref[:, i])
    ppr = MultiSourcePageRank(sources, rounds=5)
    eng = ServeEngine(serve_config())
    rep = eng.drain([
        Query(qid=i, kind="ppr", source=s) for i, s in enumerate(sources)
    ])
    ref = ppr.reference(graph)
    for i in range(len(sources)):
        assert np.allclose(rep.results[i].answer, ref[:, i],
                           rtol=1e-9, atol=1e-12)


def test_kcore_same_k_share_one_execution():
    eng = ServeEngine(serve_config())
    rep = eng.drain([
        Query(qid=0, kind="kcore", source=4, k=2),
        Query(qid=1, kind="kcore", source=9, k=2),
        Query(qid=2, kind="kcore", source=9, k=3),
    ])
    ok = {r.query.qid: r for r in rep.results}
    # Same k rides one batch; different k needs its own.
    assert ok[0].batch_id == ok[1].batch_id
    assert ok[2].batch_id != ok[0].batch_id
    assert np.array_equal(ok[0].answer, ok[1].answer)


# ----------------------------------------------------------------------
# Cache behavior
# ----------------------------------------------------------------------
def test_cache_hit_and_version_invalidation():
    eng = ServeEngine(serve_config())
    first = eng.drain([Query(qid=0, kind="bfs", source=17)])
    assert first.results[0].cache_hit is False
    second = eng.drain([Query(qid=1, kind="bfs", source=17)])
    assert second.results[0].cache_hit is True
    assert np.array_equal(second.results[0].answer,
                          first.results[0].answer)
    eng.bump_graph_version()
    third = eng.drain([Query(qid=2, kind="bfs", source=17)])
    assert third.results[0].cache_hit is False
    assert third.results[0].graph_version == 1


def test_result_cache_lru_and_stats():
    cache = ResultCache(capacity=2)
    a, b, c = (np.arange(3), np.arange(3) + 1, np.arange(3) + 2)
    cache.put(0, ("bfs", 1), a)
    cache.put(0, ("bfs", 2), b)
    assert cache.get(0, ("bfs", 1)) is a      # 1 now most recent
    cache.put(0, ("bfs", 3), c)               # evicts 2
    assert cache.get(0, ("bfs", 2)) is None
    assert cache.get(0, ("bfs", 1)) is a
    assert cache.evictions == 1
    assert cache.invalidate_before(1) == 2
    assert len(cache) == 0


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
def test_admission_rejects_past_max_pending():
    ctrl = AdmissionController(AdmissionConfig(max_pending=2))
    assert ctrl.admit(0) == (True, "")
    assert ctrl.admit(1) == (True, "")
    admitted, reason = ctrl.admit(2)
    assert not admitted and "queue full" in reason
    assert ctrl.rejected_depth == 1


def test_admission_saturation_gate_needs_backlog():
    cfg = AdmissionConfig(saturation_threshold=0.5,
                          saturation_min_pending=4)
    ctrl = AdmissionController(cfg)
    ctrl.observe_batch(1.0, 0.9)     # 90% comm fraction
    assert ctrl.admit(2)[0]          # below min backlog: admitted
    admitted, reason = ctrl.admit(4)
    assert not admitted and "saturated" in reason


def test_service_rejects_under_pressure_deterministically():
    config = serve_config(
        admission=AdmissionConfig(max_pending=4),
    )
    qs = [Query(qid=i, kind="bfs", source=i * 3 + 1, arrival=0.0)
          for i in range(10)]
    rep1 = ServeEngine(config).drain(list(qs))
    rep2 = ServeEngine(config).drain(list(qs))
    rejected1 = [r.query.qid for r in rep1.results
                 if r.status == "rejected"]
    rejected2 = [r.query.qid for r in rep2.results
                 if r.status == "rejected"]
    assert rejected1 == rejected2
    assert len(rejected1) == 6       # 4 admitted at t=0, the rest shed
    for r in rep1.results:
        if r.status == "rejected":
            assert "queue full" in r.reason


# ----------------------------------------------------------------------
# Graceful degradation
# ----------------------------------------------------------------------
def test_fault_hang_fails_only_the_batch():
    """MPI has no recovery protocol: a dropped packet hangs its batch;
    the service must fail those queries and keep serving the rest."""
    config = serve_config(layer="mpi-probe", fault_plan="drop-1pct")
    eng = ServeEngine(config)
    qs = [Query(qid=i, kind="bfs", source=i * 11 + 2, arrival=0.002 * i)
          for i in range(4)]
    rep = eng.drain(qs)
    statuses = {r.query.qid: r.status for r in rep.results}
    assert len(statuses) == 4
    assert "failed" in set(statuses.values())
    failed = [r for r in rep.results if r.status == "failed"]
    for r in failed:
        assert r.reason == "LostCompletionError"
    # The clock advanced past every failure and later queries were
    # still scheduled (served or failed — never silently lost).
    assert rep.clock > 0


def test_run_serve_chaos_reports_graceful():
    from repro.faults.harness import run_serve_chaos

    spec = TapeSpec(seed=3, num_queries=10, scale=SCALE, mean_gap=1e-4)
    report = run_serve_chaos(serve_config(), spec, "drop-5pct")
    assert report.graceful
    assert report.baseline_counts.get("ok") == 10
    assert report.answer_mismatches == 0


# ----------------------------------------------------------------------
# CLI smoke
# ----------------------------------------------------------------------
def test_cli_serve_smoke(tmp_path, capsys):
    from repro.cli import main

    report_path = tmp_path / "report.json"
    tape_path = tmp_path / "tape.json"
    rc = main([
        "serve", "--scale", str(SCALE), "--hosts", "4", "--layer", "lci",
        "--tape-queries", "6", "--tape-gap", "0.0001",
        "--report", str(report_path),
        "--save-tape", str(tape_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "queries" in out and "latency" in out
    doc = json.loads(report_path.read_text())
    for field in ("p50_us", "p95_us", "p99_us"):
        assert field in doc["latency"]
    assert "queries_per_sec" in doc["throughput"]
    # The saved tape replays cleanly.
    rc = main([
        "serve", "--scale", str(SCALE), "--hosts", "4",
        "--tape", str(tape_path),
    ])
    assert rc == 0


def test_cli_bench_serve_check_detects_drift(tmp_path):
    from repro.bench.serve_bench import compare_bench_docs
    from repro.obs.atomic import canonical_json

    doc = {"format": "repro-bench-serve/v1",
           "serve": {"throughput": {"queries_per_sec": 10.0}}}
    same = json.loads(canonical_json(doc))
    assert compare_bench_docs(doc, same) == []
    drifted = {"format": "repro-bench-serve/v1",
               "serve": {"throughput": {"queries_per_sec": 11.0}}}
    diffs = compare_bench_docs(doc, drifted)
    assert diffs and "queries_per_sec" in diffs[0]


# ----------------------------------------------------------------------
# Programs: validation edges
# ----------------------------------------------------------------------
def test_batched_program_factory_validation():
    with pytest.raises(ValueError):
        make_batched_program("nope", (1,))
    with pytest.raises(ValueError):
        MultiSourceBfs(())
    with pytest.raises(ValueError):
        MultiSourcePageRank((1,), rounds=0)
    app = make_batched_program("bfs", (1, 2, 3))
    assert app.field_bytes == 24


def test_query_validation_and_roundtrip():
    with pytest.raises(ValueError):
        Query(qid=0, kind="dijkstra", source=1)
    q = Query(qid=3, kind="kcore", source=7, arrival=0.5, k=4)
    assert Query.from_row(q.as_row()) == q
    assert q.cache_key() == ("kcore", 4)
    assert q.batch_key() == ("kcore", 4)
    assert Query(qid=0, kind="bfs", source=9).batch_key() == ("bfs",)


def test_tape_generator_respects_spec():
    spec = TapeSpec(seed=11, num_queries=25, scale=6,
                    mix=(("bfs", 1.0),), k_choices=(3,))
    tape = generate_tape(spec)
    assert len(tape) == 25
    assert all(q.kind == "bfs" for q in tape)
    assert all(0 <= q.source < 64 for q in tape)
    arrivals = [q.arrival for q in tape]
    assert arrivals == sorted(arrivals)
    assert all(a > 0 for a in arrivals)
