"""Tests for repro.obs.profile and the bench-core harness.

The load-bearing guarantees pinned here:

* installing a :class:`ProfileContext` leaves ``RunMetrics``
  bit-identical across every comm layer and both engines (pure
  observation);
* work counts are read once, off the finished engine: a profiled run's
  counters equal ``BspEngine.work_counts()`` of a plain and of a
  commstats run, a run that raises still adds its counts to a shared
  context, the fingerprint is a pure function of the scenario, and a
  finished engine's totals survive the engine;
* the region tree's self/cumulative arithmetic is exact under an
  injectable clock, for both spellings of the one primitive (``cell``
  bracket, ``timed`` wrapper), sampled or not, and a context shared by
  several engines adds their calls up;
* exports (JSON profile document, collapsed stacks) pass their
  validators;
* ``BENCH_core.json`` drift checking catches any change, and its
  ``sim.comm`` blocks are the traffic gate.
"""

import gc
import json
import weakref

import pytest

from repro.bench.core_bench import core_benchmark
from repro.bench.scenarios import Scenario, build_engine
from repro.bench.serve_bench import check_against_file
from repro.cli import main
from repro.engine.bsp import BspEngine
from repro.faults import LostCompletionError
from repro.obs import (
    CommStatsContext,
    ProfileContext,
    RegionProfiler,
    validate_collapsed,
    validate_profile_doc,
)
from repro.obs.atomic import canonical_json
from repro.obs.profile import LEAF_SAMPLE_STRIDE

LAYERS = ("lci", "mpi-probe", "mpi-rma")


def bfs8(layer: str, system: str = "abelian") -> Scenario:
    return Scenario(
        app="bfs", graph="rmat", scale=8, hosts=4, layer=layer,
        system=system,
    )


class FakeClock:
    """Deterministic clock: every read advances by ``step``."""

    def __init__(self, step=1.0):
        self.t = 0.0
        self.step = step

    def __call__(self):
        self.t += self.step
        return self.t


# ---------------------------------------------------------------------------
# RegionProfiler arithmetic
# ---------------------------------------------------------------------------

def test_region_nesting_self_and_cum():
    clock = FakeClock()
    prof = RegionProfiler(clock=clock)
    with prof.cell("outer"):             # t=1
        with prof.cell("outer;inner"):   # t=2
            pass                         # t=3: inner cum = 1
    #                                      t=4: outer cum = 3
    rows = {r["path"]: r for r in prof.rows()}
    assert rows["outer"]["cum_s"] == 3.0
    assert rows["outer"]["self_s"] == 2.0  # 3 minus inner's 1
    assert rows["outer;inner"]["cum_s"] == 1.0
    assert rows["outer;inner"]["self_s"] == 1.0
    assert rows["outer"]["calls"] == 1
    assert rows["outer;inner"]["depth"] == 1
    assert rows["outer;inner"]["name"] == "inner"


def test_timed_equivalent_to_cell_bracket():
    """The wrapper form builds the same tree as the bracket form."""
    a, b = RegionProfiler(clock=FakeClock()), RegionProfiler(clock=FakeClock())

    with a.cell("outer"):
        with a.cell("outer;hot"):
            pass

    hot = b.timed("outer;hot", lambda x, y=0: x + y)
    with b.cell("outer"):
        assert hot(1, 2) == 3  # arguments and result pass through

    with pytest.raises(TypeError):  # positional only, and loud about it
        hot(1, y=2)

    assert a.rows() == b.rows()


def test_timed_counts_a_call_that_raises():
    prof = RegionProfiler(clock=FakeClock())

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        prof.timed("r", boom)()
    (row,) = prof.rows()
    assert row["calls"] == 1 and row["cum_s"] == 1.0


def test_rows_build_tree_from_paths():
    """Rows come out depth-first in name order whatever the order the
    cells were made in; an ancestor nobody timed is a zero row, and a
    cell that never fired is no row at all."""
    prof = RegionProfiler(clock=FakeClock())
    prof.cell("never;fired")
    for path in ("b", "a;z;leaf", "a;c", "at_root"):
        with prof.cell(path):
            pass
    rows = prof.rows()
    assert [r["path"] for r in rows] == [
        "a", "a;c", "a;z", "a;z;leaf", "at_root", "b",
    ]
    by_path = {r["path"]: r for r in rows}
    assert by_path["a"] == {
        "path": "a", "name": "a", "depth": 0, "calls": 0,
        "cum_s": 0.0, "self_s": 0.0,  # floored: children exceed it
    }
    assert by_path["a;z;leaf"]["depth"] == 2
    assert by_path["a;z;leaf"]["cum_s"] == 1.0


@pytest.mark.parametrize("bracket", [False, True])
def test_sampled_cell_scales_cum_and_keeps_calls_exact(bracket):
    """Every STRIDE-th call reads the clock; cum is scaled back up at
    report time and the call count stays exact."""
    prof = RegionProfiler(clock=FakeClock())
    n = 3 * LEAF_SAMPLE_STRIDE + 1
    if bracket:
        for _ in range(n):
            with prof.cell("hot", sampled=True):
                pass
    else:
        hot = prof.timed("hot", lambda: None, sampled=True)
        for _ in range(n):
            hot()
    (row,) = prof.rows()
    assert row["calls"] == n
    assert row["cum_s"] == 3.0 * LEAF_SAMPLE_STRIDE  # 3 timed calls x 1 tick


def test_cell_cannot_be_both_sampled_and_unsampled():
    prof = RegionProfiler(clock=FakeClock())
    prof.cell("r", sampled=True)
    with pytest.raises(ValueError):
        prof.cell("r")


def test_shared_path_is_additive():
    """Two components naming one path share one cell: their calls and
    time add up, neither overwrites the other."""
    prof = RegionProfiler(clock=FakeClock())
    first = prof.timed("run;inject", lambda: None)
    second = prof.timed("run;inject", lambda: None)
    first()
    second()
    second()
    with prof.cell("run;inject"):
        pass
    by_path = {r["path"]: r for r in prof.rows()}
    assert by_path["run;inject"]["calls"] == 4
    assert by_path["run;inject"]["cum_s"] == 4.0
    assert prof.rows() == prof.rows()  # reporting changes nothing


def test_region_context_manager_and_repeat_calls():
    clock = FakeClock()
    prof = RegionProfiler(clock=clock)
    for _ in range(3):
        with prof.cell("r"):
            pass
    (row,) = prof.rows()
    assert row["calls"] == 3
    assert row["cum_s"] == 3.0  # one tick per with-block


def test_default_clock_is_monotonic_wall():
    prof = RegionProfiler()
    with prof.cell("a"):
        pass
    (row,) = prof.rows()
    assert row["cum_s"] >= 0.0


# ---------------------------------------------------------------------------
# Work counts
# ---------------------------------------------------------------------------

def test_counter_fingerprint_order_independent():
    a, b = ProfileContext(), ProfileContext()
    a.add_counts({"x": 2, "y": 5})
    b.add_counts({"y": 5})
    b.add_counts({"x": 1})
    b.add_counts({"x": 1})
    assert a.fingerprint() == b.fingerprint()
    assert a.counters_dict() == {"x": 2, "y": 5}
    assert list(b.counters_dict()) == ["x", "y"]  # canonical order


def test_counter_fingerprint_changes_with_values():
    ctx = ProfileContext()
    ctx.add_counts({"x": 1})
    fp = ctx.fingerprint()
    ctx.add_counts({"x": 1})
    assert ctx.fingerprint() != fp


def test_work_counts_hold_nonzero_counts_only():
    eng = build_engine(bfs8("lci"))
    assert eng.work_counts() == {}  # built, not run: nothing counted yet
    eng.run()
    counts = eng.work_counts()
    assert 0 not in counts.values()
    assert not [name for name in counts if name.startswith("mpi.")]
    assert counts["sim.heap_ops"] == (
        counts["sim.events_scheduled"] + counts["sim.events_fired"])


PARITY = [bfs8(layer) for layer in LAYERS] + [
    bfs8("mpi-probe", system="gemini"),
    Scenario(app="bfs", graph="rmat", scale=8, hosts=4, layer="lci",
             fault_plan="drop-5pct"),
]


@pytest.mark.parametrize("sc", PARITY, ids=lambda sc: sc.label())
def test_profiled_counts_equal_work_counts_of_unprofiled_runs(sc):
    ctx = ProfileContext()
    build_engine(sc, profile=ctx).run()
    plain = build_engine(sc)
    plain.run()
    observed = build_engine(sc, commstats=CommStatsContext())
    observed.run()
    assert ctx.counters_dict() == plain.work_counts()
    assert ctx.counters_dict() == observed.work_counts()


def test_shared_context_sums_a_failed_and_a_plain_engine():
    """The serve layer's failed-batch path: an engine whose run raises
    still adds its counts to the shared context."""
    ctx = ProfileContext()
    hung = build_engine(bfs8("mpi-probe"), profile=ctx,
                        fault_plan="drop-5pct")
    with pytest.raises(LostCompletionError):
        hung.run()
    plain = build_engine(bfs8("mpi-probe"), profile=ctx)
    plain.run()
    expected = hung.work_counts()
    assert expected["netapi.pkts_injected"] > 0
    for name, value in plain.work_counts().items():
        expected[name] = expected.get(name, 0) + value
    assert ctx.counters_dict() == expected


# ---------------------------------------------------------------------------
# Bit-identity and determinism on real engine runs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("layer", LAYERS)
def test_profiler_on_is_bit_identical(layer):
    plain = build_engine(bfs8(layer)).run()
    traced = build_engine(bfs8(layer), profile=ProfileContext()).run()
    assert plain.total_seconds == traced.total_seconds
    assert plain.row() == traced.row()


def test_profiler_on_is_bit_identical_gemini():
    sc = bfs8("mpi-probe", system="gemini")
    plain = build_engine(sc).run()
    traced = build_engine(sc, profile=ProfileContext()).run()
    assert plain.row() == traced.row()


@pytest.mark.parametrize("layer", LAYERS)
def test_fingerprint_reproducible_across_repeats(layer):
    fps = set()
    for _ in range(2):
        ctx = ProfileContext()
        build_engine(bfs8(layer), profile=ctx).run()
        fps.add(ctx.fingerprint())
    assert len(fps) == 1


def test_counters_cover_every_layer_prefix():
    ctx = ProfileContext()
    build_engine(bfs8("lci"), profile=ctx).run()
    prefixes = {name.split(".", 1)[0] for name in ctx.counters_dict()}
    for expected in ("sim", "netapi", "lci", "comm", "engine"):
        assert expected in prefixes, prefixes
    ctx = ProfileContext()
    build_engine(bfs8("mpi-probe"), profile=ctx).run()
    assert "mpi" in {n.split(".", 1)[0] for n in ctx.counters_dict()}


def test_regions_cover_the_hot_paths():
    ctx = ProfileContext()
    build_engine(bfs8("lci"), profile=ctx).run()
    paths = {r["name"] for r in ctx.regions.rows()}
    for expected in (
        "sim.engine.run", "netapi.nic.inject", "netapi.nic.deliver",
        "lci.server.progress", "comm.serialization.pack",
        "engine.bsp.scatter",
    ):
        assert expected in paths, sorted(paths)


def assert_nic_regions_count_every_packet(ctx):
    calls = {r["name"]: r["calls"] for r in ctx.regions.rows()}
    counts = ctx.counters_dict()
    assert calls["netapi.nic.inject"] == (
        counts["netapi.pkts_injected"] + counts.get("netapi.tx_full", 0)
    )
    assert calls["netapi.nic.deliver"] == counts["netapi.pkts_delivered"]


def test_shared_context_adds_faulted_and_plain_engines_up():
    """One context over a faulted engine and then a plain one: the NIC
    regions hold both engines' packets (the plain engine used to
    overwrite what the faulted one had added)."""
    ctx = ProfileContext()
    build_engine(bfs8("lci"), profile=ctx, fault_plan="drop-5pct").run()
    build_engine(bfs8("lci"), profile=ctx).run()
    assert_nic_regions_count_every_packet(ctx)


def test_serve_profile_counts_every_batch():
    from repro.serve import ServeConfig, ServeEngine, TapeSpec, generate_tape

    ctx = ProfileContext()
    eng = ServeEngine(
        ServeConfig(scale=8, hosts=4, layer="lci", max_batch=4, ppr_rounds=3),
        profile=ctx,
    )
    tape = generate_tape(
        TapeSpec(seed=3, num_queries=12, scale=8, mean_gap=1e-4)
    )
    eng.drain(tape)
    assert len(eng.batch_log) > 1
    assert_nic_regions_count_every_packet(ctx)


def test_context_does_not_keep_a_finished_engine_alive():
    ctx = ProfileContext()
    eng = build_engine(bfs8("mpi-probe"), profile=ctx)
    eng.run()
    fabric = weakref.ref(eng.fabric)
    before = (ctx.counters_dict(), ctx.fingerprint())
    del eng
    gc.collect()
    assert fabric() is None
    assert (ctx.counters_dict(), ctx.fingerprint()) == before
    assert before[0]["netapi.pkts_injected"] > 0
    assert before[0]["mpi.match_probes"] > 0


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def run_ctx():
    ctx = ProfileContext()
    build_engine(bfs8("lci"), profile=ctx).run()
    return ctx


def test_profile_doc_validates(run_ctx):
    doc = run_ctx.report_dict(meta={"scenario": "bfs8"})
    assert validate_profile_doc(doc) == []
    assert doc["meta"]["scenario"] == "bfs8"


def test_profile_doc_validator_catches_corruption(run_ctx):
    doc = run_ctx.report_dict()
    doc["fingerprint"] = "nope"
    assert validate_profile_doc(doc)
    doc2 = run_ctx.report_dict()
    doc2["regions"][0]["self_s"] = -1.0
    assert validate_profile_doc(doc2)


def test_collapsed_export_validates(run_ctx):
    text = run_ctx.to_collapsed()
    assert validate_collapsed(text) == []
    assert "netapi.nic.inject" in text


def test_collapsed_validator_catches_corruption():
    assert validate_collapsed("bad stack line\n")
    assert validate_collapsed("a;b 1\na;b 2\n")  # duplicate stack
    assert validate_collapsed("a;b 1")  # missing trailing newline


def test_save_json_and_collapsed(tmp_path, run_ctx):
    jpath = tmp_path / "prof.json"
    cpath = tmp_path / "prof.folded"
    run_ctx.save_json(str(jpath), meta={"k": "v"})
    run_ctx.save_collapsed(str(cpath))
    with open(jpath) as fh:
        assert validate_profile_doc(json.load(fh)) == []
    assert validate_collapsed(cpath.read_text()) == []


def test_format_top_and_counters(run_ctx):
    top = run_ctx.format_top(5)
    assert "region" in top and "self%" in top
    table = run_ctx.format_counters()
    assert "fingerprint" in table


# ---------------------------------------------------------------------------
# bench-core harness
# ---------------------------------------------------------------------------

TINY = (Scenario(app="bfs", graph="rmat", scale=7, hosts=2, layer="lci"),)


def test_core_benchmark_shape_and_check(tmp_path):
    doc = core_benchmark(TINY)
    (row,) = doc["scenarios"]
    assert set(row) == {"label", "sim"}  # nothing machine-dependent
    assert row["sim"]["fingerprint"]
    assert row["sim"]["events_fired"] > 0

    path = tmp_path / "BENCH_core.json"
    path.write_text(canonical_json(doc))

    # A regenerated document matches byte for byte...
    doc2 = core_benchmark(TINY)
    assert check_against_file(doc2, str(path)) == []
    assert canonical_json(doc2) == path.read_text()

    # ...while any drift is loud.
    doc3 = json.loads(canonical_json(doc))
    doc3["scenarios"][0]["sim"]["fingerprint"] = "0" * 16
    assert check_against_file(doc3, str(path))


def test_core_benchmark_runs_each_scenario_twice_and_checks_the_replay(
        monkeypatch):
    profiled = []
    run, work_counts = BspEngine.run, BspEngine.work_counts

    def counted_run(self):
        profiled.append(self.profiler is not None)
        return run(self)

    monkeypatch.setattr(BspEngine, "run", counted_run)
    core_benchmark(TINY)
    assert profiled == [True, False]

    def drifting(self):
        counts = work_counts(self)
        if self.profiler is None:
            counts["sim.events_fired"] += 1
        return counts

    monkeypatch.setattr(BspEngine, "work_counts", drifting)
    with pytest.raises(AssertionError, match="work counts not reproducible"):
        core_benchmark(TINY)


def test_comm_volume_change_trips_the_sim_comm_gate(tmp_path):
    doc = core_benchmark(TINY)
    path = tmp_path / "BENCH_core.json"
    path.write_text(canonical_json(doc))
    moved = json.loads(canonical_json(doc))
    comm = moved["scenarios"][0]["sim"]["comm"]
    comm["wire_bytes"] += 1
    comm["fingerprint"] = "0" * 16
    diffs = check_against_file(moved, str(path))
    assert [d.split(":")[0] for d in diffs] == [
        "scenarios[0].sim.comm.fingerprint",
        "scenarios[0].sim.comm.wire_bytes",
    ]


def test_check_against_missing_file(tmp_path):
    doc = {"format": "repro-bench-core/v1", "scenarios": []}
    assert check_against_file(doc, str(tmp_path / "absent.json")) is None


@pytest.mark.parametrize("verb, module, function", [
    ("bench-core", "repro.bench.core_bench", "core_benchmark"),
    ("bench-serve", "repro.bench.serve_bench", "serve_benchmark"),
], ids=["bench-core", "bench-serve"])
def test_bench_check_reads_the_committed_document_first(
        tmp_path, capsys, monkeypatch, verb, module, function):
    import importlib

    def must_not_run(*_args, **_kwargs):
        raise AssertionError("benchmark ran before the --check file was read")

    monkeypatch.setattr(importlib.import_module(module), function,
                        must_not_run)
    missing = str(tmp_path / "MISSING.json")
    assert main([verb, "--check", missing]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot read committed benchmark {missing}\n")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_profile(tmp_path, capsys):
    jpath = str(tmp_path / "p.json")
    cpath = str(tmp_path / "p.folded")
    rc = main([
        "profile", "--app", "bfs", "--graph", "rmat", "--scale", "8",
        "--hosts", "4", "--layer", "lci", "--top", "5",
        "--json", jpath, "--collapsed", cpath,
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "region" in out and "fingerprint" in out
    with open(jpath) as fh:
        assert validate_profile_doc(json.load(fh)) == []
    with open(cpath) as fh:
        assert validate_collapsed(fh.read()) == []


def test_explain_has_no_comm_flag(tmp_path, capsys):
    # Blob matrices come from the comm observatory only: `repro run
    # --obs --comm` or `repro commstats`.
    with pytest.raises(SystemExit) as exc:
        main(["explain", str(tmp_path / "obs.json"), "--comm"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --comm" in capsys.readouterr().err


def test_cli_bench_core_roundtrip(tmp_path, capsys, monkeypatch):
    import repro.bench.core_bench as cb
    monkeypatch.setattr(cb, "CANONICAL_SCENARIOS", TINY)
    path = str(tmp_path / "BENCH_core.json")
    assert main(["bench-core", "--out", path]) == 0
    capsys.readouterr()
    assert main(["bench-core", "--check", path]) == 0
    assert "match" in capsys.readouterr().out
