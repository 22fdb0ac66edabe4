"""Tests for repro.obs: lifecycle tracing, probes, critical path, exporters.

The load-bearing guarantees pinned here:

* installing an :class:`ObsContext` leaves ``RunMetrics`` bit-identical
  (pure observation);
* per-message stage durations telescope to exactly the end-to-end
  latency (the critical-path analyzer's core invariant);
* the per-protocol chains match the paper's narrative — MPI-Probe
  messages accrue ``match_wait`` (two-sided matching), LCI eager sends
  never do;
* exporters produce documents their validators accept.
"""

import json
import os

import pytest

from repro.bench.scenarios import Scenario, build_engine
from repro.obs import (
    ObsContext,
    build_timelines,
    explain_report,
    load_timeline,
    round_attribution,
    save_prometheus,
    save_timeline,
    slowest,
    stage_attribution,
    stall_attribution,
    to_chrome_trace,
    to_prometheus,
    validate_chrome_trace,
    validate_prometheus,
    validate_timeline,
)
from repro.obs.sampler import SAMPLE_PERIOD

LAYERS = ("lci", "mpi-probe", "mpi-rma")


def bfs8(layer: str) -> Scenario:
    """BFS on 8 hosts — the acceptance-criteria scenario."""
    return Scenario(app="bfs", graph="rmat", scale=8, hosts=8, layer=layer)


@pytest.fixture(scope="module")
def traced_runs():
    """One obs-instrumented run per layer (module-cached: runs are slow)."""
    out = {}
    for layer in LAYERS:
        plain = build_engine(bfs8(layer)).run()
        obs = ObsContext()
        metrics = build_engine(bfs8(layer), obs=obs).run()
        out[layer] = (plain, metrics, obs)
    return out


# ---------------------------------------------------------------------------
# Bit-identical guarantee
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("layer", LAYERS)
def test_obs_leaves_run_metrics_bit_identical(traced_runs, layer):
    plain, traced, _obs = traced_runs[layer]
    assert traced.total_seconds == plain.total_seconds
    assert traced.rounds == plain.rounds
    assert traced.blobs_sent == plain.blobs_sent
    assert traced.updates_shipped == plain.updates_shipped
    assert traced.compute_per_round == plain.compute_per_round
    assert traced.row() == plain.row()


# ---------------------------------------------------------------------------
# Telescoping invariant + per-protocol chains
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("layer", LAYERS)
def test_stage_durations_sum_to_end_to_end_latency(traced_runs, layer):
    _plain, _m, obs = traced_runs[layer]
    timelines = build_timelines(obs)
    assert timelines, "run produced no traced messages"
    for tl in timelines:
        total = sum(dur for _stage, dur in tl.stage_durations())
        assert total == pytest.approx(tl.latency, abs=1e-12), tl.trace
        # Events never run backwards in time.
        ts = [t for _s, _h, t, _a in tl.events]
        assert ts == sorted(ts)


def test_mpi_probe_accrues_match_wait_lci_eager_does_not(traced_runs):
    _p, _m, probe_obs = traced_runs["mpi-probe"]
    att = stage_attribution(build_timelines(probe_obs))
    assert att["mpi-probe"].get("match_wait", 0.0) > 0.0

    _p, _m, lci_obs = traced_runs["lci"]
    att = stage_attribution(build_timelines(lci_obs))
    assert att["lci"].get("match_wait", 0.0) == 0.0
    # LCI eager messages park in the MPMC queue instead.
    assert att["lci"].get("queue_wait", 0.0) > 0.0


def test_lci_eager_chain_order(traced_runs):
    _p, _m, obs = traced_runs["lci"]
    for tl in build_timelines(obs):
        stages = [s for s, _h, _t, _a in tl.events]
        if "complete" not in stages:
            continue
        # Eager chain: the canonical order, no matching stages.
        assert "match_wait" not in stages
        assert stages.index("api") < stages.index("lib")
        assert stages.index("lib") < stages.index("inject")
        assert stages.index("inject") < stages.index("rx")
        assert stages[-1] == "complete"


def test_rma_puts_accrue_epoch_wait(traced_runs):
    _p, _m, obs = traced_runs["mpi-rma"]
    att = stage_attribution(build_timelines(obs))
    assert att["mpi-rma"].get("epoch_wait", 0.0) > 0.0
    # One-sided: no matching engine, no receive queue involved.
    assert "match_wait" not in att["mpi-rma"]
    assert "queue_wait" not in att["mpi-rma"]


def test_rma_records_epoch_stalls(traced_runs):
    _p, _m, obs = traced_runs["mpi-rma"]
    kinds = {s.kind for s in obs.stalls}
    assert kinds & {
        "epoch_start_wait", "epoch_flush_wait",
        "epoch_close_wait", "epoch_collect_wait",
    }
    for s in obs.stalls:
        assert s.end > s.start


def test_round_attribution_recovers_phases(traced_runs):
    _p, metrics, obs = traced_runs["lci"]
    per_round = round_attribution(build_timelines(obs))
    rounds = {rnd for (_l, rnd, _pat) in per_round if rnd is not None}
    patterns = {pat for (_l, _r, pat) in per_round if pat is not None}
    assert rounds == set(range(metrics.rounds))
    assert patterns == {"reduce", "bcast"}


def test_trace_ids_are_deterministic(traced_runs):
    _p, _m, obs = traced_runs["lci"]
    obs2 = ObsContext()
    build_engine(bfs8("lci"), obs=obs2).run()
    ids = [ev.trace for ev in obs.events]
    assert ids == [ev.trace for ev in obs2.events]
    assert [ev.t for ev in obs.events] == [ev.t for ev in obs2.events]


def test_events_stamped_at_another_instant_export_in_time_order():
    obs = ObsContext()
    obs.emit("t:0>1:0", "api", 0)                    # t = 0.0 (no env)
    obs.emit("t:0>1:0", "wire", 0, at=3.0)           # reported early
    obs.emit("t:0>1:1", "api", 0, at=1.0)
    obs.emit("t:0>1:0", "inject", 0, at=1.0)         # tie: emission order
    obs.emit("t:0>1:0", "lib", 0, at=0.5, op="x")    # reported late
    rows = obs.as_timeline()["events"]
    assert [(r[1], r[3]) for r in rows] == [
        ("api", 0.0), ("lib", 0.5), ("api", 1.0), ("inject", 1.0),
        ("wire", 3.0),
    ]
    assert rows[1][4] == {"op": "x"}  # `at` is not an event argument
    # A live context and its exported document read the same.
    live = [tl.events for tl in build_timelines(obs)]
    assert live == [tl.events for tl in build_timelines(obs.as_timeline())]


@pytest.mark.parametrize("layer", LAYERS)
def test_exported_timeline_is_time_ordered(traced_runs, layer):
    _p, _m, obs = traced_runs[layer]
    times = [row[3] for row in obs.as_timeline()["events"]]
    assert times == sorted(times)
    # Each layer reports some stage from a wake other than the one the
    # stage is entered at (a chained delay elides that one), so the
    # order of emission alone is not the order of time.
    assert [ev.t for ev in obs.events] != times


# ---------------------------------------------------------------------------
# Probes and sampler
# ---------------------------------------------------------------------------
def test_sampler_populates_queue_probes(traced_runs):
    _p, metrics, obs = traced_runs["lci"]
    series = obs.series("lci.pool_free", 0)
    assert series is not None and len(series) > 0
    # Pool starts full; every sample is a sane occupancy reading.
    assert all(v >= 0 for v in series.values)
    # Samples tick on the configured period, starting at t=0; the
    # sampler self-stops within one period of the last protocol event.
    assert series.times == [i * SAMPLE_PERIOD for i in range(len(series))]
    assert max(series.times) <= metrics.total_seconds + SAMPLE_PERIOD


def test_mpi_probe_registers_matching_probes(traced_runs):
    _p, _m, obs = traced_runs["mpi-probe"]
    names = {name for (name, _host) in obs.samples}
    assert "mpi.unexpected_depth" in names
    assert "mpi.posted_depth" in names
    assert "nic.rx_depth" in names


def test_register_probe_replaces_reader_keeps_series():
    obs = ObsContext()
    obs.register_probe("q", 0, lambda: 1)
    obs.sample_once()
    first = obs.series("q", 0)
    obs.register_probe("q", 0, lambda: 2)
    obs.sample_once()
    assert obs.series("q", 0) is first
    assert first.values == [1, 2]


# ---------------------------------------------------------------------------
# Exporters + validators
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("layer", LAYERS)
def test_exports_pass_validators(traced_runs, layer, tmp_path):
    _p, metrics, obs = traced_runs[layer]
    timeline = obs.as_timeline(meta={
        "total_seconds": metrics.total_seconds,
        "rounds": metrics.rounds,
    })
    assert validate_timeline(timeline) == []
    assert validate_chrome_trace(to_chrome_trace(timeline)) == []
    assert validate_prometheus(to_prometheus(timeline)) == []


def test_timeline_round_trips_through_disk(traced_runs, tmp_path):
    _p, _m, obs = traced_runs["lci"]
    timeline = obs.as_timeline(meta={"scenario": "t"})
    path = str(tmp_path / "obs.json")
    save_timeline(path, timeline)
    loaded = load_timeline(path)
    assert loaded == json.loads(json.dumps(timeline))
    assert build_timelines(loaded)[0].latency == pytest.approx(
        build_timelines(timeline)[0].latency
    )
    # Atomic write leaves no temp droppings.
    assert os.listdir(tmp_path) == ["obs.json"]


def test_chrome_trace_has_cross_host_flow_arrows(traced_runs):
    _p, _m, obs = traced_runs["lci"]
    doc = to_chrome_trace(obs.as_timeline())
    phases = [e["ph"] for e in doc["traceEvents"]]
    assert "s" in phases and "f" in phases
    starts = {e["id"] for e in doc["traceEvents"] if e["ph"] == "s"}
    finishes = {e["id"] for e in doc["traceEvents"] if e["ph"] == "f"}
    assert starts == finishes and starts
    # Metadata rows are stable and sorted per host.
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert {m["name"] for m in meta} == {
        "process_name", "process_sort_index"
    }


def test_prometheus_export_content(traced_runs, tmp_path):
    _p, metrics, obs = traced_runs["mpi-probe"]
    timeline = obs.as_timeline(meta={"total_seconds": metrics.total_seconds})
    text = to_prometheus(timeline)
    assert 'repro_obs_stage_seconds_total{layer="mpi-probe",stage="match_wait"}' in text
    assert 'repro_obs_messages_total{layer="mpi-probe"}' in text
    assert "repro_run_total_seconds" in text
    assert text.endswith("\n")
    path = str(tmp_path / "m.prom")
    save_prometheus(path, timeline)
    with open(path) as f:
        assert f.read() == text


def test_validators_reject_malformed_documents():
    assert validate_timeline({"kind": "nope"}) != []
    bad_stage = {
        "version": 1, "kind": "repro-obs-timeline", "meta": {},
        "columns": ["trace", "stage", "host", "t", "args"],
        "events": [["t:0>1:0", "warp", 0, 0.0, {}]],
        "samples": [], "stalls": [],
    }
    assert any("warp" in e for e in validate_timeline(bad_stage))
    assert validate_chrome_trace({"traceEvents": [{"ph": "s", "id": 7}]}) != []
    assert validate_prometheus("repro total\n") != []
    assert validate_prometheus("x 1")  # missing trailing newline


# ---------------------------------------------------------------------------
# Critical-path analysis / explain
# ---------------------------------------------------------------------------
def test_slowest_orders_by_latency(traced_runs):
    _p, _m, obs = traced_runs["lci"]
    worst = slowest(build_timelines(obs), n=3)
    assert len(worst) == 3
    lats = [tl.latency for tl in worst]
    assert lats == sorted(lats, reverse=True)


def test_stall_attribution_totals():
    rows = [[0, "pool_wait", 1.0, 3.0], [1, "pool_wait", 0.0, 0.5]]
    assert stall_attribution(rows) == {"pool_wait": pytest.approx(2.5)}


def test_explain_report_renders_stage_table(traced_runs):
    _p, metrics, obs = traced_runs["mpi-probe"]
    timeline = obs.as_timeline(meta={"total_seconds": metrics.total_seconds})
    report = explain_report(timeline, top=3, per_round=True)
    assert "stage attribution" in report
    assert "match_wait" in report
    assert "slowest 3 messages" in report
    assert "per-round dominant stages" in report
    assert "probe peaks" in report


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------
def test_cli_run_obs_and_explain(tmp_path, capsys):
    from repro.cli import main

    obs_path = str(tmp_path / "obs.json")
    chrome = str(tmp_path / "c.json")
    prom = str(tmp_path / "m.prom")
    rc = main([
        "run", "--app", "bfs", "--graph", "rmat", "--scale", "8",
        "--hosts", "8", "--layer", "mpi-probe",
        "--obs", obs_path, "--obs-chrome", chrome, "--obs-prom", prom,
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "stage attribution" in out
    with open(chrome) as f:
        assert validate_chrome_trace(json.load(f)) == []
    with open(prom) as f:
        assert validate_prometheus(f.read()) == []

    rc = main(["explain", obs_path, "--check", "--per-round"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "match_wait" in out
    assert "traced messages" in out


def test_cli_explain_rejects_garbage(tmp_path, capsys):
    from repro.cli import main

    path = str(tmp_path / "bad.json")
    with open(path, "w") as f:
        json.dump({"kind": "not-a-timeline"}, f)
    rc = main(["explain", path, "--check"])
    assert rc == 1
    assert "invalid timeline" in capsys.readouterr().err


def test_cli_chaos_obs(tmp_path, capsys):
    from repro.cli import main

    obs_path = str(tmp_path / "chaos-obs.json")
    rc = main([
        "chaos", "--plan", "flaky-link", "--layer", "lci",
        "--scale", "8", "--hosts", "4", "--obs", obs_path,
    ])
    assert rc == 0
    timeline = load_timeline(obs_path)
    assert validate_timeline(timeline) == []
    assert timeline["meta"]["plan"] == "flaky-link"
    # The fault plan drops packets; the obs stream records the loss.
    stages = {row[1] for row in timeline["events"]}
    assert "dropped" in stages


def test_latency_mean_adds_left_to_right():
    """The mean is the plain float sum, not a compensated one (which
    Python 3.12's builtin ``sum`` is), so it has the same bits on every
    interpreter."""
    from repro.obs.latency import LatencySummary

    summary = LatencySummary.from_values([0.1] * 10)
    assert summary.mean == 0.9999999999999999 / 10
    assert summary.mean != 1.0 / 10
