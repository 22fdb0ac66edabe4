"""Tests for the benchmark harness: reports, scenarios, microbench API,
and the committed ``BENCH_core.json`` rows."""

import json
from pathlib import Path

import pytest

from repro.bench.core_bench import CANONICAL_SCENARIOS, core_benchmark
from repro.bench.micro import message_rate, pingpong_latency
from repro.bench.report import format_seconds, format_table, geomean_speedup
from repro.bench.scenarios import Scenario, cached_graph, run_scenario
from repro.bench.serve_bench import compare_bench_docs


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------
def test_format_seconds_units():
    assert format_seconds(2.5) == "2.50s"
    assert format_seconds(3.2e-3) == "3.20ms"
    assert format_seconds(4.56e-6) == "4.56us"


def test_format_table_alignment():
    rows = [{"a": 1, "bb": "xx"}, {"a": 100, "bb": "y"}]
    out = format_table(rows)
    lines = out.splitlines()
    assert len(lines) == 4  # header, rule, two rows
    assert all(len(l) == len(lines[0]) for l in lines)
    assert "bb" in lines[0]


def test_format_table_explicit_columns():
    rows = [{"a": 1, "b": 2}]
    out = format_table(rows, columns=["b"])
    assert "a" not in out.splitlines()[0]


def test_format_table_empty():
    assert format_table([]) == "(no rows)"


def test_geomean_speedup():
    base = {"x": 2.0, "y": 8.0}
    fast = {"x": 1.0, "y": 2.0}
    assert geomean_speedup(base, fast) == pytest.approx((2 * 4) ** 0.5)


def test_geomean_speedup_requires_matching_keys():
    with pytest.raises(ValueError, match="matching"):
        geomean_speedup({"x": 1.0}, {"y": 1.0})


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------
def test_cached_graph_identity():
    g1 = cached_graph("rmat", 7, 1, False)
    g2 = cached_graph("rmat", 7, 1, False)
    assert g1 is g2
    assert cached_graph("rmat", 7, 2, False) is not g1


def test_scenario_label():
    sc = Scenario(app="bfs", graph="rmat", scale=10, hosts=8, layer="lci")
    assert sc.label() == "abelian/bfs/rmat10@8h/lci"


def test_run_scenario_basic():
    sc = Scenario(app="bfs", graph="rmat", scale=8, hosts=4, layer="lci")
    m = run_scenario(sc)
    assert m.app == "bfs" and m.num_hosts == 4
    assert m.total_seconds > 0
    assert m.policy == "cvc"


def test_run_scenario_gemini_edge_cut():
    sc = Scenario(
        app="bfs", graph="rmat", scale=8, hosts=4, layer="mpi-probe",
        system="gemini",
    )
    m = run_scenario(sc)
    assert m.policy == "edge-cut"


def test_run_scenario_gemini_rma_rejected():
    sc = Scenario(
        app="bfs", graph="rmat", scale=8, hosts=4, layer="mpi-rma",
        system="gemini",
    )
    with pytest.raises(ValueError, match="Gemini"):
        run_scenario(sc)


def test_run_scenario_unknown_system():
    sc = Scenario(
        app="bfs", graph="rmat", scale=8, hosts=2, layer="lci",
        system="powergraph",
    )
    with pytest.raises(ValueError, match="unknown system"):
        run_scenario(sc)


def test_run_scenario_sssp_gets_weights():
    sc = Scenario(app="sssp", graph="rmat", scale=8, hosts=4, layer="lci")
    m = run_scenario(sc)
    assert m.app == "sssp" and m.rounds > 0


def test_run_scenario_stampede1_scales_mpi_costs():
    base = Scenario(
        app="pagerank", graph="kron", scale=9, hosts=8,
        layer="mpi-probe", pagerank_rounds=5,
    )
    s1 = Scenario(
        app="pagerank", graph="kron", scale=9, hosts=8,
        layer="mpi-probe", machine="stampede1", pagerank_rounds=5,
    )
    m2 = run_scenario(base)
    m1 = run_scenario(s1)
    # Faster cores: cheaper software path per message on Stampede1.
    assert m1.total_seconds < m2.total_seconds


def test_run_scenario_pagerank_round_cap():
    sc = Scenario(
        app="pagerank", graph="rmat", scale=8, hosts=2, layer="lci",
        pagerank_rounds=3,
    )
    assert run_scenario(sc).rounds == 3


def test_run_scenario_lci_pool_overrides():
    sc = Scenario(
        app="bfs", graph="rmat", scale=8, hosts=2, layer="lci",
        lci_pool_packets_per_host=0, lci_pool_packets_min=16,
        lci_packet_bytes=2048,
    )
    m = run_scenario(sc)
    # The fixed pool footprint reflects the override: 16 x 2 KiB.
    assert min(m.footprint_per_host) >= 16 * 2048


def test_run_scenario_work_scale_inflates_compute_only():
    a = Scenario(app="pagerank", graph="rmat", scale=9, hosts=4,
                 layer="lci", pagerank_rounds=5)
    b = Scenario(app="pagerank", graph="rmat", scale=9, hosts=4,
                 layer="lci", pagerank_rounds=5, work_scale=10.0)
    ma, mb = run_scenario(a), run_scenario(b)
    assert mb.compute_seconds == pytest.approx(10 * ma.compute_seconds, rel=1e-6)


# ---------------------------------------------------------------------------
# micro API validation
# ---------------------------------------------------------------------------
def test_pingpong_rejects_unknown_interface():
    with pytest.raises(ValueError, match="unknown interface"):
        pingpong_latency("tcp", 8)


def test_message_rate_rejects_unknown_interface():
    with pytest.raises(ValueError, match="unknown interface"):
        message_rate("tcp", 2)


def test_pingpong_monotone_in_size():
    small = pingpong_latency("queue", 8, iters=10)
    big = pingpong_latency("queue", 65536, iters=10)
    assert big > small


# ---------------------------------------------------------------------------
# committed BENCH_core.json rows
# ---------------------------------------------------------------------------
def test_core_bench_reproduces_committed_rows():
    """Every canonical scenario below 128 hosts (all three layers, both
    engines) reproduces its committed row: simulated times, work counts
    and comm fingerprints.  The per-event protocol checks run on every
    run, so this pins that they never perturb one."""
    committed = json.loads(
        (Path(__file__).resolve().parents[1] / "BENCH_core.json").read_text())
    rows = {row["label"]: row for row in committed["scenarios"]}
    small = [sc for sc in CANONICAL_SCENARIOS if sc.hosts < 128]
    assert len(small) == 5
    assert {sc.layer for sc in small} == {"lci", "mpi-probe", "mpi-rma"}
    assert {sc.system for sc in small} == {"abelian", "gemini"}
    fresh = core_benchmark(small)
    assert compare_bench_docs(fresh, {
        "format": committed["format"],
        "scenarios": [rows[sc.label()] for sc in small],
    }) == []
