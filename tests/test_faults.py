"""Unit tests for the fault-injection subsystem (repro.faults)."""

import numpy as np
import pytest

from repro.apps import Bfs, PageRank
from repro.engine import BspEngine, EngineConfig
from repro.faults import (
    NAMED_PLANS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    LostCompletionError,
    get_plan,
)
from repro.graph.generators import rmat
from repro.mpi.exceptions import MPIProtocolError
from repro.netapi.nic import Fabric
from repro.obs import ObsContext, to_chrome_trace
from repro.sanitize import SanitizerError
from repro.sim.engine import Environment
from repro.sim.machine import stampede2

US = 1e-6


# ----------------------------------------------------------------------
# FaultSpec / FaultPlan model
# ----------------------------------------------------------------------
def test_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec("meteor")
    with pytest.raises(ValueError):
        FaultSpec("drop", rate=1.5)
    with pytest.raises(ValueError):
        FaultSpec("reorder", rate=0.1)  # needs positive delay
    with pytest.raises(ValueError):
        FaultSpec("straggler", factor=0.5)  # must slow down, not speed up
    with pytest.raises(ValueError):
        FaultSpec("degrade", bandwidth_factor=0.0)
    with pytest.raises(ValueError):
        FaultSpec("nic_stall", host=0)  # unbounded stall livelocks


def test_spec_windows_and_filters():
    s = FaultSpec("drop", rate=1.0, start=10.0, duration=5.0, src=1)
    assert s.end == 15.0
    assert s.in_window(10.0) and s.in_window(14.999)
    assert not s.in_window(9.999) and not s.in_window(15.0)

    class P:
        src, dst = 1, 2

        class ptype:
            name = "EGR"

    assert s.matches_packet(P, 12.0)
    P.src = 0
    assert not s.matches_packet(P, 12.0)


def test_named_plans_resolve():
    for name in NAMED_PLANS:
        plan = get_plan(name)
        assert isinstance(plan, FaultPlan)
        assert plan.describe()
    assert get_plan("drop-1pct", seed=7).seed == 7
    with pytest.raises(ValueError):
        get_plan("no-such-plan")
    # pass-through for plan objects
    p = FaultPlan(specs=(FaultSpec("drop", rate=0.5),))
    assert get_plan(p) is p
    assert p.needs_reliability
    assert not NAMED_PLANS["straggler"].needs_reliability


# ----------------------------------------------------------------------
# Injector mechanics (no cluster needed)
# ----------------------------------------------------------------------
def test_straggler_dilation_piecewise():
    env = Environment()
    plan = FaultPlan(specs=(
        FaultSpec("straggler", host=0, factor=4.0, start=10.0, duration=8.0),
    ))
    inj = FaultInjector(env, plan)
    # Entirely before the window: unchanged.
    assert inj.dilate(0, 5.0, 0.0) == 5.0
    # Entirely inside: 4x.
    assert inj.dilate(0, 1.0, 11.0) == pytest.approx(4.0)
    # Straddling the start: 2s at full speed, then 1s of work at 4x.
    assert inj.dilate(0, 3.0, 8.0) == pytest.approx(2.0 + 4.0)
    # Work outlasting the window: 2s of work burn the whole 8s window
    # at 4x, the remaining 1s runs at full speed after it closes.
    assert inj.dilate(0, 3.0, 10.0) == pytest.approx(8.0 + 1.0)
    # Other hosts unaffected.
    assert inj.dilate(1, 5.0, 11.0) == 5.0


def test_identical_seeds_identical_draw_streams():
    env = Environment()
    plan = FaultPlan(specs=(FaultSpec("drop", rate=0.3),), seed=42)

    class P:
        src, dst, size = 0, 1, 100

        class ptype:
            name = "EGR"

    def fates(p):
        inj = FaultInjector(env, p)
        return [inj.transit_fate(P) is not None for _ in range(200)]

    assert fates(plan) == fates(plan)
    assert fates(plan) != fates(plan.with_seed(43))


def test_injector_traces_instants_with_fault_category():
    env = Environment()
    fabric = Fabric(env, 4, stampede2())
    plan = FaultPlan(specs=(
        FaultSpec("drop", rate=1.0),
        FaultSpec("straggler", host=2, factor=2.0, start=5.0, duration=1.0),
    ))
    inj = FaultInjector(env, plan).install(fabric)
    obs = ObsContext().install(env, fabric)

    class P:
        src, dst, size = 0, 1, 64

        class ptype:
            name = "RTS"

    assert inj.transit_fate(P).dropped
    # Read at export from the plan's windows and the injector's trace:
    # both window edges plus the drop.
    instants = obs.as_timeline()["instants"]
    assert instants == [
        [2, "fault", "straggler begin", 5.0, {"factor": 2.0}],
        [2, "fault", "straggler end", 6.0, {"factor": 2.0}],
        [0, "fault", "drop RTS->1", 0.0, {"size": 64, "delay": 0.0}],
    ]
    chrome = to_chrome_trace(obs.as_timeline())["traceEvents"]
    fault_events = [e for e in chrome if e["ph"] == "i" and e["cat"] == "fault"]
    assert [(e["pid"], e["tid"], e["name"]) for e in fault_events] == [
        (host, "fault", name) for host, _cat, name, _t, _args in instants
    ]


# ----------------------------------------------------------------------
# End-to-end: hooks + recovery + metrics
# ----------------------------------------------------------------------
def _bfs_pair(layer, plan, hosts=4, **cfg_kw):
    g = rmat(7, edge_factor=8, seed=31)
    app = Bfs(source=0)
    base = BspEngine(g, app, EngineConfig(num_hosts=hosts, layer=layer))
    base.run()
    want = base.assemble_global()
    eng = BspEngine(
        g, app,
        EngineConfig(num_hosts=hosts, layer=layer, fault_plan=plan, **cfg_kw),
    )
    return eng, want


@pytest.mark.parametrize(
    "plan", ["drop-5pct", "dup-2pct", "reorder-heavy", "flaky-link"]
)
def test_lci_recovers_exact_answer(plan):
    eng, want = _bfs_pair("lci", plan)
    m = eng.run()
    assert np.array_equal(eng.assemble_global(), want), plan
    assert sum(m.fault_counts.values()) > 0, "plan injected nothing"
    # Recovery machinery ran and is visible in the metrics.
    assert m.layer_counters.get("rel_sends", 0) > 0
    assert m.layer_counters.get("acks", 0) > 0
    # Sends still unacknowledged at shutdown return their budgets too:
    # every host's packet pool ends full.
    assert [l.rt.pool.in_use for l in eng.layers] == [0] * len(eng.layers)


def test_lci_windowed_faults_slow_but_correct():
    for plan in ("degraded-link", "nic-stall", "straggler"):
        eng, want = _bfs_pair("lci", plan)
        m = eng.run()
        assert np.array_equal(eng.assemble_global(), want), plan
        # Windowed faults never need the recovery protocol.
        assert m.layer_counters.get("retransmissions", 0) == 0


def test_degraded_link_costs_time():
    g = rmat(7, edge_factor=8, seed=31)
    app = Bfs(source=0)
    base = BspEngine(g, app, EngineConfig(num_hosts=4, layer="lci"))
    mb = base.run()
    eng = BspEngine(g, app, EngineConfig(
        num_hosts=4, layer="lci", fault_plan="degraded-link"))
    m = eng.run()
    assert m.total_seconds > mb.total_seconds
    assert m.fault_counts.get("degraded_pkts", 0) > 0


def test_mpi_hangs_on_lost_completion():
    for layer in ("mpi-probe", "mpi-rma"):
        eng, _ = _bfs_pair(layer, "drop-5pct", max_events=2_000_000)
        with pytest.raises(LostCompletionError) as ei:
            eng.run()
        assert "lost completion" in str(ei.value)


def test_mpi_duplicate_rendezvous_is_protocol_error():
    from dataclasses import replace
    from repro.mpi.presets import MPI_PRESETS

    plan = FaultPlan(specs=(
        FaultSpec("duplicate", rate=1.0, delay=1 * US, ptypes=("RDMA",)),
    ))
    g = rmat(7, edge_factor=8, seed=31)
    eng = BspEngine(
        g, PageRank(max_rounds=3, tol=1e-12),
        EngineConfig(
            num_hosts=2, layer="mpi-probe", fault_plan=plan,
            layer_kwargs={
                # Force every blob through the rendezvous protocol.
                "mpi_config": replace(MPI_PRESETS["intelmpi"], eager_limit=64)
            },
        ),
    )
    with pytest.raises(MPIProtocolError):
        eng.run()


def test_mpi_probe_duplicates_grow_unexpected_queue():
    g = rmat(7, edge_factor=8, seed=31)
    app = PageRank(max_rounds=3, tol=1e-12)
    plan = FaultPlan(specs=(FaultSpec("duplicate", rate=0.2, delay=5 * US),))
    base = BspEngine(g, app, EngineConfig(num_hosts=4, layer="mpi-probe"))
    mb = base.run()
    eng = BspEngine(g, app, EngineConfig(
        num_hosts=4, layer="mpi-probe", fault_plan=plan))
    # Duplicate eager messages arrive unexpected, and the comm thread's
    # wildcard probe receives them like any other.  Their blobs then sit
    # in the layer's stash under phases that already closed — MPI's
    # divergent failure mode, a leak rather than a crash — and the
    # end-of-run audit finds the buffers never released.
    with pytest.raises(SanitizerError) as ei:
        eng.run()
    assert ei.value.rule == "comm.buffer_leak"
    assert ei.value.details["outstanding"] > 0
    unexpected = sum(l.counters().get("unexpected_msgs", 0)
                     for l in eng.layers)
    assert unexpected > mb.layer_counters.get("unexpected_msgs", 0)


def test_no_plan_no_hooks():
    g = rmat(7, edge_factor=8, seed=31)
    eng = BspEngine(g, Bfs(source=0), EngineConfig(num_hosts=4, layer="lci"))
    assert eng.injector is None
    assert eng.fabric.faults is None
    assert eng.env.faults is None
    assert all(l.rt.reliability is None for l in eng.layers)
    m = eng.run()
    assert m.fault_counts == {}
    assert "rel_sends" not in m.layer_counters


# ----------------------------------------------------------------------
# Chaos harness + CLI
# ----------------------------------------------------------------------
def test_chaos_harness_outcomes():
    from repro.bench.scenarios import Scenario
    from repro.faults.harness import format_chaos_report, run_chaos

    sc = Scenario(app="bfs", graph="rmat", scale=7, hosts=4, layer="lci")
    rep = run_chaos(sc, "drop-5pct")
    assert rep.outcome == "recovered"
    assert rep.correct and rep.overhead > 0
    assert rep.fault_counts.get("drops", 0) > 0
    assert rep.recovery.get("retransmissions", 0) > 0
    assert "recovered" in format_chaos_report(rep)

    sc_mpi = Scenario(app="bfs", graph="rmat", scale=7, hosts=4,
                      layer="mpi-probe")
    rep = run_chaos(sc_mpi, "drop-5pct")
    assert rep.outcome == "hung"
    assert not rep.correct


def test_scenario_fault_plan_knob():
    from repro.bench.scenarios import Scenario, build_engine

    sc = Scenario(app="bfs", graph="rmat", scale=7, hosts=4, layer="lci",
                  fault_plan="drop-5pct", fault_seed=3)
    assert "+drop-5pct" in sc.label()
    eng = build_engine(sc)
    assert eng.injector is not None
    assert eng.injector.plan.seed == 3
    m = eng.run()
    assert m.fault_counts


def test_cli_chaos_subcommand(capsys):
    from repro.cli import main

    assert main(["chaos", "--list-plans"]) == 0
    out = capsys.readouterr().out
    assert "flaky-link" in out and "chaos" in out

    rc = main(["chaos", "--plan", "drop-1pct", "--app", "bfs",
               "--scale", "7", "--hosts", "4", "--layer", "lci"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "recovered" in out
