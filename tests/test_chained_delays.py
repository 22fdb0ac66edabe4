"""Chained delays against the schedule they replaced.

Every cell runs twice: as the program is, and inside
``oracles.unchained()``, where each chained delay is replayed as the
separate waits it stands for.  The two runs must agree exactly — every
simulated timestamp, footprint, counter and answer, and the whole obs
timeline (events, probe samples, stalls) — and differ only in how many
queue entries they needed.  The per-event protocol checks run in both,
so the comparison covers them too (a check raises on any violation).
"""

import json

import numpy as np
import pytest

from repro.bench.scenarios import Scenario, build_engine
from repro.obs import ObsContext
from repro.serve import ServeConfig, ServeEngine, TapeSpec

from tests.oracles import unchained

LAYERS = ("lci", "mpi-probe", "mpi-rma")
SEEDS = (1, 2, 3)
FAULT_PLANS = ("drop-5pct", "reorder-heavy", "flaky-link")


def observe(sc):
    """Run one cell with obs attached; every deterministic output, and
    the number of queue entries it took."""
    obs = ObsContext()
    eng = build_engine(sc, obs=obs)
    m = eng.run()
    outputs = {
        "total": m.total_seconds.hex(),
        "setup": float(m.setup_seconds).hex(),
        "rounds": m.rounds,
        "compute": [t.hex() for t in m.compute_per_round],
        "comm": [t.hex() for t in m.comm_per_round],
        "footprint": list(m.footprint_per_host),
        "blobs": (m.blobs_sent, m.payload_bytes_sent, m.updates_shipped),
        "counters": m.layer_counters,
        "faults": m.fault_counts,
        "answer": eng.assemble_global().tobytes(),
        "timeline": json.dumps(obs.as_timeline(), sort_keys=True),
    }
    return outputs, eng.env._seq


def assert_chained_equals_unchained(sc):
    chained, entries = observe(sc)
    with unchained():
        separate, separate_entries = observe(sc)
    for key in chained:
        assert chained[key] == separate[key], (sc.label(), sc.seed, key)
    # The oracle did replay something: it is not comparing a run with
    # itself.
    assert entries < separate_entries, sc.label()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("hosts", [4, 16])
@pytest.mark.parametrize("layer", LAYERS)
@pytest.mark.parametrize("app", ["bfs", "cc", "sssp", "pagerank"])
def test_abelian_cells(app, layer, hosts, seed):
    assert_chained_equals_unchained(Scenario(
        app=app, graph="rmat", scale=8, hosts=hosts, layer=layer,
        seed=seed, pagerank_rounds=4,
    ))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("layer", LAYERS[:2])
@pytest.mark.parametrize("app", ["bfs", "pagerank"])
def test_gemini_cells(app, layer, seed):
    # Gemini's probe layer calls MPI from the compute threads
    # (THREAD_MULTIPLE): the library lock follows the entry cost there,
    # so that cost is never chained.
    assert_chained_equals_unchained(Scenario(
        app=app, graph="rmat", scale=8, hosts=8, layer=layer, seed=seed,
        pagerank_rounds=4, system="gemini",
    ))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("plan", FAULT_PLANS)
@pytest.mark.parametrize("app", ["bfs", "pagerank"])
def test_lci_cells_under_fault_plans(app, plan, seed):
    assert_chained_equals_unchained(Scenario(
        app=app, graph="rmat", scale=8, hosts=8, layer="lci", seed=seed,
        pagerank_rounds=4, fault_plan=plan, fault_seed=40 + seed,
    ))


@pytest.mark.parametrize("layer", LAYERS)
def test_rendezvous_sized_blobs(layer):
    # Blobs past the eager limit / packet size: RTS, RTR and RDMA puts,
    # the probe layer's pending requests and its test loop.
    assert_chained_equals_unchained(Scenario(
        app="pagerank", graph="rmat", scale=13, hosts=4, layer=layer,
        seed=2, pagerank_rounds=2,
    ))


def serve_batches():
    config = ServeConfig(scale=8, hosts=4, layer="lci", max_batch=8,
                         ppr_rounds=3)
    engine = ServeEngine(config, obs=True)
    report = engine.run_tape(TapeSpec(seed=5, num_queries=12, scale=8,
                                      mean_gap=4e-5))
    assert report.batches
    return (
        json.dumps(report.as_dict(), sort_keys=True),
        [None if r.answer is None else np.asarray(r.answer).tobytes()
         for r in report.results],
        json.dumps(engine.last_obs.as_timeline(), sort_keys=True),
    )


def test_serve_batches():
    chained = serve_batches()
    with unchained():
        separate = serve_batches()
    assert chained == separate


def test_unchained_oracle_restores_the_kernel():
    from repro.sim.engine import Environment

    real = Environment.process
    with pytest.raises(RuntimeError):
        with unchained():
            assert Environment.process is not real
            raise RuntimeError
    assert Environment.process is real
