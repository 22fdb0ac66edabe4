"""Ablation — the buffered network layer under the MPI-Probe runtime.

Section III-B: without back pressure, MPI's eager protocol exhausts its
buffers under Abelian's traffic and "may cause MPI to either seg-fault or
hang due to unrecoverable errors" (observed with MVAPICH2 and IntelMPI).
The buffered layer aggregates small items per destination, capping the
number of outstanding eager sends.

This ablation reproduces the failure: a burst of small messages to a
slow consumer with realistic per-peer eager credits.

* buffered layer ON  -> the aggregate exceeds the eager limit, travels by
  rendezvous, and everything completes;
* buffered layer OFF + IntelMPI semantics (abort on exhaustion) ->
  ``MPIResourceExhausted``, the paper's seg-fault;
* buffered layer OFF + OpenMPI semantics (stall) -> completes but only
  after head-of-line stalls.
"""

import numpy as np
import pytest

from conftest import emit
from repro.bench.report import format_table
from repro.comm.probe_layer import ProbeCommLayer
from repro.comm.serialization import pack_updates
from repro.mpi.exceptions import MPIResourceExhausted
from repro.mpi.presets import intel_mpi, openmpi
from repro.netapi.nic import Fabric
from repro.sim.engine import Environment
from repro.sim.machine import stampede2

N_MSGS = 120
CREDITS = 16


def run_burst(buffered: bool, crash: bool):
    """Returns ("ok", finish_time) or ("crash", exception message)."""
    env = Environment()
    machine = stampede2()
    fabric = Fabric(env, 2, machine)
    base = intel_mpi() if crash else openmpi()
    cfg = base.with_(eager_credits_per_peer=CREDITS, crash_on_exhaustion=crash)
    layers = ProbeCommLayer.create_world(
        env, fabric, machine, mpi_config=cfg, buffered=buffered,
    )
    done = {}

    def sender(env):
        layer = layers[0]
        for i in range(N_MSGS):
            blob = pack_updates(
                np.arange(8), np.full(8, i, dtype=np.int64), 64, 8,
                phase=(i, "x"),
            )
            yield from layer.send(1, blob)
        yield from layer.flush()
        done["sender_t"] = env.now

    def consumer(env):
        layer = layers[1]
        # Slow consumer: stays away while the burst lands.
        yield env.timeout(2e-3)
        for i in range(N_MSGS):
            got = yield from layer.collect((i, "x"), [0])
            layer.consume(got[0][1])
        # Drain time: how long consuming took once the consumer showed up.
        done["drain"] = env.now - 2e-3
        for l in layers:
            l.shutdown()

    env.process(sender(env))
    env.process(consumer(env))
    try:
        env.run(max_events=20_000_000)
    except MPIResourceExhausted as e:
        return ("crash", None)
    # How often the sending side ran out of eager buffers and had to
    # stall (the pressure the buffered layer is designed to absorb).
    ep0 = layers[0].ep
    return ("ok", ep0.eager_stalls)


def test_ablation_buffered_layer(benchmark, results_sink):
    def run_all():
        return {
            "buffered": run_burst(buffered=True, crash=True),
            "unbuffered-abort": run_burst(buffered=False, crash=True),
            "unbuffered-stall": run_burst(buffered=False, crash=False),
        }

    outcomes = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = []
    for name, (status, detail) in outcomes.items():
        rows.append({
            "configuration": name,
            "outcome": status,
            "detail": (f"{detail} eager-buffer stalls"
                       if status == "ok" else "resource exhaustion abort"),
        })
    emit(f"Ablation: buffered network layer ({N_MSGS} small msgs, "
         f"{CREDITS} eager credits/peer)", format_table(rows))
    results_sink("ablation_buffered", {
        k: {"status": s, "detail": str(d)} for k, (s, d) in outcomes.items()
    })

    # The buffered layer turns a fatal burst into a completed run.
    assert outcomes["buffered"][0] == "ok"
    # Without it, IntelMPI-style semantics abort (the paper's seg-fault)...
    assert outcomes["unbuffered-abort"][0] == "crash"
    # ...and stall-style semantics survive only by repeatedly stalling
    # the producer on exhausted eager buffers, while the buffered layer
    # never touches that limit (its aggregates ride rendezvous).
    assert outcomes["unbuffered-stall"][0] == "ok"
    assert outcomes["unbuffered-stall"][1] > 0
    assert outcomes["buffered"][1] == 0
