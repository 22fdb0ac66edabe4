"""End-to-end benchmark scenarios (Figs 3-6, Tables II & IV).

A :class:`Scenario` names everything one experiment needs — system,
application, input family and scale, host count, communication layer,
machine, MPI implementation — and :func:`run_scenario` executes it on a
fresh simulated cluster and returns the engine's
:class:`~repro.engine.metrics.RunMetrics`.

Scale note: the paper's inputs have 10^8..10^9 nodes; the harness runs
the same generator families at reduced scale (default 2^12..2^14 nodes)
because execution is simulated — host counts stay faithful, absolute
times shrink, and the compute/communication *ratio* can be restored with
``work_scale`` (used by the Fig. 6 breakdown, where the paper's per-host
work is ~10^4x ours).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional

from repro.apps import make_app
from repro.engine import BspEngine, EngineConfig
from repro.engine.metrics import RunMetrics
from repro.graph.generators import make_graph
from repro.lci.config import LciConfig
from repro.mpi.presets import MPI_PRESETS
from repro.sim.machine import PRESETS as MACHINE_PRESETS

__all__ = ["Scenario", "run_scenario", "build_engine", "cached_graph"]


@lru_cache(maxsize=32)
def cached_graph(family: str, scale: int, seed: int, weights: bool):
    """Generated inputs are shared across scenario runs — frozen, so no
    run (or app bug) can mutate the arrays another run will read."""
    return make_graph(family, scale, seed=seed, weights=weights).freeze()


@dataclass(frozen=True)
class Scenario:
    """One cell of one of the paper's tables/figures."""

    app: str                     # bfs | cc | sssp | pagerank
    graph: str                   # rmat | kron | webcrawl (or paper aliases)
    scale: int                   # log2 number of nodes
    hosts: int
    layer: str                   # lci | mpi-probe | mpi-rma
    system: str = "abelian"      # abelian | gemini
    machine: str = "stampede2"   # stampede2 | stampede1
    mpi_impl: str = "intelmpi"   # intelmpi | mvapich2 | openmpi
    seed: int = 1
    pagerank_rounds: int = 20    # the paper caps at 100; scaled default
    kcore_k: int = 3             # only used by the kcore extension app
    work_scale: float = 1.0
    #: Override the LCI pool geometry (Fig. 5 scale adjustment).
    lci_pool_packets_per_host: Optional[int] = None
    lci_packet_bytes: Optional[int] = None
    lci_pool_packets_min: Optional[int] = None
    #: Named fault plan (``repro.faults.NAMED_PLANS``) to run under;
    #: ``None`` keeps the cluster fault-free.
    fault_plan: Optional[str] = None
    #: Seed of the fault plan's draw streams (defaults to the plan's own).
    fault_seed: Optional[int] = None

    def label(self) -> str:
        base = (
            f"{self.system}/{self.app}/{self.graph}{self.scale}"
            f"@{self.hosts}h/{self.layer}"
        )
        if self.fault_plan and self.fault_plan != "none":
            base += f"+{self.fault_plan}"
        return base


def run_scenario(sc: Scenario) -> RunMetrics:
    """Execute one scenario on a fresh simulated cluster."""
    return build_engine(sc).run()


def build_engine(
    sc: Scenario, *, fault_plan=None, obs=None,
    app=None, graph=None, partition=None, profile=None, commstats=None,
) -> BspEngine:
    """Construct the (unrun) engine for a scenario.

    ``fault_plan`` (a plan object or name) overrides the scenario's own
    ``fault_plan`` field; ``obs`` attaches a :class:`repro.obs.ObsContext`
    for message-lifecycle tracing and round spans; ``profile`` attaches a
    :class:`repro.obs.profile.ProfileContext` for host-side region
    profiling and work counters; ``commstats`` attaches a
    :class:`repro.obs.commstats.CommStatsContext` collecting traffic
    matrices.  Callers that need the engine
    afterwards — for ``assemble_global`` or injector statistics — use
    this instead of :func:`run_scenario`.

    The ``app`` / ``graph`` / ``partition`` overrides serve long-lived
    callers (:class:`repro.serve.ServeEngine`): ``app`` substitutes an
    already-constructed :class:`~repro.engine.VertexProgram` (the
    scenario's ``app`` field is then only a label), ``graph`` substitutes
    a resident graph for the generated one, and ``partition`` passes a
    resident partition through to :class:`BspEngine` so repeated
    executions skip repartitioning.
    """
    if sc.system not in ("abelian", "gemini"):
        raise ValueError(f"unknown system {sc.system!r}")
    machine = MACHINE_PRESETS[sc.machine]
    if graph is None:
        weights = sc.app == "sssp"
        graph = cached_graph(sc.graph, sc.scale, sc.seed, weights)

    if app is None:
        app_kwargs = {}
        if sc.app == "pagerank":
            app_kwargs["max_rounds"] = sc.pagerank_rounds
            app_kwargs["tol"] = 1e-12
        elif sc.app == "kcore":
            app_kwargs["k"] = sc.kcore_k
        app = make_app(sc.app, **app_kwargs)

    mpi_config = MPI_PRESETS[sc.mpi_impl]
    if sc.machine == "stampede1":
        # Software costs are calibrated for KNL; SNB runs them ~2.5x faster.
        mpi_config = mpi_config.scaled(0.4)

    layer_kwargs: Dict = {}
    if sc.layer in ("mpi-probe", "mpi-rma"):
        layer_kwargs["mpi_config"] = mpi_config
    if sc.layer == "lci":
        lci_kwargs = {}
        if sc.lci_pool_packets_per_host is not None:
            lci_kwargs["pool_packets_per_host"] = sc.lci_pool_packets_per_host
        if sc.lci_packet_bytes is not None:
            lci_kwargs["packet_data_bytes"] = sc.lci_packet_bytes
        if sc.lci_pool_packets_min is not None:
            lci_kwargs["pool_packets_min"] = sc.lci_pool_packets_min
        if lci_kwargs:
            layer_kwargs["lci_config"] = LciConfig(**lci_kwargs)
    if sc.system == "gemini":
        if sc.layer == "mpi-rma":
            raise ValueError("the paper does not evaluate Gemini with MPI-RMA")
        if sc.layer == "mpi-probe":
            layer_kwargs["inline_sends"] = True

    if fault_plan is None and sc.fault_plan is not None:
        from repro.faults import get_plan

        fault_plan = get_plan(sc.fault_plan, sc.fault_seed)

    policy = "cvc" if sc.system == "abelian" else "edge-cut"
    cfg = EngineConfig(
        num_hosts=sc.hosts,
        machine=machine,
        policy=policy,
        layer=sc.layer,
        layer_kwargs=layer_kwargs,
        work_scale=sc.work_scale,
        fault_plan=fault_plan,
        obs=obs,
        profile=profile,
        commstats=commstats,
    )
    return BspEngine(graph, app, cfg, partition=partition)
