"""The BSP vertex-program engine over the simulated cluster.

One simulated process per host executes rounds of:

1. **compute** — the program's operator over local edges from active
   sources (real NumPy updates; time charged from the machine model's
   per-node/per-edge costs, divided across the host's compute threads —
   one core is reserved for the dedicated communication thread, as in
   Fig. 2);
2. **reduce sync** — gather updated mirror values per master host
   (pack cost charged, parallelized), send through the communication
   layer, scatter arriving buffers *as they arrive*;
3. **post-reduce** — master-side round step (PageRank's damping update);
4. **broadcast sync** — same shape, masters to mirrors (skipped entirely
   when the partition makes it unnecessary — Abelian's partition-aware
   optimization, automatic for Gemini's edge-cut);
5. **termination** — an allreduce of the program's quiescence metric,
   identical cost across layers.

The engine measures per-round compute and non-overlapped communication
time per host, layer buffer footprints, and total execution time with
setup (e.g. RMA window creation) excluded — matching how the paper
reports its numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.comm.collective import AllReducer, SimBarrier
from repro.comm.layer_base import CommLayer, make_layers
from repro.comm.serialization import pack_cost, pack_updates, unpack_cost
from repro.engine.metrics import RunMetrics
from repro.engine.vertex_program import VertexProgram
from repro.graph.csr import CsrGraph, csr_order, first_occurrences, resident
from repro.graph.partition import make_partition
from repro.graph.partition.proxies import Partition
from repro.lci.queue_iface import LciQueue
from repro.mpi.endpoint import MpiEndpoint
from repro.netapi.nic import Fabric
from repro.sanitize import conservation_audit
from repro.sim.engine import Environment
from repro.sim.machine import MachineModel, stampede2

__all__ = ["EngineConfig", "BspEngine", "symmetrize"]


@resident
def symmetrize(graph: CsrGraph) -> CsrGraph:
    """Add reverse edges (used for cc, which is undirected semantics).

    The result is ``CsrGraph.from_edges(dedup=True)`` of the 2|E| pairs
    "every edge, then every edge reversed" (edge data following each
    pair), built without materializing the pair columns: with ``ends`` =
    every edge's source, then every edge's target, pair ``p`` is
    ``(ends[p], ends[(p + |E|) mod 2|E|])`` and carries edge ``p mod |E|``'s
    data, so the pair keys are written straight from the CSR arrays and
    the kept pairs' targets and data are gathered with ``mode="wrap"``.

    A frozen graph's symmetrized form is built once, frozen and kept
    resident (:func:`repro.graph.csr.resident`).
    """
    n, m = graph.num_nodes, graph.num_edges
    ends = np.concatenate([graph.edge_sources(), graph.indices])
    key = ends * n
    key[:m] += graph.indices
    key[m:] += ends[:m]
    keep = first_occurrences(key, n * n)
    del key
    not_loop = ends[:m] != graph.indices
    keep[:m] &= not_loop
    keep[m:] &= not_loop
    del not_loop
    indptr, sel = csr_order(ends, n, keep)
    del keep
    # pair p's target is ends[p + |E|] (mod 2|E|), its data
    # edge_data[p + |E|] (mod |E|)
    sel += m
    edge_data = None
    if graph.edge_data is not None:
        edge_data = np.take(graph.edge_data, sel, mode="wrap")
    return CsrGraph(indptr, np.take(ends, sel, mode="wrap"), n,
                    edge_data=edge_data, name=graph.name + ".sym")


@dataclass
class EngineConfig:
    """How to run: cluster size, machine, partitioning, comm layer."""

    num_hosts: int = 4
    machine: MachineModel = dc_field(default_factory=stampede2)
    #: "cvc" (Abelian) or "edge-cut" (Gemini).
    policy: str = "cvc"
    #: "lci", "mpi-probe", or "mpi-rma".
    layer: str = "lci"
    #: Extra kwargs for the layer factory (mpi_config=, lci_config=,
    #: inline_sends=, buffered=, ...).
    layer_kwargs: Dict = dc_field(default_factory=dict)
    #: Engine-level round cap (safety; programs may stop earlier).
    max_rounds: int = 10_000
    #: Event-count safety valve for the simulation run.
    max_events: Optional[int] = 200_000_000
    #: Multiplier on compute-phase cost.  The paper's inputs carry
    #: ~10^4x more edges per host than the harness's reduced-scale
    #: graphs; the Fig. 6 breakdown uses this to restore a realistic
    #: compute/communication ratio.  Communication is unaffected, so
    #: layer comparisons never depend on it.
    work_scale: float = 1.0
    #: Optional fault injection: a :class:`repro.faults.FaultPlan`, the
    #: name of one (``repro.faults.NAMED_PLANS``), or ``None`` for a
    #: fault-free run (the default; no hooks are installed).
    fault_plan: Optional[object] = None
    #: Optional :class:`repro.obs.ObsContext` for message-lifecycle
    #: tracing, queue probes and the engine's per-round compute /
    #: allreduce spans.  Installed on the fabric before the layers are
    #: built (like the fault injector) so every component can
    #: self-discover it.  Pure observation: a run with obs enabled is
    #: bit-identical to one without.
    obs: Optional[object] = None
    #: Optional :class:`repro.obs.profile.ProfileContext` for host-side
    #: wall-clock region profiling; :meth:`BspEngine.run` adds the
    #: engine's work counts into it.  Installed before the layers are
    #: built (like obs) so endpoints and the LCI server self-discover
    #: it.  Same contract: a profiled run is bit-identical to a plain one.
    profile: Optional[object] = None
    #: Optional :class:`repro.obs.commstats.CommStatsContext` for
    #: per-(src, dst, kind/phase) traffic matrices and size histograms.
    #: Installed before the layers are built (like obs) so every comm
    #: layer self-discovers it.  Same contract: a run with commstats
    #: enabled is bit-identical to one without.
    commstats: Optional[object] = None


class BspEngine:
    """Runs one vertex program on one partitioned graph.

    Engines on one frozen graph share its symmetrized form and its
    partitions: :func:`symmetrize` and :func:`make_partition` keep them
    resident, so only the first engine per (graph, hosts, policy) pays
    for them.  ``partition`` passes one in explicitly instead: ``graph``
    must then already be in the form the program needs (symmetrized for
    ``needs_symmetric`` apps) and be the graph the partition was built
    from — the engine calls neither function.
    """

    def __init__(self, graph: CsrGraph, app: VertexProgram,
                 config: EngineConfig, partition: Optional[Partition] = None):
        self.app = app
        self.config = config
        if partition is None and app.needs_symmetric:
            graph = symmetrize(graph)
        if app.needs_weights and graph.edge_data is None:
            raise ValueError(
                f"{app.name} needs edge weights; generate the graph with "
                "weights=True"
            )
        self.graph = graph
        if partition is not None:
            if partition.num_hosts != config.num_hosts:
                raise ValueError(
                    f"resident partition spans {partition.num_hosts} hosts "
                    f"but the engine is configured for {config.num_hosts}"
                )
            self.partition: Partition = partition
        else:
            self.partition = make_partition(
                graph, config.num_hosts, config.policy
            )
        self.env = Environment()
        self.fabric = Fabric(self.env, config.num_hosts, config.machine)
        # The injector must be installed before the layers are built so
        # LCI can arm its ack/retransmit recovery protocol.
        self.injector = None
        if config.fault_plan is not None:
            from repro.faults import FaultInjector, get_plan

            plan = get_plan(config.fault_plan)
            if not plan.empty:
                self.injector = FaultInjector(self.env, plan).install(
                    self.fabric
                )
        # Observability rides the fabric too; must also precede the
        # layers so endpoints register their queue probes at build time.
        self.obs = config.obs
        if self.obs is not None:
            self.obs.install(self.env, self.fabric)
        # The comm-pattern observatory rides the fabric the same way and
        # must precede the layers (they discover it at construction for
        # the blob-level tap in CommLayer.trace_send).
        self.commstats = config.commstats
        if self.commstats is not None:
            self.commstats.install(self.env, self.fabric,
                                   layer=config.layer)
        # Host-side profiling rides the fabric/environment the same way
        # (and must precede the layers so endpoints and the LCI server
        # wrap their hot calls at construction).  The app's kernels, the
        # blob packer and the gather/scatter steps are wrapped once
        # here; all of them run synchronously inside the event loop, so
        # their region paths are static.
        self.profiler = prof = config.profile
        self._compute = app.compute
        self._pack = pack_updates
        self._apply_reduce = app.apply_reduce
        self._apply_bcast = app.apply_bcast
        # Blob totals the always-on per-host lists below do not carry,
        # for work_counts().
        self._blobs_packed = 0
        self._blobs_scattered = 0
        if prof is not None:
            prof.install(self.env, self.fabric)
            run = "sim.engine.run"
            gather = f"{run};engine.bsp.gather"
            scatter = f"{run};engine.bsp.scatter"
            self._compute = prof.timed(f"{run};engine.bsp.compute", app.compute)
            self._gather = prof.timed(gather, self._gather)
            self._pack = prof.timed(
                f"{gather};comm.serialization.pack", pack_updates, sampled=True
            )
            self._scatter = prof.timed(scatter, self._scatter)
            self._apply_deferred = prof.timed(scatter, self._apply_deferred)
            self._apply_reduce = prof.timed(
                f"{scatter};engine.bsp.apply", app.apply_reduce, sampled=True
            )
            self._apply_bcast = prof.timed(
                f"{scatter};engine.bsp.apply", app.apply_bcast, sampled=True
            )
        self.layers: List[CommLayer] = make_layers(
            config.layer, self.env, self.fabric, config.machine,
            **config.layer_kwargs,
        )
        self.barrier = SimBarrier(self.env, config.num_hosts, config.machine)
        self.allreducer = AllReducer(self.env, config.num_hosts, config.machine)
        self.states: List[Dict[str, np.ndarray]] = [None] * config.num_hosts
        self._compute_rounds: List[List[float]] = [
            [] for _ in range(config.num_hosts)
        ]
        self._comm_rounds: List[List[float]] = [
            [] for _ in range(config.num_hosts)
        ]
        self._rounds_done = [0] * config.num_hosts
        self._start_times = [0.0] * config.num_hosts
        self._end_times = [0.0] * config.num_hosts
        self._payload_bytes = [0] * config.num_hosts
        self._updates_shipped = [0] * config.num_hosts
        # Cache per-host pair lists once (they are static).
        p = self.partition
        self._reduce_out = [p.reduce_out(h) for h in range(config.num_hosts)]
        self._reduce_in = [p.reduce_in(h) for h in range(config.num_hosts)]
        self._bcast_out = [p.bcast_out(h) for h in range(config.num_hosts)]
        self._bcast_in = [p.bcast_in(h) for h in range(config.num_hosts)]
        self._has_reduce = bool(p.reduce_pairs)
        self._has_bcast = bool(p.bcast_pairs)
        # Per-(host, pattern) sync-phase geometry (peer lists, id arrays),
        # computed lazily on the first round and reused every round after.
        self._sync_cache = {}

    def _libraries(self) -> Tuple[List[LciQueue], List[MpiEndpoint]]:
        """The hosts' LCI runtimes and MPI endpoints, in host order."""
        libs = [obj for layer in self.layers for obj in layer._counted()]
        return ([lib for lib in libs if isinstance(lib, LciQueue)],
                [lib for lib in libs if isinstance(lib, MpiEndpoint)])

    def work_counts(self) -> Dict[str, int]:
        """The run's work counts by name, read off the components.

        A pure read of a finished engine — profiled or not, and one whose
        run raised too.  The rule of ``RunMetrics.layer_counters``: a
        name is present once its count is non-zero.
        """
        env, fabric, lname = self.env, self.fabric, self.config.layer
        rts, eps = self._libraries()
        counts = {
            "sim.events_scheduled": env.events_scheduled,
            "sim.events_fired": env.events_fired,
            # Every schedule pushes an entry, every fire pops one.
            "sim.heap_ops": env.events_scheduled + env.events_fired,
            # ``pkts_sent`` counts successful injections.
            "netapi.pkts_injected": fabric.total("pkts_sent"),
            "netapi.bytes_injected": fabric.total("bytes_sent"),
            "netapi.pkts_delivered": fabric.total("pkts_received"),
            "netapi.bytes_delivered": fabric.total("bytes_received"),
            "netapi.tx_full": fabric.total("tx_queue_full"),
            "lci.pool_acquires": sum(
                rt.pool.alloc_local_hits + rt.pool.alloc_global_hits
                + rt.pool.alloc_steals for rt in rts),
            "lci.pool_alloc_failures": sum(
                rt.pool.alloc_failures for rt in rts),
            "lci.pool_frees": sum(
                rt.pool.free_local + rt.pool.free_global
                + rt.pool.free_nowaits for rt in rts),
            "lci.server_pkts": sum(rt.server_pkts for rt in rts),
            "mpi.match_probes": sum(
                ep.posted.probes + ep.unexpected.probes for ep in eps),
            "mpi.unexpected_enqueued": sum(
                ep.unexpected.enqueued for ep in eps),
            "engine.host_rounds": sum(map(len, self._compute_rounds)),
            "engine.updates_shipped": sum(self._updates_shipped),
            "engine.blobs_scattered": self._blobs_scattered,
            f"comm.{lname}.blobs": self._blobs_packed,
            f"comm.{lname}.bytes": sum(self._payload_bytes),
        }
        return {name: value for name, value in counts.items() if value}

    # ------------------------------------------------------------------
    @property
    def compute_threads(self) -> int:
        """Compute threads per host: one core feeds the comm machinery."""
        return max(1, self.config.machine.cpu.cores - 1)

    def run(self) -> RunMetrics:
        """Run every host to the end; once all finished cleanly, audit
        conservation (:func:`~repro.sanitize.conservation_audit`).
        The per-event protocol checks need no setup: the pools,
        endpoints and windows raise where a rule breaks, mid-run."""
        procs = [
            self.env.process(self._host_proc(h), name=f"host-{h}")
            for h in range(self.config.num_hosts)
        ]
        try:
            self.env.run(max_events=self.config.max_events)
        finally:
            if self.profiler is not None:
                self.profiler.add_counts(self.work_counts())
        for p in procs:
            if not p.triggered:
                if self.injector is not None:
                    from repro.faults import LostCompletionError

                    raise LostCompletionError(
                        f"{p.name} never finished under fault plan "
                        f"{self.injector.plan.name or 'custom'!r}: a lost "
                        f"completion hung the "
                        f"{self.config.layer} layer "
                        f"(faults injected: {self.injector.counts()})"
                    )
                raise RuntimeError(f"{p.name} never finished (deadlock?)")
            if not p.ok:
                raise p._value
        conservation_audit(*self._libraries(), self.env.now,
                           layers=self.layers)
        return self._metrics()

    # ------------------------------------------------------------------
    def _host_proc(self, h: int):
        env = self.env
        app = self.app
        cpu = self.config.machine.cpu
        lg = self.partition.local(h)
        layer = self.layers[h]
        threads = self.compute_threads

        state = app.init_state(lg, self.graph)
        self.states[h] = state
        patterns = []
        if self._has_reduce:
            patterns.append("reduce")
        if self._has_bcast:
            patterns.append("bcast")
        yield from layer.setup(
            reduce_pairs=self.partition.reduce_pairs,
            bcast_pairs=self.partition.bcast_pairs,
            field_bytes=app.field_bytes,
            patterns=tuple(patterns),
        )
        yield from self.barrier.arrive()
        self._start_times[h] = env.now

        active = app.initial_active(lg, state)
        dirty_reduce = np.zeros(lg.num_local, dtype=bool)
        dirty_bcast = np.zeros(lg.num_local, dtype=bool)
        max_rounds = min(
            self.config.max_rounds,
            app.max_rounds if app.max_rounds is not None else 10**9,
        )

        obs = self.obs
        rnd = 0
        while True:
            # ---------------- compute phase ----------------
            t0 = env.now
            res = self._compute(lg, state, active)
            compute_cost = (
                res.work_nodes * cpu.per_node_cost
                + res.work_edges * cpu.per_edge_cost
            ) * self.config.work_scale / threads
            if compute_cost > 0:
                yield env.charged_timeout(compute_cost, actor=h)
            self._compute_rounds[h].append(env.now - t0)
            t_comm = env.now
            if obs is not None:
                obs.span(
                    h, "compute", f"round {rnd}", t0, env.now,
                    edges=res.work_edges, nodes=res.work_nodes,
                )

            upd = res.updated
            if len(upd):
                dirty_reduce[upd[upd >= lg.num_masters]] = True
                if app.label_is_broadcast_field:
                    dirty_bcast[upd[upd < lg.num_masters]] = True

            # ---------------- reduce sync ----------------
            if self._has_reduce:
                yield from self._sync_phase(
                    h, lg, layer, state, (rnd, "reduce"),
                    out_pairs=self._reduce_out[h],
                    in_pairs=self._reduce_in[h],
                    dirty=dirty_reduce,
                    is_reduce=True,
                    dirty_bcast=dirty_bcast,
                )

            # ---------------- post-reduce (master step) ----------------
            extra = app.post_reduce(lg, state)
            if len(extra):
                dirty_bcast[extra] = True
            if app.reduce_op == "add" and lg.num_masters:
                # The damping update touches every master once.
                yield env.charged_timeout(
                    lg.num_masters * cpu.per_node_cost / threads, actor=h
                )

            # ---------------- broadcast sync ----------------
            if self._has_bcast:
                yield from self._sync_phase(
                    h, lg, layer, state, (rnd, "bcast"),
                    out_pairs=self._bcast_out[h],
                    in_pairs=self._bcast_in[h],
                    dirty=dirty_bcast,
                    is_reduce=False,
                )

            # ---------------- termination ----------------
            active = app.next_active(lg, state)
            metric = app.local_quiescent_metric(lg, state, active)
            t_ar = env.now
            total = yield from self.allreducer.allreduce_sum(h, metric)
            # Globally agreed activity level: programs may use it to pick
            # a traversal direction (Gemini's push/pull switching) — every
            # host sees the same value, so decisions stay consistent.
            state["_global_active"] = total
            self._comm_rounds[h].append(env.now - t_comm)
            if obs is not None:
                obs.span(h, "allreduce", f"round {rnd}", t_ar, env.now)
            rnd += 1
            if total == 0 or rnd >= max_rounds:
                break

        self._rounds_done[h] = rnd
        self._end_times[h] = env.now
        # Everyone reaches this point together (the allreduce barrier),
        # so shutting down helper threads here is race-free.
        layer.shutdown()

    # ------------------------------------------------------------------
    def _sync_phase(
        self, h, lg, layer, state, phase, out_pairs, in_pairs, dirty,
        is_reduce, dirty_bcast=None,
    ):
        """One gather-communicate-scatter pattern instance."""
        env = self.env
        app = self.app
        cpu = self.config.machine.cpu
        threads = self.compute_threads

        # Phase geometry is static across rounds: peer hosts and the
        # sender/receiver id arrays per sync pair only depend on the
        # partition.  Resolve it once per (host, pattern).
        cache = self._sync_cache.get((h, is_reduce))
        if cache is None:
            if is_reduce:
                # sender ships mirror_ids, receiver applies at master_ids
                out = [(sp.master_host, sp.mirror_ids, sp) for sp in out_pairs]
                in_map = {sp.mirror_host: sp.master_ids for sp in in_pairs}
                in_hosts = [sp.mirror_host for sp in in_pairs]
            else:
                out = [(sp.mirror_host, sp.master_ids, sp) for sp in out_pairs]
                in_map = {sp.master_host: sp.mirror_ids for sp in in_pairs}
                in_hosts = [sp.master_host for sp in in_pairs]
            out_hosts = [dst for dst, _ids, _sp in out]
            cache = (out, out_hosts, in_hosts, in_map)
            self._sync_cache[(h, is_reduce)] = cache
        out, out_hosts, in_hosts, in_map = cache
        if is_reduce:
            get_values = app.reduce_values
            apply_values = self._apply_reduce
        else:
            get_values = app.bcast_values
            apply_values = self._apply_bcast
        yield from layer.phase_begin(phase, out_hosts, in_hosts)

        # Gather: pack each pair's dirty subset (parallel across threads).
        blobs, gather_cost = self._gather(h, out, dirty, state, get_values, phase)
        if gather_cost > 0:
            yield env.charged_timeout(gather_cost / threads, actor=h)

        if layer.parallel_send and len(blobs) > 1:
            # Compute threads initiate sends concurrently (up to the
            # host's thread count; partner counts never exceed it here).
            sends = [
                env.process(layer.send(dst, blob), name=f"send-{h}-{dst}")
                for dst, blob, _ids in blobs
            ]
            yield env.all_of(sends)
        else:
            for dst, blob, _ids in blobs:
                yield from layer.send(dst, blob)
        if is_reduce:
            for _dst, blob, ids_mine in blobs:
                if len(blob.positions):
                    app.reset_after_reduce_send(
                        state, ids_mine[blob.positions]
                    )
        for _dst, ids_mine, _sp in out:
            dirty[ids_mine] = False
        yield from layer.flush(phase)

        # Scatter arrivals as they come (arbitrary order).  Programs with
        # ``ordered_scatter`` defer the *application* of values until the
        # phase's last blob arrived and then apply in source-host order —
        # costs are still charged at arrival time, so the schedule (and
        # every timing metric) is identical; only the floating-point
        # reduction order becomes canonical.
        pending = set(in_hosts)
        cold = cpu.cold_read_factor if layer.receive_buffer_cold else 1.0
        deferred = [] if app.ordered_scatter else None
        marks_bcast = (
            is_reduce and app.label_is_broadcast_field
            and dirty_bcast is not None
        )

        def apply_blob(blob, ids):
            if len(ids):
                changed = apply_values(state, ids, blob.values)
                if marks_bcast:
                    dirty_bcast[ids[changed]] = True
            layer.consume(blob)

        while pending:
            batch = yield from layer.collect_some(phase, pending)
            scatter_cost = self._scatter(batch, in_map, cold, deferred, apply_blob)
            if scatter_cost > 0:
                yield env.charged_timeout(scatter_cost / threads, actor=h)
        if deferred is not None:
            deferred.sort(key=lambda item: item[0])
            self._apply_deferred(deferred, apply_blob)
        yield from layer.phase_end(phase)

    def _gather(self, h, out, dirty, state, get_values, phase):
        """Pack the dirty subset of every outgoing pair: ``(blobs,
        simulated pack cost)``."""
        app = self.app
        cpu = self.config.machine.cpu
        blobs = []
        cost = 0.0
        for dst, ids_mine, sp in out:
            positions = np.where(dirty[ids_mine])[0].astype(np.int64)
            values = get_values(state, ids_mine[positions])
            blob = self._pack(
                positions, values, len(sp), app.field_bytes, phase
            )
            blobs.append((dst, blob, ids_mine))
            cost += pack_cost(cpu, len(positions), blob.nbytes)
            self._payload_bytes[h] += blob.nbytes
            self._updates_shipped[h] += len(positions)
        self._blobs_packed += len(blobs)
        return blobs, cost

    def _scatter(self, batch, in_map, cold, deferred, apply_blob):
        """Decode one batch of arrivals, applying each blob or parking it
        in ``deferred``; returns the simulated unpack cost."""
        cpu = self.config.machine.cpu
        cost = 0.0
        for src, blob in batch:
            ids = in_map[src][blob.positions]
            if deferred is not None:
                deferred.append((src, blob, ids))
            else:
                apply_blob(blob, ids)
            cost += unpack_cost(cpu, len(ids), blob.nbytes) * cold
        self._blobs_scattered += len(batch)
        return cost

    @staticmethod
    def _apply_deferred(deferred, apply_blob):
        for _src, blob, ids in deferred:
            apply_blob(blob, ids)

    # ------------------------------------------------------------------
    def _metrics(self) -> RunMetrics:
        cfg = self.config
        rounds = max(self._rounds_done)
        compute_per_round = [
            max(
                self._compute_rounds[h][r]
                for h in range(cfg.num_hosts)
                if r < len(self._compute_rounds[h])
            )
            for r in range(rounds)
        ]
        comm_per_round = [
            max(
                self._comm_rounds[h][r]
                for h in range(cfg.num_hosts)
                if r < len(self._comm_rounds[h])
            )
            for r in range(rounds)
        ]
        m = RunMetrics(
            app=self.app.name,
            graph=self.graph.name,
            layer=cfg.layer,
            num_hosts=cfg.num_hosts,
            policy=cfg.policy,
            total_seconds=max(self._end_times) - min(self._start_times),
            setup_seconds=max(
                getattr(l, "setup_seconds", 0.0) for l in self.layers
            ),
            rounds=rounds,
            compute_per_round=compute_per_round,
            comm_per_round=comm_per_round,
            footprint_per_host=[l.footprint.peak for l in self.layers],
            payload_bytes_sent=sum(self._payload_bytes),
            updates_shipped=sum(self._updates_shipped),
        )
        # A name is present once its count is non-zero.
        counters: Dict[str, int] = {}
        for l in self.layers:
            for name, value in l.counters().items():
                if value:
                    counters[name] = counters.get(name, 0) + value
        m.layer_counters = counters
        m.blobs_sent = counters.get("blobs_sent", 0) + counters.get("puts", 0)
        if self.injector is not None:
            m.fault_counts = self.injector.counts()
        return m

    # ------------------------------------------------------------------
    def assemble_global(self) -> np.ndarray:
        """Collect the canonical per-node result from all masters.

        Shape ``(num_nodes,)`` for scalar-label programs; multi-source
        programs (label matrices) yield ``(num_nodes, K)`` — one column
        per batched query.
        """
        n = self.graph.num_nodes
        sample = self.app.extract_masters(
            self.partition.local(0), self.states[0]
        )
        out = np.zeros((n,) + sample.shape[1:], dtype=sample.dtype)
        for h in range(self.config.num_hosts):
            lg = self.partition.local(h)
            vals = self.app.extract_masters(lg, self.states[h])
            out[lg.global_ids[: lg.num_masters]] = vals
        return out
