"""The long-lived query service over the simulated cluster.

:class:`ServeEngine` is the tentpole of the serve layer: it keeps one
partitioned graph **resident** (partitioned once, reused by every
execution) and consumes a stream of analytics queries, each answered by
one of four strategies, in priority order:

1. **result cache** — same (graph version, cache key) answered earlier;
2. **batched execution** — concurrent same-kind queries fused into one
   multi-source BSP run (:mod:`repro.serve.programs`), sharing edge
   traversals, rounds, and sync messages;
3. **rejection** — admission control sheds arrivals when the backlog or
   the fabric-saturation EWMA crosses its bound
   (:mod:`repro.serve.admission`);
4. **failure** — a fault plan (:mod:`repro.faults`) that hangs a layer
   fails only the affected batch; the service degrades gracefully and
   keeps serving.

Time is the **service clock**: a query arrives at its tape timestamp,
waits while earlier batches execute, and completes when its batch's
simulated execution (measured by the engine's
:class:`~repro.engine.metrics.RunMetrics`) finishes.  Latency is
completion minus arrival, in simulated seconds — the whole pipeline is
deterministic, so a tape replay reproduces every latency bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.bench.scenarios import Scenario, build_engine, cached_graph
from repro.faults import LostCompletionError, get_plan
from repro.graph.partition import make_partition
from repro.obs.latency import LatencySummary
from repro.obs.profile import wall_now
from repro.sanitize import SanitizerError
from repro.serve.admission import AdmissionConfig, AdmissionController
from repro.serve.cache import ResultCache
from repro.serve.programs import make_batched_program
from repro.serve.query import QUERY_KINDS, Query, QueryResult
from repro.serve.tape import TapeSpec, generate_tape

__all__ = ["ServeConfig", "ServeEngine", "ServeReport", "format_serve_report"]


@dataclass(frozen=True)
class ServeConfig:
    """The service's static configuration (graph, cluster, policies)."""

    graph: str = "rmat"
    scale: int = 10
    hosts: int = 4
    layer: str = "lci"
    system: str = "abelian"
    machine: str = "stampede2"
    seed: int = 1
    #: Max queries fused into one batched execution.
    max_batch: int = 8
    #: Result-cache capacity (answer vectors).
    cache_capacity: int = 128
    #: Fixed iteration budget of personalized PageRank queries.
    ppr_rounds: int = 10
    ppr_damping: float = 0.85
    work_scale: float = 1.0
    #: Named fault plan to serve under (``None``/"none" = fault-free).
    fault_plan: Optional[str] = None
    fault_seed: Optional[int] = None
    #: Admission-control knobs.
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    #: Clock charge for a batch killed by a fault, used until the
    #: controller has a batch-duration EWMA to charge instead.
    failure_penalty_seconds: float = 0.05


class ServeEngine:
    """One resident graph + scheduler + cache + admission controller."""

    def __init__(self, config: ServeConfig, obs: bool = False, profile=None,
                 commstats: bool = False):
        self.config = config
        #: When True, every executed batch gets a fresh
        #: :class:`repro.obs.ObsContext` (see :attr:`last_obs`).
        self.obs_enabled = bool(obs)
        #: When True, every executed batch gets a fresh
        #: :class:`repro.obs.commstats.CommStatsContext`; the batch log
        #: carries the per-batch traffic summary and the report gains a
        #: ``comm`` block.  Off by default (zero hot-path cost).
        self.commstats_enabled = bool(commstats)
        #: Comm-doc of the most recent executed batch (export target).
        self.last_comm = None
        #: Optional :class:`repro.obs.profile.ProfileContext` shared by
        #: every batch engine — regions and work counters accumulate
        #: across batches into one service-level profile.
        self.profile = profile
        #: Resident input: generated once, frozen, and partitioned once —
        #: here, so that the first batch does not pay for it.  Batch
        #: engines find this partition, and the symmetrized graph and
        #: its partition that kcore needs, where every engine on a
        #: frozen graph does: :func:`repro.graph.csr.resident`.
        self.graph = cached_graph(config.graph, config.scale, config.seed, True)
        self.partition = make_partition(
            self.graph, config.hosts,
            "cvc" if config.system == "abelian" else "edge-cut",
        )
        self.cache = ResultCache(config.cache_capacity)
        self.admission = AdmissionController(config.admission)
        self.graph_version = 0
        #: The service clock, in simulated seconds.
        self.clock = 0.0
        self.batch_log: List[dict] = []
        self._plan = None
        if config.fault_plan is not None and config.fault_plan != "none":
            self._plan = get_plan(config.fault_plan, config.fault_seed)
            if self._plan.empty:
                self._plan = None
        #: ObsContext of the most recent executed batch (export target).
        self.last_obs = None
        self._messages = 0
        self._message_bytes = 0
        self._exec_seconds = 0.0
        self._inbox: List[Query] = []
        self._scenario = Scenario(
            app="serve", graph=config.graph, scale=config.scale,
            hosts=config.hosts, layer=config.layer, system=config.system,
            machine=config.machine, seed=config.seed,
            work_scale=config.work_scale,
        )

    # -- submission API ------------------------------------------------
    def submit_many(self, queries: Sequence[Query]) -> None:
        self._inbox.extend(queries)

    def bump_graph_version(self) -> int:
        """Simulated graph update: invalidates all cached answers."""
        self.graph_version += 1
        self.cache.invalidate_before(self.graph_version)
        return self.graph_version

    # -- the scheduler loop ---------------------------------------------
    def drain(self, queries: Optional[Sequence[Query]] = None) -> "ServeReport":
        """Serve every enqueued query to completion; returns the report.

        Arrivals are processed in (arrival, qid) order.  While a batch
        executes, later arrivals queue up (and are admission-gated
        against the backlog they observe); each scheduling point first
        serves cache hits, then fuses the oldest pending query's kind
        into the next batch.
        """
        if queries is not None:
            self.submit_many(queries)
        wall_start = wall_now()
        stream = sorted(self._inbox, key=lambda q: (q.arrival, q.qid))
        self._inbox = []
        i = 0
        pending: List[Query] = []
        results: List[QueryResult] = []
        while i < len(stream) or pending:
            if not pending and stream[i].arrival > self.clock:
                # Idle service: jump to the next arrival.
                self.clock = stream[i].arrival
            while i < len(stream) and stream[i].arrival <= self.clock:
                q = stream[i]
                i += 1
                admitted, reason = self.admission.admit(len(pending))
                if admitted:
                    pending.append(q)
                else:
                    results.append(QueryResult(
                        q, "rejected", completed_at=q.arrival,
                        latency=0.0, reason=reason,
                    ))
            if not pending:
                continue
            still: List[Query] = []
            for q in pending:
                answer = self.cache.get(self.graph_version, q.cache_key())
                if answer is not None:
                    results.append(QueryResult(
                        q, "ok", completed_at=self.clock,
                        latency=self.clock - q.arrival, cache_hit=True,
                        graph_version=self.graph_version, answer=answer,
                    ))
                else:
                    still.append(q)
            pending = still
            if not pending:
                continue
            key = pending[0].batch_key()
            batch = [q for q in pending if q.batch_key() == key]
            batch = batch[: self.config.max_batch]
            taken = {q.qid for q in batch}
            pending = [q for q in pending if q.qid not in taken]
            results.extend(self._execute_batch(batch))
        results.sort(key=lambda r: r.query.qid)
        return ServeReport(
            config=self.config,
            results=results,
            batches=list(self.batch_log),
            cache_stats=self.cache.stats(),
            admission_stats=self.admission.stats(),
            clock=self.clock,
            exec_seconds=self._exec_seconds,
            messages=self._messages,
            message_bytes=self._message_bytes,
            wall_seconds=wall_now() - wall_start,
        )

    def run_tape(self, spec: TapeSpec) -> "ServeReport":
        """Generate + serve a seeded traffic tape in one call."""
        return self.drain(generate_tape(spec))

    # -- batch execution -------------------------------------------------
    def _execute_batch(self, batch: List[Query]) -> List[QueryResult]:
        bid = len(self.batch_log)
        kind = batch[0].kind
        if kind == "kcore":
            sources: List[int] = []
            app = make_batched_program("kcore", (), k=batch[0].k)
        else:
            sources = sorted({q.source for q in batch})
            app = make_batched_program(
                kind, sources, ppr_rounds=self.config.ppr_rounds,
                ppr_damping=self.config.ppr_damping,
            )
        obs_ctx = None
        if self.obs_enabled:
            from repro.obs import ObsContext

            obs_ctx = ObsContext()
        comm_ctx = None
        if self.commstats_enabled:
            from repro.obs.commstats import CommStatsContext

            comm_ctx = CommStatsContext()
        eng = build_engine(
            self._scenario, fault_plan=self._plan, obs=obs_ctx,
            app=app, graph=self.graph, profile=self.profile,
            commstats=comm_ctx,
        )
        try:
            metrics = eng.run()
        except SanitizerError:
            # A protocol violation is a finding, never "degradation".
            raise
        except (LostCompletionError, RuntimeError) as exc:
            if self._plan is None:
                raise
            penalty = self.admission.batch_seconds \
                or self.config.failure_penalty_seconds
            self.clock += penalty
            self.batch_log.append({
                "batch": bid, "kind": kind, "size": len(batch),
                "sources": len(sources), "status": "failed",
                "error": type(exc).__name__,
                "sim_seconds": round(penalty, 9),
            })
            return [
                QueryResult(
                    q, "failed", completed_at=self.clock,
                    latency=self.clock - q.arrival, batch_id=bid,
                    reason=type(exc).__name__,
                )
                for q in batch
            ]
        if obs_ctx is not None:
            self.last_obs = obs_ctx
        self.clock += metrics.total_seconds
        self._exec_seconds += metrics.total_seconds
        self._messages += metrics.blobs_sent
        self._message_bytes += metrics.payload_bytes_sent
        self.admission.observe_batch(
            metrics.total_seconds, metrics.comm_seconds
        )
        answers = eng.assemble_global()
        per_source: Dict[int, np.ndarray] = {}
        if kind == "kcore":
            self.cache.put(self.graph_version, batch[0].cache_key(), answers)
        else:
            for col, s in enumerate(sources):
                vec = np.ascontiguousarray(answers[:, col])
                per_source[s] = vec
                self.cache.put(self.graph_version, (kind, s), vec)
        entry = {
            "batch": bid, "kind": kind, "size": len(batch),
            "sources": len(sources) if kind != "kcore" else 1,
            "status": "ok", "rounds": metrics.rounds,
            "sim_seconds": round(metrics.total_seconds, 9),
            "messages": metrics.blobs_sent,
        }
        if comm_ctx is not None:
            doc = comm_ctx.comm_doc(meta={"batch": bid})
            self.last_comm = doc
            totals = doc["totals"]
            entry["comm"] = {
                "wire_msgs": totals["wire_msgs"],
                "wire_bytes": totals["wire_bytes"],
                "blob_msgs": totals["blob_msgs"],
                "blob_bytes": totals["blob_bytes"],
                "dropped_msgs": totals["dropped_msgs"],
                "dropped_bytes": totals["dropped_bytes"],
                "fingerprint": doc["fingerprint"],
            }
        self.batch_log.append(entry)
        return [
            QueryResult(
                q, "ok", completed_at=self.clock,
                latency=self.clock - q.arrival, batch_id=bid,
                graph_version=self.graph_version,
                answer=answers if kind == "kcore" else per_source[q.source],
            )
            for q in batch
        ]


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
@dataclass
class ServeReport:
    """Everything one drain measured, deterministically serializable."""

    config: ServeConfig
    results: List[QueryResult]
    batches: List[dict]
    cache_stats: dict
    admission_stats: dict
    #: Service clock at drain end (simulated seconds).
    clock: float
    #: Simulated seconds the fabric actually executed batches.
    exec_seconds: float
    messages: int
    message_bytes: int
    #: Host wall-clock seconds the drain took (machine-dependent, so
    #: kept OUT of the deterministic document unless asked for).
    wall_seconds: float = 0.0

    # ------------------------------------------------------------------
    def _status(self, status: str) -> List[QueryResult]:
        return [r for r in self.results if r.status == status]

    def latency_summary(self) -> LatencySummary:
        return LatencySummary.from_values(
            [r.latency for r in self._status("ok")]
        )

    def as_dict(self, include_wall: bool = False) -> dict:
        """Deterministic report document (byte-stable under json.dumps
        with sorted keys for identical drains).

        ``include_wall`` adds a machine-dependent ``wall`` block (host
        seconds, queries per wall second) — useful in operator-facing
        reports, excluded by default so identical drains still produce
        identical documents.
        """
        ok = self._status("ok")
        by_kind = {}
        for kind in QUERY_KINDS:
            lat = [r.latency for r in ok if r.query.kind == kind]
            if lat:
                by_kind[kind] = LatencySummary.from_values(lat).as_dict()
        executed = [b for b in self.batches if b["status"] == "ok"]
        qps = len(ok) / self.clock if self.clock > 0 else 0.0
        mps = self.messages / self.exec_seconds if self.exec_seconds > 0 \
            else 0.0
        doc = {
            "config": {
                "graph": f"{self.config.graph}{self.config.scale}",
                "hosts": self.config.hosts,
                "layer": self.config.layer,
                "system": self.config.system,
                "max_batch": self.config.max_batch,
                "fault_plan": self.config.fault_plan or "none",
            },
            "queries": {
                "submitted": len(self.results),
                "ok": len(ok),
                "cache_hits": sum(1 for r in ok if r.cache_hit),
                "rejected": len(self._status("rejected")),
                "failed": len(self._status("failed")),
            },
            "batches": {
                "count": len(self.batches),
                "executed": len(executed),
                "batched_queries": sum(b["size"] for b in self.batches),
                "mean_size": round(
                    sum(b["size"] for b in self.batches)
                    / len(self.batches), 3
                ) if self.batches else 0.0,
            },
            "latency": self.latency_summary().as_dict(),
            "latency_by_kind": by_kind,
            "throughput": {
                "sim_seconds": round(self.clock, 9),
                "exec_seconds": round(self.exec_seconds, 9),
                "queries_per_sec": round(qps, 3),
                "messages": self.messages,
                "messages_per_sec": round(mps, 3),
                "payload_mb": round(self.message_bytes / 2**20, 6),
            },
            "cache": dict(self.cache_stats),
            "admission": dict(self.admission_stats),
            "results": [r.as_row() for r in self.results],
        }
        with_comm = [b for b in executed if "comm" in b]
        if with_comm:
            doc["comm"] = {
                "batches": [
                    dict(b["comm"], batch=b["batch"]) for b in with_comm
                ],
                "wire_msgs": sum(b["comm"]["wire_msgs"] for b in with_comm),
                "wire_bytes": sum(b["comm"]["wire_bytes"] for b in with_comm),
                "blob_msgs": sum(b["comm"]["blob_msgs"] for b in with_comm),
                "blob_bytes": sum(
                    b["comm"]["blob_bytes"] for b in with_comm
                ),
            }
        if include_wall:
            wall_qps = (
                len(ok) / self.wall_seconds if self.wall_seconds > 0 else 0.0
            )
            doc["wall"] = {
                "wall_seconds": round(self.wall_seconds, 6),
                "queries_per_wall_sec": round(wall_qps, 3),
            }
        return doc


def format_serve_report(report: ServeReport) -> str:
    doc = report.as_dict()
    q, t, lat = doc["queries"], doc["throughput"], doc["latency"]
    lines = [
        f"serve {doc['config']['graph']}@{doc['config']['hosts']}h"
        f"/{doc['config']['layer']} (fault plan: "
        f"{doc['config']['fault_plan']})",
        f"  queries   : {q['submitted']} submitted, {q['ok']} ok "
        f"({q['cache_hits']} cache hits), {q['rejected']} rejected, "
        f"{q['failed']} failed",
        f"  batches   : {doc['batches']['executed']} executed, "
        f"mean size {doc['batches']['mean_size']}",
        f"  latency   : p50 {lat['p50_us']}us  p95 {lat['p95_us']}us  "
        f"p99 {lat['p99_us']}us",
        f"  throughput: {t['queries_per_sec']} queries/s, "
        f"{t['messages_per_sec']} msgs/s over {t['sim_seconds']}s "
        f"simulated",
    ]
    comm = doc.get("comm")
    if comm:
        lines.append(
            f"  comm      : {comm['wire_msgs']} pkts / "
            f"{comm['wire_bytes']} B on the wire, {comm['blob_msgs']} "
            f"blobs / {comm['blob_bytes']} B payload across "
            f"{len(comm['batches'])} batches"
        )
    return "\n".join(lines)
