"""The chaos harness: run a scenario under a fault plan, judge the result.

For each (scenario, plan) pair the harness runs the scenario twice on
fresh simulated clusters — once fault-free, once with the plan installed
— and reports one of four outcomes:

* ``recovered`` — the run finished and produced exactly the fault-free
  answer (LCI under packet faults: the ack/retransmit protocol absorbs
  them, at a measurable overhead);
* ``degraded``  — the run finished but the answer differs (should not
  happen for any current layer; it would indicate silent corruption);
* ``hung``      — a lost completion deadlocked the layer
  (:class:`LostCompletionError`; MPI under drops);
* ``crashed``   — the layer raised a simulated fatal error
  (:class:`MPIProtocolError` on duplicated rendezvous data,
  :class:`MPIResourceExhausted`, or a dead-link
  :class:`SimulationError`).

This module imports the benchmark stack, which imports the engine, which
imports :mod:`repro.faults` — so nothing here may be imported from the
package ``__init__``; the CLI and tests import it lazily.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.bench.scenarios import Scenario, build_engine
from repro.faults.plan import LostCompletionError, get_plan
from repro.lci.reliability import ReliableLink
from repro.mpi.exceptions import MPIError
from repro.sim.engine import SimulationError

__all__ = [
    "ChaosReport",
    "run_chaos",
    "format_chaos_report",
    "ServeChaosReport",
    "run_serve_chaos",
    "format_serve_chaos_report",
]


@dataclass
class ChaosReport:
    """Outcome of one scenario under one fault plan."""

    scenario: str
    layer: str
    plan: str
    outcome: str                     # recovered | degraded | hung | crashed
    error: str = ""
    baseline_seconds: float = 0.0
    faulted_seconds: float = 0.0
    fault_counts: Dict[str, int] = field(default_factory=dict)
    recovery: Dict[str, int] = field(default_factory=dict)
    rounds: int = 0
    #: Fault-attributed traffic deltas (baseline vs. faulted wire
    #: volume, plus what the injector actually dropped), populated when
    #: :func:`run_chaos` ran with ``commstats=True``.
    comm: Dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.outcome == "recovered"

    @property
    def overhead(self) -> float:
        """Recovery overhead: extra simulated time over the fault-free
        run, as a fraction (0.08 = 8% slower).  0 for hung/crashed."""
        if self.outcome in ("hung", "crashed") or self.baseline_seconds <= 0:
            return 0.0
        return self.faulted_seconds / self.baseline_seconds - 1.0

    def row(self) -> dict:
        return {
            "scenario": self.scenario,
            "plan": self.plan,
            "outcome": self.outcome,
            "time_base": f"{self.baseline_seconds * 1e3:.3f}ms",
            "time_fault": (
                f"{self.faulted_seconds * 1e3:.3f}ms"
                if self.outcome in ("recovered", "degraded") else "-"
            ),
            "overhead": (
                f"{self.overhead * 100:+.1f}%"
                if self.outcome in ("recovered", "degraded") else "-"
            ),
            "faults": sum(self.fault_counts.values()),
            "retransmits": self.recovery.get("retransmissions", 0),
        }


def run_chaos(
    sc: Scenario,
    plan,
    fault_seed: Optional[int] = None,
    obs=None,
    commstats: bool = False,
) -> ChaosReport:
    """Run ``sc`` fault-free and under ``plan``; compare and report.

    ``plan`` may be a :class:`FaultPlan` or the name of one.  The
    baseline uses a fresh cluster with identical seeds, so any output
    difference is attributable to the faults.  ``obs`` (an
    :class:`repro.obs.ObsContext`) attaches lifecycle tracing to the
    *faulted* run only — the baseline stays instrumentation-free.
    ``commstats=True`` attaches a traffic matrix to *both* runs and
    fills :attr:`ChaosReport.comm` with fault-attributed byte deltas
    (retransmissions show up as extra wire volume over the baseline;
    the injector's kills as the dropped matrix).
    """
    plan = get_plan(plan, fault_seed)

    base_comm = faulted_comm = None
    if commstats:
        from repro.obs.commstats import CommStatsContext

        base_comm = CommStatsContext()
        faulted_comm = CommStatsContext()

    base_engine = build_engine(sc, commstats=base_comm)
    base_metrics = base_engine.run()
    base_answer = base_engine.assemble_global()

    report = ChaosReport(
        scenario=sc.label(),
        layer=sc.layer,
        plan=plan.name or plan.describe(),
        outcome="recovered",
        baseline_seconds=base_metrics.total_seconds,
    )
    if plan.empty:
        report.faulted_seconds = base_metrics.total_seconds
        report.rounds = base_metrics.rounds
        if base_comm is not None:
            base_doc = base_comm.comm_doc()
            report.comm = _comm_delta(base_doc, base_doc)
        return report

    engine = build_engine(sc, fault_plan=plan, obs=obs,
                          commstats=faulted_comm)
    try:
        metrics = engine.run()
    except LostCompletionError as exc:
        report.outcome = "hung"
        report.error = str(exc)
    except (MPIError, SimulationError) as exc:
        report.outcome = "crashed"
        report.error = f"{type(exc).__name__}: {exc}"
    else:
        report.faulted_seconds = metrics.total_seconds
        report.rounds = metrics.rounds
        answer = engine.assemble_global()
        same = (
            np.allclose(answer, base_answer, rtol=1e-9, atol=0)
            if np.issubdtype(answer.dtype, np.floating)
            else np.array_equal(answer, base_answer)
        )
        if not same:
            report.outcome = "degraded"
            report.error = "answer differs from fault-free run"
        report.recovery = {
            k: metrics.layer_counters[k]
            for k in ReliableLink.COUNTERS
            if k in metrics.layer_counters
        }
    if engine.injector is not None:
        report.fault_counts = engine.injector.counts()
    if faulted_comm is not None:
        # Counts are recorded at injection time, so the faulted matrix
        # is meaningful even when the run later hung or crashed.
        report.comm = _comm_delta(base_comm.comm_doc(),
                                  faulted_comm.comm_doc())
    return report


def _comm_delta(base_doc: dict, fault_doc: dict) -> Dict:
    """Fault-attributed traffic deltas between two comm-docs."""
    b, f = base_doc["totals"], fault_doc["totals"]
    return {
        "baseline_msgs": b["wire_msgs"],
        "baseline_bytes": b["wire_bytes"],
        "faulted_msgs": f["wire_msgs"],
        "faulted_bytes": f["wire_bytes"],
        "delta_msgs": f["wire_msgs"] - b["wire_msgs"],
        "delta_bytes": f["wire_bytes"] - b["wire_bytes"],
        "dropped_msgs": f["dropped_msgs"],
        "dropped_bytes": f["dropped_bytes"],
        "baseline_fingerprint": base_doc["fingerprint"],
        "faulted_fingerprint": fault_doc["fingerprint"],
    }


# ----------------------------------------------------------------------
# Serve-mode chaos: graceful degradation of the query service
# ----------------------------------------------------------------------
@dataclass
class ServeChaosReport:
    """One traffic tape served fault-free vs. under a fault plan.

    The service's resilience contract is *graceful degradation*: a
    fault that hangs or crashes a batch fails only that batch's queries
    — the service keeps draining the tape, and every query it does
    answer matches the fault-free answer.
    """

    plan: str
    #: Query status counts {status: count} for each run.
    baseline_counts: Dict[str, int] = field(default_factory=dict)
    faulted_counts: Dict[str, int] = field(default_factory=dict)
    #: Queries answered OK in *both* runs whose answers differ (silent
    #: corruption; must be 0).
    answer_mismatches: int = 0
    #: Queries the faulted run failed or shed that the baseline served.
    shed: int = 0
    baseline_clock: float = 0.0
    faulted_clock: float = 0.0

    @property
    def graceful(self) -> bool:
        """Served the whole tape with zero silent corruption."""
        return self.answer_mismatches == 0

    @property
    def overhead(self) -> float:
        if self.baseline_clock <= 0:
            return 0.0
        return self.faulted_clock / self.baseline_clock - 1.0


def run_serve_chaos(config, tape_spec, plan,
                    fault_seed: Optional[int] = None) -> ServeChaosReport:
    """Serve one tape on two fresh services: fault-free, then faulted.

    ``config`` is a :class:`repro.serve.ServeConfig` (its own
    ``fault_plan`` field is ignored), ``tape_spec`` a
    :class:`repro.serve.TapeSpec`.  Deterministic end to end: both
    services see the identical query stream.
    """
    from dataclasses import replace

    from repro.serve import ServeEngine, generate_tape

    plan = get_plan(plan, fault_seed)
    queries = generate_tape(tape_spec)

    base = ServeEngine(replace(config, fault_plan=None))
    base_report = base.drain(list(queries))
    faulted = ServeEngine(replace(config, fault_plan=None))
    # The resolver already ran; install the plan object directly so
    # unnamed plans work too.
    faulted._plan = None if plan.empty else plan
    fault_report = faulted.drain(list(queries))

    def counts(report) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for r in report.results:
            out[r.status] = out.get(r.status, 0) + 1
        return out

    base_by_qid = {r.query.qid: r for r in base_report.results}
    mismatches = 0
    shed = 0
    for r in fault_report.results:
        b = base_by_qid[r.query.qid]
        if r.status != "ok":
            if b.status == "ok":
                shed += 1
            continue
        if b.status != "ok" or b.answer is None or r.answer is None:
            continue
        if np.issubdtype(r.answer.dtype, np.floating):
            same = np.allclose(r.answer, b.answer, rtol=1e-9, atol=0)
        else:
            same = np.array_equal(r.answer, b.answer)
        if not same:
            mismatches += 1
    return ServeChaosReport(
        plan=plan.name or plan.describe(),
        baseline_counts=counts(base_report),
        faulted_counts=counts(fault_report),
        answer_mismatches=mismatches,
        shed=shed,
        baseline_clock=base_report.clock,
        faulted_clock=fault_report.clock,
    )


def format_serve_chaos_report(report: ServeChaosReport) -> str:
    def fmt(c: Dict[str, int]) -> str:
        return ", ".join(f"{k}={c[k]}" for k in sorted(c))

    return "\n".join([
        f"plan      : {report.plan}",
        f"baseline  : {fmt(report.baseline_counts)} "
        f"in {report.baseline_clock * 1e3:.3f} ms",
        f"faulted   : {fmt(report.faulted_counts)} "
        f"in {report.faulted_clock * 1e3:.3f} ms "
        f"({report.overhead * 100:+.1f}%)",
        f"shed      : {report.shed} queries lost to faults",
        f"mismatches: {report.answer_mismatches} "
        f"(graceful={'yes' if report.graceful else 'NO'})",
    ])


def format_chaos_report(report: ChaosReport) -> str:
    """Human-readable multi-line summary for the CLI."""
    lines = [
        f"scenario : {report.scenario}",
        f"plan     : {report.plan}",
        f"outcome  : {report.outcome}"
        + (f" ({report.error})" if report.error else ""),
        f"baseline : {report.baseline_seconds * 1e3:.3f} ms",
    ]
    if report.outcome in ("recovered", "degraded"):
        lines.append(
            f"faulted  : {report.faulted_seconds * 1e3:.3f} ms "
            f"({report.overhead * 100:+.1f}% recovery overhead, "
            f"{report.rounds} rounds)"
        )
    if report.fault_counts:
        pairs = ", ".join(
            f"{k}={v}" for k, v in sorted(report.fault_counts.items())
        )
        lines.append(f"injected : {pairs}")
    if report.recovery:
        pairs = ", ".join(
            f"{k}={v}" for k, v in sorted(report.recovery.items())
        )
        lines.append(f"recovery : {pairs}")
    if report.comm:
        c = report.comm
        lines.append(
            f"comm     : {c['baseline_bytes']} B fault-free -> "
            f"{c['faulted_bytes']} B faulted "
            f"({c['delta_bytes']:+d} B, {c['delta_msgs']:+d} pkts); "
            f"injector dropped {c['dropped_msgs']} pkts / "
            f"{c['dropped_bytes']} B"
        )
    return "\n".join(lines)
