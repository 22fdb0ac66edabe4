"""The fault injector: deterministic adversity for the simulated fabric.

One :class:`FaultInjector` is installed per run (``injector.install(fabric)``
sets ``fabric.faults`` and ``env.faults``).  The NIC and the simulation
kernel consult it through four narrow hooks, each a no-op-fast check when
the corresponding fault kinds are absent from the plan:

* :meth:`tx_blocked`   — NIC-stall windows (``Nic.try_inject``);
* :meth:`link_adjust`  — latency/bandwidth degradation windows;
* :meth:`transit_fate` — per-packet drop/duplicate/reorder draws;
* :meth:`dilate`       — host-straggler stretching of charged CPU time
  (``Environment.charged_timeout``).

Every probabilistic draw comes from a per-spec stream of a
:class:`repro.sim.rng.RngFactory` rooted at the plan's seed, so the same
(plan, scenario) pair replays a byte-identical fault trace.  The trace —
one :class:`FaultEvent` per injected packet fault — is the determinism
witness; an attached :class:`repro.obs.ObsContext` reads it (and the
plan's windows) at export for the timeline's ``fault`` instants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional

from repro.faults.plan import FaultPlan
from repro.sim.rng import RngFactory

__all__ = ["FaultEvent", "TransitFate", "FaultInjector"]


@dataclass(frozen=True)
class FaultEvent:
    """One injected packet fault (the unit of the replayable trace)."""

    time: float
    kind: str
    src: int
    dst: int
    ptype: str
    size: int
    #: reorder/duplicate: the extra delay drawn for the (second) delivery.
    delay: float = 0.0


class TransitFate(NamedTuple):
    """What happens to one packet in transit."""

    dropped: bool
    duplicated: bool
    delay: float      # extra arrival delay (reorder)
    dup_delay: float  # extra delay of the duplicate copy


class FaultInjector:
    """Evaluates a :class:`FaultPlan` against live simulation events."""

    def __init__(self, env, plan: FaultPlan):
        self.env = env
        self.plan = plan
        #: Injected faults by kind, in first-occurrence order.
        self._counts: Dict[str, int] = {}
        self.trace: List[FaultEvent] = []
        rng = RngFactory(plan.seed)
        # One independent stream per spec: adding a spec never perturbs
        # the draws of the others.
        self._packet_specs = []
        for i, spec in enumerate(plan.specs):
            if spec.kind in ("drop", "duplicate", "reorder"):
                stream = rng.register(
                    f"faults.{spec.kind}.{i}", owner=f"fault spec #{i}"
                )
                self._packet_specs.append((spec, stream))
        self._stall_specs = [s for s in plan.specs if s.kind == "nic_stall"]
        self._degrade_specs = [s for s in plan.specs if s.kind == "degrade"]
        self._straggler_specs = sorted(
            (s for s in plan.specs if s.kind == "straggler"),
            key=lambda s: s.start,
        )

    # ------------------------------------------------------------------
    def install(self, fabric) -> "FaultInjector":
        """Attach to a fabric (and its environment).  Must run before the
        communication layers are built so LCI can arm its recovery
        protocol."""
        fabric.faults = self
        self.env.faults = self
        return self

    # ------------------------------------------------------------------
    # NIC hooks
    # ------------------------------------------------------------------
    def tx_blocked(self, host: int, pkt) -> bool:
        """True when ``host``'s NIC is inside a stall window: the inject
        attempt fails exactly like a full TX queue (retryable)."""
        now = self.env.now
        for spec in self._stall_specs:
            if spec.matches_host(host) and spec.in_window(now):
                self._count("nic_stall_rejects")
                return True
        return False

    def link_adjust(self, pkt, ser: float, latency: float):
        """Apply link-degradation windows to one packet's wire costs."""
        now = self.env.now
        for spec in self._degrade_specs:
            if spec.matches_host(pkt.src) and spec.in_window(now):
                ser = ser / spec.bandwidth_factor
                latency = latency * spec.factor
                self._count("degraded_pkts")
        return ser, latency

    def transit_fate(self, pkt) -> Optional[TransitFate]:
        """Draw this packet's fate; ``None`` when no packet spec applies
        (the common case — the caller then keeps the unfaulted path)."""
        if not self._packet_specs:
            return None
        now = self.env.now
        dropped = False
        duplicated = False
        delay = 0.0
        dup_delay = 0.0
        touched = False
        for spec, stream in self._packet_specs:
            if not spec.matches_packet(pkt, now):
                continue
            touched = True
            if spec.kind == "drop":
                if not dropped and stream.random() < spec.rate:
                    dropped = True
                    self._record("drop", pkt, now)
            elif spec.kind == "duplicate":
                if not duplicated and stream.random() < spec.rate:
                    duplicated = True
                    dup_delay = spec.delay
                    self._record("duplicate", pkt, now, delay=dup_delay)
            else:  # reorder
                if stream.random() < spec.rate:
                    extra = float(stream.random()) * spec.delay
                    delay += extra
                    self._record("reorder", pkt, now, delay=extra)
        if not touched or not (dropped or duplicated or delay):
            return None
        return TransitFate(dropped, duplicated, delay, dup_delay)

    # ------------------------------------------------------------------
    # Simulation-kernel hook (host stragglers)
    # ------------------------------------------------------------------
    def dilate(self, host: int, seconds: float, now: float) -> float:
        """Wall time for ``seconds`` of CPU work starting at ``now`` on
        ``host``, accounting for straggler windows (the CPU runs at
        ``1/factor`` speed inside a window).  Windows are walked in start
        order; overlapping windows for one host are a plan-author error
        and the first one wins for the overlapped span."""
        if not self._straggler_specs or seconds <= 0:
            return seconds
        t = now
        work = seconds
        wall = 0.0
        for spec in self._straggler_specs:
            if not spec.matches_host(host) or spec.end <= t:
                continue
            if work <= 0:
                break
            if t < spec.start:
                # Full speed until the window opens.
                done = min(work, spec.start - t)
                wall += done
                t += done
                work -= done
                if work <= 0:
                    break
            if t < spec.end:
                # Inside the window: each unit of work costs factor wall.
                achievable = (spec.end - t) / spec.factor
                done = min(work, achievable)
                wall += done * spec.factor
                t += done * spec.factor
                work -= done
        wall += max(0.0, work)
        if wall > seconds:
            self._count("straggler_dilations")
        return wall

    # ------------------------------------------------------------------
    # Trace plumbing
    # ------------------------------------------------------------------
    def _count(self, name: str) -> None:
        self._counts[name] = self._counts.get(name, 0) + 1

    def _record(self, kind: str, pkt, now: float, delay: float = 0.0) -> None:
        self._count(f"{kind}s")
        self.trace.append(FaultEvent(
            now, kind, pkt.src, pkt.dst, pkt.ptype.name, pkt.size, delay
        ))

    # ------------------------------------------------------------------
    def counts(self) -> dict:
        """Flat snapshot of the injector's counters."""
        return dict(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultInjector({self.plan.name or self.plan.describe()!r})"
