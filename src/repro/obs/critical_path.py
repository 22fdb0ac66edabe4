"""Critical-path analysis over the message-lifecycle event stream.

Reconstructs each traced message's causal chain (one
:class:`MessageTimeline` per trace id) and attributes its end-to-end
latency to protocol stages: the interval between consecutive events is
charged to the *earlier* event's stage — an event marks the state the
message entered, so the time until the next event is time spent in that
state.  Per-stage sums telescope to exactly the message's end-to-end
latency, which is the invariant the tests pin.

On top of the per-message timelines:

* :func:`stage_attribution` — seconds per (layer, stage) across a run:
  the paper's Fig. 6 narrative made quantitative (matching-queue wait
  vs. probe-poll latency vs. epoch synchronization vs. pool recycling).
* :func:`round_attribution` — the same, split per (round, pattern),
  recovered from the ``api`` event's args.
* :func:`slowest` — the N worst end-to-end message latencies with their
  stage breakdowns (the run's critical messages).
* :func:`explain_report` — the human-readable report behind
  ``repro explain`` and ``repro run --obs``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = [
    "MessageTimeline",
    "events_of",
    "build_timelines",
    "stage_attribution",
    "round_attribution",
    "stall_attribution",
    "slowest",
    "format_stage_table",
    "explain_report",
]


class MessageTimeline:
    """One trace id's ordered lifecycle events and derived intervals."""

    __slots__ = ("trace", "events")

    def __init__(self, trace: str):
        self.trace = trace
        #: [(stage, host, t, args), ...] in emission order.
        self.events: List[Tuple[str, int, float, Dict]] = []

    @property
    def layer(self) -> str:
        """Layer prefix of the trace id (``lci:0>1:7`` -> ``lci``)."""
        return self.trace.split(":", 1)[0]

    @property
    def start(self) -> float:
        return self.events[0][2]

    @property
    def end(self) -> float:
        return self.events[-1][2]

    @property
    def latency(self) -> float:
        """End-to-end: first event (api/lib) to last event (complete)."""
        return self.end - self.start

    @property
    def completed(self) -> bool:
        return any(stage == "complete" for stage, _h, _t, _a in self.events)

    @property
    def first_args(self) -> Dict:
        return self.events[0][3]

    def stage_durations(self) -> List[Tuple[str, float]]:
        """[(stage, seconds-in-stage), ...]; telescopes to ``latency``.

        The final event contributes zero (terminal states have no
        successor); repeated stages appear once per visit.
        """
        out: List[Tuple[str, float]] = []
        evs = self.events
        for i in range(len(evs) - 1):
            stage = evs[i][0]
            out.append((stage, evs[i + 1][2] - evs[i][2]))
        return out

    def stage_totals(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for stage, dur in self.stage_durations():
            totals[stage] = totals.get(stage, 0.0) + dur
        return totals


def events_of(source) -> List[Tuple[str, str, int, float, Dict]]:
    """Normalize an ObsContext or a timeline dict to event tuples."""
    if isinstance(source, dict):
        return [
            (row[0], row[1], row[2], row[3], row[4] or {})
            for row in source.get("events", ())
        ]
    return [
        (ev.trace, ev.stage, ev.host, ev.t, ev.args or {})
        for ev in source.ordered_events()
    ]


def build_timelines(source) -> List[MessageTimeline]:
    """Group events by trace id, in order of first appearance.

    Events for one trace keep their emission order, which is their
    causal order (the simulation clock never runs backwards and
    same-timestamp events append in execution order).
    """
    by_trace: Dict[str, MessageTimeline] = {}
    order: List[str] = []
    for trace, stage, host, t, args in events_of(source):
        tl = by_trace.get(trace)
        if tl is None:
            tl = by_trace[trace] = MessageTimeline(trace)
            order.append(trace)
        tl.events.append((stage, host, t, args))
    return [by_trace[tr] for tr in order]


def stage_attribution(
    timelines: List[MessageTimeline],
) -> Dict[str, Dict[str, float]]:
    """Seconds spent per stage, keyed by layer then stage."""
    out: Dict[str, Dict[str, float]] = {}
    for tl in timelines:
        layer = out.setdefault(tl.layer, {})
        for stage, dur in tl.stage_durations():
            layer[stage] = layer.get(stage, 0.0) + dur
    return out


def round_attribution(
    timelines: List[MessageTimeline],
) -> Dict[Tuple[str, object, object], Dict[str, float]]:
    """Stage seconds keyed by (layer, round, pattern).

    Round and pattern come from the message's first event args (the
    ``api`` emission records ``blob.phase``); messages without them
    (e.g. aggregate frames spanning blobs) land under (layer, None,
    None).
    """
    out: Dict[Tuple[str, object, object], Dict[str, float]] = {}
    for tl in timelines:
        args = tl.first_args
        key = (tl.layer, args.get("round"), args.get("pattern"))
        bucket = out.setdefault(key, {})
        for stage, dur in tl.stage_durations():
            bucket[stage] = bucket.get(stage, 0.0) + dur
    return out


def stall_attribution(stalls) -> Dict[str, float]:
    """Total stall seconds per kind (from timeline rows or Stall objs)."""
    out: Dict[str, float] = {}
    for s in stalls:
        if isinstance(s, (list, tuple)):
            _host, kind, start, end = s
        else:
            kind, start, end = s.kind, s.start, s.end
        out[kind] = out.get(kind, 0.0) + (end - start)
    return out


def slowest(
    timelines: List[MessageTimeline], n: int = 5
) -> List[MessageTimeline]:
    """The ``n`` worst end-to-end latencies (ties broken by trace id)."""
    return sorted(
        (tl for tl in timelines if len(tl.events) > 1),
        key=lambda tl: (-tl.latency, tl.trace),
    )[:n]


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _us(seconds: float) -> str:
    return f"{seconds * 1e6:.2f}us"


def format_stage_table(att: Dict[str, Dict[str, float]]) -> str:
    """Per-layer stage-attribution table (stages sorted by total)."""
    from repro.bench.report import format_table

    rows = []
    for layer in sorted(att):
        stages = att[layer]
        total = sum(stages[s] for s in sorted(stages))
        for stage, secs in sorted(
            stages.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            share = secs / total if total > 0 else 0.0
            rows.append({
                "layer": layer,
                "stage": stage,
                "seconds": f"{secs:.9f}",
                "share": f"{share * 100:.1f}%",
            })
    if not rows:
        return "(no traced messages)"
    return format_table(rows)


def _format_round_table(
    per_round: Dict[Tuple[str, object, object], Dict[str, float]],
) -> str:
    from repro.bench.report import format_table

    rows = []
    keys = sorted(
        per_round,
        key=lambda k: (k[0], k[1] if k[1] is not None else -1, str(k[2])),
    )
    for key in keys:
        layer, rnd, pattern = key
        stages = per_round[key]
        if not stages:
            continue
        dominant = min(stages.items(), key=lambda kv: (-kv[1], kv[0]))
        total = sum(stages[s] for s in sorted(stages))
        rows.append({
            "layer": layer,
            "round": rnd if rnd is not None else "-",
            "pattern": pattern if pattern is not None else "-",
            "comm_time": _us(total),
            "dominant_stage": dominant[0],
            "dominant_time": _us(dominant[1]),
        })
    if not rows:
        return "(no per-round data)"
    return format_table(rows)


def explain_report(
    timeline: dict,
    top: int = 5,
    per_round: bool = False,
) -> str:
    """Full human-readable critical-path report for one timeline."""
    meta = timeline.get("meta", {})
    timelines = build_timelines(timeline)
    att = stage_attribution(timelines)
    lines: List[str] = []
    if meta:
        pairs = ", ".join(f"{k}={meta[k]}" for k in sorted(meta))
        lines.append(f"run: {pairs}")
    done = sum(1 for tl in timelines if tl.completed)
    lines.append(
        f"traced messages: {len(timelines)} ({done} completed); "
        f"events: {len(timeline.get('events', ()))}"
    )
    # End-to-end latency percentiles (nearest-rank, same summary the
    # serve layer reports) — overall, plus per layer when several
    # layers share the timeline.
    from repro.obs.latency import LatencySummary

    lat_by_layer: Dict[str, List[float]] = {}
    for tl in timelines:
        if tl.completed:
            lat_by_layer.setdefault(tl.layer, []).append(tl.latency)
    if lat_by_layer:
        def _lat_line(label: str, values: List[float]) -> str:
            d = LatencySummary.from_values(values).as_dict()
            return (
                f"{label}: p50={d['p50_us']:g}us p95={d['p95_us']:g}us "
                f"p99={d['p99_us']:g}us max={d['max_us']:g}us "
                f"(n={d['count']})"
            )

        all_values = [
            v for layer in sorted(lat_by_layer)
            for v in lat_by_layer[layer]
        ]
        lines.append(_lat_line("message latency", all_values))
        if len(lat_by_layer) > 1:
            for layer in sorted(lat_by_layer):
                lines.append(
                    "  " + _lat_line(layer, lat_by_layer[layer])
                )
    lines.append("")
    lines.append("stage attribution (per layer):")
    lines.append(format_stage_table(att))
    if per_round:
        lines.append("")
        lines.append("per-round dominant stages:")
        lines.append(_format_round_table(round_attribution(timelines)))
    stall_tot = stall_attribution(timeline.get("stalls", ()))
    if stall_tot:
        lines.append("")
        lines.append("stalls: " + ", ".join(
            f"{kind}={_us(stall_tot[kind])}" for kind in sorted(stall_tot)
        ))
    worst = slowest(timelines, n=top)
    if worst:
        lines.append("")
        lines.append(f"slowest {len(worst)} messages:")
        for tl in worst:
            breakdown = " ".join(
                f"{stage}={_us(dur)}"
                for stage, dur in sorted(
                    tl.stage_totals().items(), key=lambda kv: (-kv[1], kv[0])
                )
                if dur > 0
            )
            lines.append(
                f"  {tl.trace}: {_us(tl.latency)} end-to-end  [{breakdown}]"
            )
    peaks = _probe_peaks(timeline)
    if peaks:
        lines.append("")
        lines.append("probe peaks: " + ", ".join(
            f"{name}={int(val)}" for name, val in peaks
        ))
    return "\n".join(lines)


def _probe_peaks(timeline: dict) -> List[Tuple[str, float]]:
    """Max sampled value per probe name, across hosts."""
    peaks: Dict[str, float] = {}
    for s in timeline.get("samples", ()):
        vals = s.get("values") or ()
        if not vals:
            continue
        name = s["probe"]
        peak = max(vals)
        if name not in peaks or peak > peaks[name]:
            peaks[name] = peak
    return sorted(peaks.items())
