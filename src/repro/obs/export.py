"""Exporters for the observability timeline.

Three output formats, all deterministic byte-for-byte for a given run:

* **JSON timeline** (:func:`save_timeline` / :func:`load_timeline`) —
  the native document produced by ``ObsContext.as_timeline()``; the
  input of ``repro explain``.
* **Chrome trace** (:func:`to_chrome_trace`) — per-stage ``"X"`` spans
  on one process row per host, with ``ph:"s"/"f"`` *flow events*
  stitching each message's sender-side and receiver-side spans into a
  single arrow in Perfetto / ``chrome://tracing``; the engine's round
  spans on each host's ``main`` row and fault instants on their own
  row.  The program's only Chrome-trace writer.
* **Prometheus text format** (:func:`to_prometheus`) — aggregate
  counters/gauges for scraping or diffing in CI.

All writes go through :func:`repro.obs.atomic.atomic_write_text` so
interrupted runs cannot leave truncated artifacts.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from repro.obs.atomic import atomic_write_text
from repro.obs.critical_path import build_timelines, stage_attribution

__all__ = [
    "save_timeline",
    "load_timeline",
    "to_chrome_trace",
    "save_chrome_trace",
    "to_prometheus",
    "save_prometheus",
]


def save_timeline(path: str, timeline: dict) -> str:
    return atomic_write_text(path, json.dumps(timeline))


def load_timeline(path: str) -> dict:
    """A saved timeline; ``ValueError`` when it is not an object or a
    section `repro explain` reads has the wrong type."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError(f"a timeline must be a JSON object, not "
                         f"{type(doc).__name__}")
    for key, kind in (("meta", dict), ("events", list), ("samples", list),
                      ("stalls", list)):
        if not isinstance(doc.get(key, kind()), kind):
            raise ValueError(f"timeline field {key!r} must be a {kind.__name__}")
    return doc


# ----------------------------------------------------------------------
# Chrome trace with flow events
# ----------------------------------------------------------------------
def to_chrome_trace(timeline: dict) -> dict:
    """Chrome trace-event JSON with sender->receiver flow arrows.

    Each lifecycle event opens an ``"X"`` span on its host's
    ``lifecycle`` thread lasting until the message's next event (the
    stage-attribution interval).  Whenever consecutive events sit on
    *different* hosts, a flow step (``ph:"s"`` at the tail, ``ph:"f"``
    with ``bp:"e"`` at the head) links them, drawing the wire hop.
    Flow ids are sequential ints in event order — deterministic because
    the event stream is.
    """
    events: List[dict] = []
    flow_id = 0
    for tl in build_timelines(timeline):
        evs = tl.events
        for i, (stage, host, t, args) in enumerate(evs):
            nxt_t = evs[i + 1][2] if i + 1 < len(evs) else t
            span = {
                "ph": "X",
                "pid": host,
                "tid": "lifecycle",
                "cat": f"obs.{tl.layer}",
                "name": stage,
                "ts": t * 1e6,
                "dur": (nxt_t - t) * 1e6,
                "args": dict(args, trace=tl.trace),
            }
            events.append(span)
            if i + 1 < len(evs) and evs[i + 1][1] != host:
                events.append({
                    "ph": "s", "pid": host, "tid": "lifecycle",
                    "cat": "obs.flow", "name": "msg", "id": flow_id,
                    "ts": t * 1e6, "args": {"trace": tl.trace},
                })
                events.append({
                    "ph": "f", "bp": "e", "pid": evs[i + 1][1],
                    "tid": "lifecycle", "cat": "obs.flow", "name": "msg",
                    "id": flow_id, "ts": evs[i + 1][2] * 1e6,
                    "args": {"trace": tl.trace},
                })
                flow_id += 1
    # Probe samples as counter tracks.
    for s in timeline.get("samples", ()):
        name = f"{s['probe']}[{s['host']}]"
        for t, v in zip(s.get("times", ()), s.get("values", ())):
            events.append({
                "ph": "C", "pid": s["host"], "tid": 0,
                "cat": "obs.probe", "name": name,
                "ts": t * 1e6, "args": {"value": v},
            })
    # Stalls as spans on a dedicated thread row.
    for host, kind, start, end in timeline.get("stalls", ()):
        events.append({
            "ph": "X", "pid": host, "tid": "stalls",
            "cat": "obs.stall", "name": kind,
            "ts": start * 1e6, "dur": (end - start) * 1e6,
            "args": {},
        })
    # Engine activity (compute / allreduce per round) on the main row.
    for host, category, name, start, end, args in timeline.get("spans", ()):
        events.append({
            "ph": "X", "pid": host, "tid": "main",
            "cat": category, "name": name,
            "ts": start * 1e6, "dur": (end - start) * 1e6,
            "args": args,
        })
    # Fault markers: one thread row per category.
    for host, category, name, t, args in timeline.get("instants", ()):
        events.append({
            "ph": "i", "pid": host, "tid": category,
            "cat": category, "name": name,
            "ts": t * 1e6, "s": "p",
            "args": args,
        })
    # Stable metadata rows in sorted (pid, name) order.
    hosts = sorted({e["pid"] for e in events})
    for h in hosts:
        events.append({
            "ph": "M", "pid": h, "name": "process_name",
            "args": {"name": f"host {h}"},
        })
        events.append({
            "ph": "M", "pid": h, "name": "process_sort_index",
            "args": {"sort_index": h},
        })
    return {"traceEvents": events, "displayTimeUnit": "ns"}


def save_chrome_trace(path: str, timeline: dict) -> str:
    return atomic_write_text(path, json.dumps(to_chrome_trace(timeline)))


# ----------------------------------------------------------------------
# Prometheus text format
# ----------------------------------------------------------------------
def _prom_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels(pairs: List[Tuple[str, object]]) -> str:
    inner = ",".join(f'{k}="{_prom_escape(str(v))}"' for k, v in pairs)
    return "{" + inner + "}"


def to_prometheus(timeline: dict, counters: Dict[str, int] = None,
                  comm: dict = None) -> str:
    """Prometheus exposition text for one run's timeline.

    Families: ``repro_obs_stage_seconds_total`` (per layer/stage),
    ``repro_obs_messages_total`` (traced messages per layer),
    ``repro_obs_probe_peak`` (max sampled value per probe/host),
    ``repro_obs_stall_seconds_total`` (per kind/host), plus run-level
    gauges recovered from the timeline's ``meta``.  ``counters`` (a
    :meth:`ProfileContext.counters_dict` mapping from the host-side
    profiler) adds a ``repro_work_counter_total`` family so serve
    deployments expose work counts alongside latency; ``comm`` (a
    comm-doc from :meth:`CommStatsContext.comm_doc`) merges the
    ``repro_comm_*`` traffic-matrix families.  Lines are sorted within
    each family; output is deterministic.

    Counter families are *registered*: they are emitted with an
    explicit 0-valued sample even when a run produced no data for them
    (a zero-message run must not silently drop a family a dashboard
    alerts on); only the gauge families stay data-gated.
    """
    timelines = build_timelines(timeline)
    lines: List[str] = []

    def counter_family(name: str, help_text: str,
                       samples: List[str]) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} counter")
        if samples:
            lines.extend(samples)
        else:
            lines.append(f"{name} 0")

    att = stage_attribution(timelines)
    counter_family(
        "repro_obs_stage_seconds_total",
        "Simulated seconds attributed to each message-lifecycle stage.",
        [
            "repro_obs_stage_seconds_total"
            f"{_labels([('layer', layer), ('stage', stage)])} "
            f"{att[layer][stage]:.12g}"
            for layer in sorted(att) for stage in sorted(att[layer])
        ],
    )

    counts: Dict[str, int] = {}
    for tl in timelines:
        counts[tl.layer] = counts.get(tl.layer, 0) + 1
    counter_family(
        "repro_obs_messages_total",
        "Traced messages per comm layer.",
        [
            f"repro_obs_messages_total{_labels([('layer', layer)])} "
            f"{counts[layer]}"
            for layer in sorted(counts)
        ],
    )

    samples = sorted(
        (s for s in timeline.get("samples", ()) if s.get("values")),
        key=lambda s: (s["probe"], s["host"]),
    )
    if samples:
        lines.append(
            "# HELP repro_obs_probe_peak Maximum sampled value of each "
            "queue/occupancy probe."
        )
        lines.append("# TYPE repro_obs_probe_peak gauge")
        for s in samples:
            labels = _labels([("probe", s["probe"]), ("host", s["host"])])
            lines.append(
                f"repro_obs_probe_peak{labels} {max(s['values']):.12g}"
            )

    stalls: Dict[Tuple[str, int], float] = {}
    for host, kind, start, end in timeline.get("stalls", ()):
        key = (kind, host)
        stalls[key] = stalls.get(key, 0.0) + (end - start)
    counter_family(
        "repro_obs_stall_seconds_total",
        "Simulated seconds hosts spent blocked on protocol resources.",
        [
            "repro_obs_stall_seconds_total"
            f"{_labels([('kind', kind), ('host', host)])} "
            f"{stalls[(kind, host)]:.12g}"
            for kind, host in sorted(stalls)
        ],
    )

    if counters is not None:
        counter_family(
            "repro_work_counter_total",
            "Deterministic host-side work counters (events, packets, "
            "matching probes, pool traffic).",
            [
                f"repro_work_counter_total{_labels([('counter', name)])} "
                f"{int(counters[name])}"
                for name in sorted(counters)
            ],
        )

    if comm is not None:
        from repro.obs.commstats import comm_prometheus_lines

        lines.extend(comm_prometheus_lines(comm))

    meta = timeline.get("meta", {})
    metric_meta = [
        ("total_seconds", "repro_run_total_seconds"),
        ("compute_seconds", "repro_run_compute_seconds"),
        ("comm_seconds", "repro_run_comm_seconds"),
        ("setup_seconds", "repro_run_setup_seconds"),
        ("rounds", "repro_run_rounds"),
        ("blobs_sent", "repro_run_blobs_sent"),
        ("updates_shipped", "repro_run_updates_shipped"),
    ]
    for key, metric in metric_meta:
        if key in meta:
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {float(meta[key]):.12g}")
    return "\n".join(lines) + "\n"


def save_prometheus(path: str, timeline: dict,
                    counters: Dict[str, int] = None,
                    comm: dict = None) -> str:
    """Atomic text write of the Prometheus dump."""
    return atomic_write_text(path, to_prometheus(timeline, counters, comm))
