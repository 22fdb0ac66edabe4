"""Observability: message-lifecycle tracing, queue probes, critical path.

The package the reproduction uses to *explain* its numbers: every
payload gets a deterministic trace id at the comm-layer API, stage
events flow from the NIC, the MPI matching engine, the LCI server, and
the comm layers, a sampler records queue-depth time series, and the
critical-path analyzer attributes end-to-end latency to protocol
stages (``repro run --obs`` / ``repro explain``).  Host-side
*wall-clock* profiling — nestable regions over the simulator's hot
paths plus deterministic work counters — lives in
:mod:`repro.obs.profile` (``repro profile`` / ``repro bench-core``);
the communication-pattern observatory — per-(src, dst, kind/phase)
traffic matrices, size histograms, skew analytics, and the comm
fingerprints ``BENCH_core.json`` gates — lives in
:mod:`repro.obs.commstats` (``repro commstats`` / ``repro run
--comm``).  Committed and exported JSON documents are encoded by
:func:`repro.obs.atomic.canonical_json`.  See docs/OBSERVABILITY.md.
"""

from repro.obs.commstats import (
    CommStatsContext,
    analyze_comm,
    comm_doc_to_csv,
    comm_fingerprint,
    comm_prometheus_lines,
    format_comm_report,
    render_heatmap,
    save_comm_doc,
)
from repro.obs.context import (
    STAGES,
    TERMINAL_STAGES,
    MsgEvent,
    ObsContext,
    Stall,
)
from repro.obs.critical_path import (
    MessageTimeline,
    build_timelines,
    explain_report,
    format_stage_table,
    round_attribution,
    slowest,
    stage_attribution,
    stall_attribution,
)
from repro.obs.export import (
    load_timeline,
    save_chrome_trace,
    save_prometheus,
    save_timeline,
    to_chrome_trace,
    to_prometheus,
)
from repro.obs.latency import LatencySummary, percentile_nearest_rank
from repro.obs.profile import (
    ProfileContext,
    RegionProfiler,
    wall_now,
)
from repro.obs.validate import (
    validate_chrome_trace,
    validate_collapsed,
    validate_comm_doc,
    validate_profile_doc,
    validate_prometheus,
    validate_timeline,
)

__all__ = [
    "STAGES",
    "TERMINAL_STAGES",
    "MsgEvent",
    "Stall",
    "ObsContext",
    "MessageTimeline",
    "build_timelines",
    "stage_attribution",
    "round_attribution",
    "stall_attribution",
    "slowest",
    "explain_report",
    "format_stage_table",
    "save_timeline",
    "load_timeline",
    "to_chrome_trace",
    "save_chrome_trace",
    "to_prometheus",
    "save_prometheus",
    "validate_timeline",
    "validate_chrome_trace",
    "validate_prometheus",
    "validate_collapsed",
    "validate_profile_doc",
    "validate_comm_doc",
    "CommStatsContext",
    "analyze_comm",
    "comm_fingerprint",
    "comm_doc_to_csv",
    "save_comm_doc",
    "render_heatmap",
    "comm_prometheus_lines",
    "format_comm_report",
    "LatencySummary",
    "percentile_nearest_rank",
    "ProfileContext",
    "RegionProfiler",
    "wall_now",
]
