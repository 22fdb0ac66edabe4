"""Communication-pattern observatory (``repro.obs.commstats``).

Answers the question the lifecycle trace and the profiler don't: *who
sent how much to whom, when, and how unevenly*.  A
:class:`CommStatsContext` is discovered via the fabric exactly like
faults/obs/profile — off by default, and attaching one never
perturbs the run (RunMetrics stay bit-identical): the hooks never
advance simulated time, never touch a component's counts, and never
change any iteration order.

Two levels of accounting are collected:

* **wire level** — per packet kind (EGR/RTS/RTR/RDMA/ACK), a
  ``(src, dst) -> [msgs, bytes]`` matrix plus a log2 size histogram,
  recorded at NIC injection (so dropped packets are counted, matching
  the always-on ``pkts_sent``/``bytes_sent`` NIC counters exactly);
  packets later dropped in transit are additionally recorded in a
  separate ``dropped`` matrix for fault attribution.
* **blob level** — per engine phase (``r<round>:<pattern>``), a
  ``(src, dst) -> [blobs, bytes]`` matrix recorded at the comm-layer
  API boundary (:meth:`CommLayer.trace_send`), so blob counts/bytes
  telescope exactly to ``RunMetrics.blobs_sent`` and
  ``RunMetrics.payload_bytes_sent``.  Blob matrices are recorded here
  and nowhere else.

The traffic gate is ``repro bench-core``: each canonical scenario's
``sim.comm`` block in ``BENCH_core.json`` carries its wire / blob
totals and :func:`comm_fingerprint`.

The hot path touches only plain dict/list cells — no per-packet object
allocation, no formatting; everything presentation-shaped (the
canonical JSON *comm-doc*, skew analytics, heatmaps, CSV, Prometheus
lines, fingerprints) is folded out of those cells after the run.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.atomic import atomic_write_text, canonical_json

__all__ = [
    "COMM_DOC_KIND",
    "COMM_DOC_VERSION",
    "EAGER_KINDS",
    "RENDEZVOUS_KINDS",
    "ACK_KINDS",
    "CommStatsContext",
    "analyze_comm",
    "gini",
    "comm_fingerprint",
    "save_comm_doc",
    "comm_doc_to_csv",
    "render_heatmap",
    "comm_prometheus_lines",
    "format_comm_report",
]

COMM_DOC_KIND = "repro-comm-doc"
COMM_DOC_VERSION = 1

#: Wire-kind segmentation (Section III: eager copies vs the
#: RTS->RTR->RDMA rendezvous path vs pure acknowledgements).
EAGER_KINDS = ("EGR",)
RENDEZVOUS_KINDS = ("RTS", "RTR", "RDMA")
ACK_KINDS = ("ACK",)
_SEGMENT = {kind: seg for seg, kinds in (("eager", EAGER_KINDS),
                                          ("rendezvous", RENDEZVOUS_KINDS),
                                          ("ack", ACK_KINDS))
            for kind in kinds}

_HEAT_CHARS = " .:-=+*#%@"
_HEAT_MAX_CELLS = 40


def _phase_key(phase) -> str:
    """Canonical string key for a blob phase.

    Engine sync phases are ``(round, pattern)`` tuples; anything else
    (setup traffic, apps with custom phases) lands under its repr.
    """
    if isinstance(phase, tuple) and len(phase) >= 2:
        return f"r{phase[0]}:{phase[1]}"
    if phase is None:
        return "-"
    return str(phase)


class CommStatsContext:
    """Deterministic traffic-matrix collector, fabric-discovered.

    Usage mirrors :class:`repro.obs.ObsContext`::

        cs = CommStatsContext()
        engine = build_engine(sc, commstats=cs)
        metrics = engine.run()          # bit-identical to a plain run
        doc = cs.comm_doc(meta={"scenario": sc.label()})
    """

    def __init__(self, hotspots: int = 8):
        self.env = None
        self.fabric = None
        self.layer: Optional[str] = None
        self.num_hosts = 0
        self.hotspots = hotspots
        #: kind -> {(src, dst): [msgs, bytes]} — filled at injection.
        self._wire: Dict[str, Dict[Tuple[int, int], List[int]]] = {}
        #: kind -> {(src, dst): [msgs, bytes]} — packets lost in transit.
        self._dropped: Dict[str, Dict[Tuple[int, int], List[int]]] = {}
        #: kind -> {bit_length(wire_bytes): count}.
        self._hist: Dict[str, Dict[int, int]] = {}
        #: phase key -> {(src, dst): [blobs, bytes]} — API-level sends.
        self._blob: Dict[str, Dict[Tuple[int, int], List[int]]] = {}

    # ------------------------------------------------------------------
    # Installation (fabric discovery)
    # ------------------------------------------------------------------
    def install(self, env, fabric, layer: Optional[str] = None
                ) -> "CommStatsContext":
        """Attach to ``fabric``; components discover us from there."""
        self.env = env
        self.fabric = fabric
        self.num_hosts = fabric.num_hosts
        if layer is not None:
            self.layer = layer
        fabric.commstats = self
        return self

    # ------------------------------------------------------------------
    # Hot-path hooks — plain dict/list cells only; no simulated time,
    # no component counts touched, no ordering influence.
    # ------------------------------------------------------------------
    def on_inject(self, pkt) -> None:
        """Called by :meth:`Nic._inject` after the NIC counters tick."""
        kind = pkt.ptype.name
        nbytes = pkt.wire_bytes
        key = (pkt.src, pkt.dst)
        cells = self._wire.get(kind)
        if cells is None:
            cells = self._wire[kind] = {}
        cell = cells.get(key)
        if cell is None:
            cells[key] = [1, nbytes]
        else:
            cell[0] += 1
            cell[1] += nbytes
        hist = self._hist.get(kind)
        if hist is None:
            hist = self._hist[kind] = {}
        bucket = nbytes.bit_length()
        hist[bucket] = hist.get(bucket, 0) + 1

    def on_drop(self, pkt) -> None:
        """Called when a fault injector vanishes ``pkt`` in transit."""
        kind = pkt.ptype.name
        key = (pkt.src, pkt.dst)
        cells = self._dropped.get(kind)
        if cells is None:
            cells = self._dropped[kind] = {}
        cell = cells.get(key)
        if cell is None:
            cells[key] = [1, pkt.wire_bytes]
        else:
            cell[0] += 1
            cell[1] += pkt.wire_bytes

    def on_blob(self, src: int, dst: int, blob) -> None:
        """Called by :meth:`CommLayer.trace_send` for every API send."""
        key = (src, dst)
        cells = self._blob.get(_phase_key(blob.phase))
        if cells is None:
            cells = self._blob[_phase_key(blob.phase)] = {}
        cell = cells.get(key)
        if cell is None:
            cells[key] = [1, blob.nbytes]
        else:
            cell[0] += 1
            cell[1] += blob.nbytes

    # ------------------------------------------------------------------
    # Snapshot folding
    # ------------------------------------------------------------------
    def comm_doc(self, meta: Optional[dict] = None) -> dict:
        """Fold the cells into the fingerprinted, analyzed comm-doc."""
        doc_meta = {"layer": self.layer, "hosts": self.num_hosts}
        if meta:
            doc_meta.update(meta)
        hist = self._hist
        doc = {
            "kind": COMM_DOC_KIND,
            "version": COMM_DOC_VERSION,
            "meta": doc_meta,
            "wire": _section(self._wire),
            "dropped": _section(self._dropped),
            "hist": {
                kind: {str(b): hist[kind][b] for b in sorted(hist[kind])}
                for kind in sorted(hist)
            },
            "blobs": _section(self._blob),
        }
        totals = {
            "wire_msgs": 0, "wire_bytes": 0,
            "dropped_msgs": 0, "dropped_bytes": 0,
            "blob_msgs": 0, "blob_bytes": 0,
            "eager_msgs": 0, "eager_bytes": 0,
            "rendezvous_msgs": 0, "rendezvous_bytes": 0,
            "ack_msgs": 0, "ack_bytes": 0,
        }

        def add(seg: str, block: dict) -> None:
            totals[f"{seg}_msgs"] += block["msgs"]
            totals[f"{seg}_bytes"] += block["bytes"]

        for kind in sorted(doc["wire"]):
            add("wire", doc["wire"][kind])
            if kind in _SEGMENT:
                add(_SEGMENT[kind], doc["wire"][kind])
        for kind in sorted(doc["dropped"]):
            add("dropped", doc["dropped"][kind])
        for phase in sorted(doc["blobs"]):
            add("blob", doc["blobs"][phase])
        doc["totals"] = totals
        doc["fingerprint"] = comm_fingerprint(doc)
        doc["analysis"] = analyze_comm(doc, hotspots=self.hotspots)
        return doc


# ----------------------------------------------------------------------
# Comm-doc construction
# ----------------------------------------------------------------------
def _matrix_block(cells: Dict[Tuple[int, int], List[int]]) -> dict:
    """One section entry: JSON-safe matrix + telescoping totals."""
    matrix = {}
    msgs = 0
    nbytes = 0
    for key in sorted(cells):
        cell = cells[key]
        matrix[f"{key[0]}>{key[1]}"] = [cell[0], cell[1]]
        msgs += cell[0]
        nbytes += cell[1]
    return {"matrix": matrix, "msgs": msgs, "bytes": nbytes}


def _section(raw: Dict[str, Dict[Tuple[int, int], List[int]]]) -> dict:
    return {name: _matrix_block(raw[name]) for name in sorted(raw)}


def comm_fingerprint(doc: dict) -> str:
    """16-hex matrix hash over the deterministic sections.

    Covers ``wire``/``dropped``/``hist``/``blobs`` (canonical JSON) —
    *not* ``meta`` (carries labels) or ``analysis`` (derived floats).
    """
    body = {
        "wire": doc.get("wire", {}),
        "dropped": doc.get("dropped", {}),
        "hist": doc.get("hist", {}),
        "blobs": doc.get("blobs", {}),
    }
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Skew analytics
# ----------------------------------------------------------------------
def gini(values: Iterable[float]) -> float:
    """Gini coefficient of a load distribution (0 = even, →1 = skewed).

    Computed over the sorted values, so the reduction order — and hence
    the bits of the result — is deterministic.
    """
    vals = sorted(float(v) for v in values)
    n = len(vals)
    if n == 0:
        return 0.0
    total = math.fsum(vals)
    if total == 0.0:
        return 0.0
    weighted = math.fsum(i * v for i, v in enumerate(vals, start=1))
    return (2.0 * weighted / (n * total)) - (n + 1.0) / n


def _aggregate_links(section: dict) -> Dict[str, List[int]]:
    """Sum a doc section's matrices across kinds: link -> [msgs, bytes]."""
    links: Dict[str, List[int]] = {}
    for kind in sorted(section):
        matrix = section[kind]["matrix"]
        for link in sorted(matrix):
            cell = matrix[link]
            agg = links.get(link)
            if agg is None:
                links[link] = [cell[0], cell[1]]
            else:
                agg[0] += cell[0]
                agg[1] += cell[1]
    return links


def analyze_comm(doc: dict, hotspots: int = 8) -> dict:
    """Load-imbalance and skew analytics over a comm-doc.

    Wire matrices drive the spatial metrics when present; a doc with
    no wire traffic (a single-host or empty run) falls back to the
    blob matrices.  The per-round timeline always comes from blobs —
    the wire level has no round attribution.
    """
    section = doc.get("wire") or {}
    source = "wire"
    if not section:
        section = doc.get("blobs") or {}
        source = "blobs"
    links = _aggregate_links(section)
    hosts = int(doc.get("meta", {}).get("hosts") or 0)
    if hosts <= 0:
        top = 0
        for link in sorted(links):
            s, d = link.split(">")
            top = max(top, int(s) + 1, int(d) + 1)
        hosts = top
    out_bytes = [0] * hosts
    in_bytes = [0] * hosts
    total_bytes = 0
    for link in sorted(links):
        s, d = link.split(">")
        nbytes = links[link][1]
        out_bytes[int(s)] += nbytes
        in_bytes[int(d)] += nbytes
        total_bytes += nbytes

    def _imbalance(loads: List[int]) -> Tuple[float, float]:
        if not loads:
            return 0.0, 0.0
        mean = math.fsum(float(v) for v in loads) / len(loads)
        if mean == 0.0:
            return 0.0, 0.0
        return max(loads) / mean, gini(loads)

    out_ratio, out_gini = _imbalance(out_bytes)
    in_ratio, in_gini = _imbalance(in_bytes)

    # Hotspot links: by bytes desc, then link name for determinism.
    ranked = sorted(
        sorted(links), key=lambda lk: (-links[lk][1], lk)
    )[:hotspots]
    hot = [
        {
            "link": lk,
            "msgs": links[lk][0],
            "bytes": links[lk][1],
            "share": (links[lk][1] / total_bytes) if total_bytes else 0.0,
        }
        for lk in ranked
    ]

    # Per-round comm-volume timeline from the blob phases.
    rounds = []
    blobs = doc.get("blobs") or {}
    for phase in sorted(blobs):
        block = blobs[phase]
        row = {"phase": phase, "msgs": block["msgs"],
               "bytes": block["bytes"]}
        if phase.startswith("r") and ":" in phase:
            head, pattern = phase.split(":", 1)
            try:
                row["round"] = int(head[1:])
                row["pattern"] = pattern
            except ValueError:
                pass
        rounds.append(row)
    rounds.sort(key=lambda r: (r.get("round", -1), r["phase"]))

    totals = doc.get("totals", {})
    phases = {
        "eager": {"msgs": totals.get("eager_msgs", 0),
                  "bytes": totals.get("eager_bytes", 0)},
        "rendezvous": {"msgs": totals.get("rendezvous_msgs", 0),
                       "bytes": totals.get("rendezvous_bytes", 0)},
        "ack": {"msgs": totals.get("ack_msgs", 0),
                "bytes": totals.get("ack_bytes", 0)},
    }
    return {
        "source": source,
        "per_host": {"out_bytes": out_bytes, "in_bytes": in_bytes},
        "imbalance": {
            "out_max_over_mean": out_ratio,
            "out_gini": out_gini,
            "in_max_over_mean": in_ratio,
            "in_gini": in_gini,
        },
        "hotspots": hot,
        "rounds": rounds,
        "phases": phases,
    }


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def save_comm_doc(path: str, doc: dict) -> str:
    """Write the comm-doc atomically (temp file + ``os.replace``)."""
    return atomic_write_text(path, canonical_json(doc))


def comm_doc_to_csv(doc: dict) -> str:
    """Flat CSV: one row per (section, kind-or-phase, src, dst) cell."""
    lines = ["section,kind,src,dst,msgs,bytes"]
    for section in ("wire", "dropped", "blobs"):
        data = doc.get(section) or {}
        for kind in sorted(data):
            matrix = data[kind]["matrix"]
            for link in sorted(matrix):
                s, d = link.split(">")
                cell = matrix[link]
                lines.append(
                    f"{section},{kind},{s},{d},{cell[0]},{cell[1]}"
                )
    return "\n".join(lines) + "\n"


def render_heatmap(doc: dict) -> str:
    """ASCII src×dst byte heatmap (log-shaded, terminal-sized).

    Shades the wire matrices, or the blob matrices when nothing crossed
    the wire.  Hosts collapse into at most 40 buckets so a 128-host
    matrix still fits on a screen.
    """
    links = _aggregate_links(doc.get("wire") or doc.get("blobs") or {})
    hosts = int(doc.get("meta", {}).get("hosts") or 0)
    if hosts <= 0:
        for link in sorted(links):
            s, d = link.split(">")
            hosts = max(hosts, int(s) + 1, int(d) + 1)
    if hosts <= 0:
        return "(no traffic)"
    group = max(1, -(-hosts // _HEAT_MAX_CELLS))  # ceil division
    cells = -(-hosts // group)
    grid = [[0] * cells for _ in range(cells)]
    for link in sorted(links):
        s, d = link.split(">")
        grid[int(s) // group][int(d) // group] += links[link][1]
    peak = max(max(row) for row in grid)
    lines = []
    unit = f"{group} host" + ("s" if group > 1 else "")
    lines.append(
        f"src\\dst heatmap — bytes per cell ({unit}/cell, "
        f"log shade '{_HEAT_CHARS}', peak {peak})"
    )
    header = "     " + "".join(f"{c % 10}" for c in range(cells))
    lines.append(header)
    denom = math.log(peak + 1.0) if peak > 0 else 1.0
    top = len(_HEAT_CHARS) - 1
    for r in range(cells):
        row = []
        for c in range(cells):
            v = grid[r][c]
            if v <= 0:
                row.append(_HEAT_CHARS[0])
            else:
                level = 1 + int((top - 1) * math.log(v + 1.0) / denom)
                row.append(_HEAT_CHARS[min(level, top)])
        lines.append(f"{r * group:4d} " + "".join(row))
    return "\n".join(lines)


def comm_prometheus_lines(doc: dict) -> List[str]:
    """Prometheus text-format lines for a comm-doc.

    Families are always emitted (HELP/TYPE) with an explicit 0-valued
    unlabeled sample when a family has no series, so scrapers see
    registered counters even for zero-message runs.
    """
    lines: List[str] = []

    def family(name: str, help_text: str, samples: List[str]) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} counter")
        if samples:
            lines.extend(samples)
        else:
            lines.append(f"{name} 0")

    def section_samples(section: dict, name: str, col: int) -> List[str]:
        out = []
        for kind in sorted(section):
            matrix = section[kind]["matrix"]
            for link in sorted(matrix):
                s, d = link.split(">")
                out.append(
                    f'{name}{{kind="{kind}",src="{s}",dst="{d}"}} '
                    f"{matrix[link][col]}"
                )
        return out

    wire = doc.get("wire") or {}
    dropped = doc.get("dropped") or {}
    blobs = doc.get("blobs") or {}
    family("repro_comm_messages_total",
           "Wire packets injected per (kind, src, dst).",
           section_samples(wire, "repro_comm_messages_total", 0))
    family("repro_comm_bytes_total",
           "Wire bytes injected per (kind, src, dst).",
           section_samples(wire, "repro_comm_bytes_total", 1))
    family("repro_comm_dropped_bytes_total",
           "Wire bytes lost in transit per (kind, src, dst).",
           section_samples(dropped, "repro_comm_dropped_bytes_total", 1))
    family("repro_comm_blob_bytes_total",
           "API-level payload bytes per (phase, src, dst).",
           [
               line for phase in sorted(blobs)
               for line in (
                   f'repro_comm_blob_bytes_total{{phase="{phase}",'
                   f'src="{link.split(">")[0]}",'
                   f'dst="{link.split(">")[1]}"}} '
                   f'{blobs[phase]["matrix"][link][1]}'
                   for link in sorted(blobs[phase]["matrix"])
               )
           ])
    return lines


def _fmt_bytes(n: int) -> str:
    v = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if v < 1024.0 or unit == "GiB":
            if unit == "B":
                return f"{int(v)} B"
            return f"{v:.1f} {unit}"
        v /= 1024.0
    return f"{int(n)} B"


def format_comm_report(doc: dict) -> str:
    """Human-readable comm report (CLI ``repro commstats``)."""
    meta = doc.get("meta", {})
    totals = doc.get("totals", {})
    analysis = doc.get("analysis") or analyze_comm(doc)
    lines = []
    label = meta.get("scenario") or ""
    head = (f"communication patterns — layer {meta.get('layer')}, "
            f"{meta.get('hosts')} hosts")
    if label:
        head += f" ({label})"
    lines.append(head)
    if totals.get("wire_msgs"):
        lines.append(
            f"wire    : {totals['wire_msgs']} pkts, "
            f"{_fmt_bytes(totals['wire_bytes'])}  "
            f"[eager {_fmt_bytes(totals['eager_bytes'])} | "
            f"rendezvous {_fmt_bytes(totals['rendezvous_bytes'])} | "
            f"ack {_fmt_bytes(totals['ack_bytes'])}]"
        )
    lines.append(
        f"blobs   : {totals.get('blob_msgs', 0)} sends, "
        f"{_fmt_bytes(totals.get('blob_bytes', 0))} across "
        f"{len(doc.get('blobs') or {})} phases"
    )
    if totals.get("dropped_msgs"):
        lines.append(
            f"dropped : {totals['dropped_msgs']} pkts, "
            f"{_fmt_bytes(totals['dropped_bytes'])}"
        )
    imb = analysis["imbalance"]
    lines.append(
        f"skew    : out max/mean {imb['out_max_over_mean']:.3f} "
        f"(gini {imb['out_gini']:.3f}), "
        f"in max/mean {imb['in_max_over_mean']:.3f} "
        f"(gini {imb['in_gini']:.3f})  [{analysis['source']} bytes]"
    )
    if analysis["hotspots"]:
        lines.append("hotspot links (by bytes):")
        for h in analysis["hotspots"]:
            lines.append(
                f"  {h['link']:>9}  {h['msgs']:8d} msgs  "
                f"{_fmt_bytes(h['bytes']):>10}  ({h['share'] * 100:.1f}%)"
            )
    if analysis["rounds"]:
        lines.append("per-round volume:")
        lines.append(f"  {'phase':>12} {'msgs':>8} {'bytes':>12}")
        for r in analysis["rounds"]:
            lines.append(
                f"  {r['phase']:>12} {r['msgs']:8d} {r['bytes']:12d}"
            )
    hist = doc.get("hist") or {}
    for kind in sorted(hist):
        buckets = hist[kind]
        parts = [
            f"2^{int(b) - 1}..2^{b}:{buckets[b]}"
            for b in sorted(buckets, key=int)
        ]
        lines.append(f"size hist [{kind}]: " + "  ".join(parts))
    lines.append(render_heatmap(doc))
    lines.append(f"fingerprint: {doc.get('fingerprint')}")
    return "\n".join(lines)
