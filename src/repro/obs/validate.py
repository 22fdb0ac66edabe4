"""Format validators for the observability exports (stdlib only).

Used by the CI observability leg and ``repro explain --check``:
each validator returns a list of human-readable problems (empty list
means the document is well-formed).  These are schema/format checks,
not semantic ones — the semantic invariants (stage sums telescoping to
latency, bit-identical metrics) live in the test suite.
"""

from __future__ import annotations

import re
from typing import List

from repro.obs.context import STAGES

__all__ = [
    "validate_timeline",
    "validate_chrome_trace",
    "validate_prometheus",
    "validate_collapsed",
    "validate_profile_doc",
    "validate_comm_doc",
]

_KNOWN_STAGES = frozenset(STAGES)
_CHROME_PHASES = frozenset("XisfCMbEnB")
_PROM_METRIC = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_PROM_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?\s+"
    r"(?P<value>[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|\d*\.\d+(?:[eE][-+]?\d+)?|NaN|Inf|-Inf))$"
)
_PROM_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def validate_timeline(doc) -> List[str]:
    """Check a JSON timeline document (`ObsContext.as_timeline` shape)."""
    errs: List[str] = []
    if not isinstance(doc, dict):
        return ["timeline is not a JSON object"]
    if doc.get("kind") != "repro-obs-timeline":
        errs.append(f"kind is {doc.get('kind')!r}, expected 'repro-obs-timeline'")
    if doc.get("version") != 1:
        errs.append(f"unsupported version {doc.get('version')!r}")
    if doc.get("columns") != ["trace", "stage", "host", "t", "args"]:
        errs.append("columns do not match the v1 event row layout")
    events = doc.get("events")
    if not isinstance(events, list):
        errs.append("events is not a list")
        events = []
    last_t = None
    for i, row in enumerate(events):
        if not (isinstance(row, list) and len(row) == 5):
            errs.append(f"event {i}: not a 5-column row")
            continue
        trace, stage, host, t, args = row
        if not (isinstance(trace, str) and trace):
            errs.append(f"event {i}: bad trace id {trace!r}")
        if stage not in _KNOWN_STAGES:
            errs.append(f"event {i}: unknown stage {stage!r}")
        if not isinstance(host, int):
            errs.append(f"event {i}: host is not an int")
        if not isinstance(t, (int, float)):
            errs.append(f"event {i}: timestamp is not a number")
        elif last_t is not None and t < last_t:
            errs.append(f"event {i}: timestamps go backwards ({t} < {last_t})")
        else:
            last_t = t
        if not isinstance(args, dict):
            errs.append(f"event {i}: args is not an object")
    for j, s in enumerate(doc.get("samples", []) or []):
        if not isinstance(s, dict):
            errs.append(f"sample {j}: not an object")
            continue
        for key in ("probe", "host", "times", "values"):
            if key not in s:
                errs.append(f"sample {j}: missing {key!r}")
        if len(s.get("times", [])) != len(s.get("values", [])):
            errs.append(f"sample {j}: times/values length mismatch")
    for k, row in enumerate(doc.get("stalls", []) or []):
        if not (isinstance(row, list) and len(row) == 4):
            errs.append(f"stall {k}: not a 4-column row")
            continue
        _host, _kind, start, end = row
        if not (isinstance(start, (int, float)) and isinstance(end, (int, float))):
            errs.append(f"stall {k}: non-numeric interval")
        elif end <= start:
            errs.append(f"stall {k}: empty or negative interval")
    # Optional sections: rows of [host, category, name, <times>, args].
    for section, times in (("spans", 2), ("instants", 1)):
        for k, row in enumerate(doc.get(section, []) or []):
            what = f"{section[:-1]} {k}"
            if not (isinstance(row, list) and len(row) == 4 + times):
                errs.append(f"{what}: not a {4 + times}-column row")
                continue
            host, category, name = row[:3]
            if not isinstance(host, int):
                errs.append(f"{what}: host is not an int")
            if not (isinstance(category, str) and category
                    and isinstance(name, str) and name):
                errs.append(f"{what}: category and name must be "
                            "non-empty strings")
            stamps = row[3:-1]
            if not all(isinstance(t, (int, float)) for t in stamps):
                errs.append(f"{what}: non-numeric time")
            elif stamps[-1] < stamps[0]:
                errs.append(f"{what}: ends before it starts")
            if not isinstance(row[-1], dict):
                errs.append(f"{what}: args is not an object")
    return errs


def validate_chrome_trace(doc) -> List[str]:
    """Check Chrome trace-event JSON, including flow-event pairing."""
    errs: List[str] = []
    if not isinstance(doc, dict):
        return ["trace is not a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    flow_starts = {}
    flow_ends = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            errs.append(f"event {i}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in _CHROME_PHASES:
            errs.append(f"event {i}: unknown phase {ph!r}")
            continue
        if ph != "M" and not isinstance(ev.get("ts"), (int, float)):
            errs.append(f"event {i}: ph={ph} missing numeric ts")
        if ph == "X" and not isinstance(ev.get("dur"), (int, float)):
            errs.append(f"event {i}: X span missing numeric dur")
        if ph in ("s", "f"):
            if "id" not in ev:
                errs.append(f"event {i}: flow event missing id")
                continue
            bucket = flow_starts if ph == "s" else flow_ends
            if ev["id"] in bucket:
                errs.append(f"event {i}: duplicate flow {ph!r} id {ev['id']}")
            bucket[ev["id"]] = ev
        if ph == "M" and ev.get("name") not in (
            "process_name", "process_sort_index", "thread_name",
            "thread_sort_index",
        ):
            errs.append(f"event {i}: unknown metadata row {ev.get('name')!r}")
    for fid in flow_starts:
        if fid not in flow_ends:
            errs.append(f"flow id {fid}: 's' without matching 'f'")
    for fid in flow_ends:
        if fid not in flow_starts:
            errs.append(f"flow id {fid}: 'f' without matching 's'")
        elif flow_ends[fid].get("bp") != "e":
            errs.append(f"flow id {fid}: 'f' missing bp='e' binding point")
        elif flow_ends[fid]["ts"] < flow_starts[fid]["ts"]:
            errs.append(f"flow id {fid}: arrives before it departs")
    return errs


def validate_prometheus(text: str) -> List[str]:
    """Check Prometheus exposition text (line grammar + TYPE coverage)."""
    errs: List[str] = []
    typed = set()
    seen_lines = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] in ("TYPE", "HELP"):
                if not _PROM_METRIC.match(parts[2]):
                    errs.append(f"line {lineno}: bad metric name {parts[2]!r}")
                if parts[1] == "TYPE":
                    if parts[2] in typed:
                        errs.append(
                            f"line {lineno}: duplicate TYPE for {parts[2]!r}"
                        )
                    typed.add(parts[2])
            else:
                errs.append(f"line {lineno}: malformed comment {line!r}")
            continue
        m = _PROM_LINE.match(line)
        if m is None:
            errs.append(f"line {lineno}: not a valid sample line: {line!r}")
            continue
        name = m.group("name")
        if name not in typed:
            errs.append(f"line {lineno}: sample {name!r} precedes its TYPE")
        labels = m.group("labels")
        if labels is not None:
            body = labels[1:-1]
            consumed = ",".join(
                f'{k}="{v}"' for k, v in _PROM_LABEL.findall(labels)
            )
            if body and consumed != body:
                errs.append(f"line {lineno}: malformed labels {labels!r}")
        key = (name, labels or "")
        if key in seen_lines:
            errs.append(f"line {lineno}: duplicate series {name}{labels or ''}")
        seen_lines.add(key)
    if not text.endswith("\n"):
        errs.append("exposition must end with a newline")
    return errs


_COLLAPSED_LINE = re.compile(
    r"^[^\s;]+(?:;[^\s;]+)* \d+$"
)


def validate_collapsed(text: str) -> List[str]:
    """Check collapsed-stack (flamegraph) text: ``a;b;c <count>`` lines.

    The grammar flamegraph.pl / speedscope / inferno all accept: one
    stack per line, frames joined by ``;`` (no spaces or empty frames),
    a single space, then a non-negative integer count.
    """
    errs: List[str] = []
    if not isinstance(text, str):
        return ["collapsed export is not text"]
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            errs.append(f"line {lineno}: empty line")
            continue
        if not _COLLAPSED_LINE.match(line):
            errs.append(f"line {lineno}: not 'frame(;frame)* count': {line!r}")
            continue
        stack = line.rsplit(" ", 1)[0]
        if stack in seen:
            errs.append(f"line {lineno}: duplicate stack {stack!r}")
        seen.add(stack)
    if text and not text.endswith("\n"):
        errs.append("collapsed export must end with a newline")
    return errs


def validate_profile_doc(doc) -> List[str]:
    """Check a profile JSON document (`ProfileContext.report_dict`)."""
    errs: List[str] = []
    if not isinstance(doc, dict):
        return ["profile is not a JSON object"]
    if doc.get("kind") != "repro-profile":
        errs.append(f"kind is {doc.get('kind')!r}, expected 'repro-profile'")
    if doc.get("version") != 1:
        errs.append(f"unsupported version {doc.get('version')!r}")
    regions = doc.get("regions")
    if not isinstance(regions, list):
        errs.append("regions is not a list")
        regions = []
    paths = set()
    for i, row in enumerate(regions):
        if not isinstance(row, dict):
            errs.append(f"region {i}: not an object")
            continue
        for key in ("path", "name", "depth", "calls", "cum_s", "self_s"):
            if key not in row:
                errs.append(f"region {i}: missing {key!r}")
        path = row.get("path")
        if not (isinstance(path, str) and path):
            errs.append(f"region {i}: bad path {path!r}")
        elif path in paths:
            errs.append(f"region {i}: duplicate path {path!r}")
        else:
            paths.add(path)
            if not path.endswith(str(row.get("name"))):
                errs.append(f"region {i}: path does not end with name")
        calls = row.get("calls")
        if not (isinstance(calls, int) and calls >= 0):
            errs.append(f"region {i}: bad call count {calls!r}")
        cum, self_s = row.get("cum_s"), row.get("self_s")
        for key, v in (("cum_s", cum), ("self_s", self_s)):
            if not (isinstance(v, (int, float)) and v >= 0):
                errs.append(f"region {i}: bad {key} {v!r}")
        if (
            isinstance(cum, (int, float)) and isinstance(self_s, (int, float))
            and self_s > cum + 1e-9
        ):
            errs.append(f"region {i}: self time exceeds cumulative")
    counters = doc.get("counters")
    if not isinstance(counters, dict):
        errs.append("counters is not an object")
        counters = {}
    for name, value in counters.items():
        if not (isinstance(value, int) and value >= 0):
            errs.append(f"counter {name!r}: not a non-negative int")
    fp = doc.get("fingerprint")
    if not (isinstance(fp, str) and re.fullmatch(r"[0-9a-f]{16}", fp or "")):
        errs.append(f"bad fingerprint {fp!r}")
    return errs


_COMM_LINK = re.compile(r"^\d+>\d+$")


def validate_comm_doc(doc) -> List[str]:
    """Check a comm-doc (`CommStatsContext.comm_doc` shape).

    Beyond the schema, this recomputes the telescoping sums (section
    ``msgs``/``bytes`` vs their matrix cells, doc ``totals`` vs the
    sections) and the matrix fingerprint, so a hand-edited or corrupted
    document cannot slip past the CI drift gate.
    """
    from repro.obs.commstats import comm_fingerprint

    errs: List[str] = []
    if not isinstance(doc, dict):
        return ["comm-doc is not a JSON object"]
    if doc.get("kind") != "repro-comm-doc":
        errs.append(f"kind is {doc.get('kind')!r}, expected 'repro-comm-doc'")
    if doc.get("version") != 1:
        errs.append(f"unsupported version {doc.get('version')!r}")
    meta = doc.get("meta")
    if not isinstance(meta, dict):
        errs.append("meta is not an object")
        meta = {}
    hosts = meta.get("hosts")
    if not (hosts is None or (isinstance(hosts, int) and hosts >= 0)):
        errs.append(f"meta.hosts is not a non-negative int: {hosts!r}")
        hosts = None

    section_sums = {}
    for section in ("wire", "dropped", "blobs"):
        data = doc.get(section)
        if not isinstance(data, dict):
            errs.append(f"{section} is not an object")
            section_sums[section] = (0, 0)
            continue
        msgs_sum = 0
        bytes_sum = 0
        for kind, block in data.items():
            where = f"{section}[{kind!r}]"
            if not isinstance(block, dict):
                errs.append(f"{where}: not an object")
                continue
            matrix = block.get("matrix")
            if not isinstance(matrix, dict):
                errs.append(f"{where}: matrix is not an object")
                matrix = {}
            cell_msgs = 0
            cell_bytes = 0
            for link, cell in matrix.items():
                if not _COMM_LINK.match(link):
                    errs.append(f"{where}: bad link key {link!r}")
                    continue
                if not (
                    isinstance(cell, list) and len(cell) == 2
                    and all(isinstance(v, int) and v >= 0 for v in cell)
                ):
                    errs.append(f"{where} {link}: bad cell {cell!r}")
                    continue
                if hosts:
                    src, dst = link.split(">")
                    if int(src) >= hosts or int(dst) >= hosts:
                        errs.append(
                            f"{where} {link}: host out of range (hosts={hosts})"
                        )
                cell_msgs += cell[0]
                cell_bytes += cell[1]
            for field, got, want in (
                ("msgs", block.get("msgs"), cell_msgs),
                ("bytes", block.get("bytes"), cell_bytes),
            ):
                if got != want:
                    errs.append(
                        f"{where}: {field} {got!r} != matrix sum {want}"
                    )
            msgs_sum += cell_msgs
            bytes_sum += cell_bytes
        section_sums[section] = (msgs_sum, bytes_sum)

    hist = doc.get("hist")
    if not isinstance(hist, dict):
        errs.append("hist is not an object")
        hist = {}
    for kind, buckets in hist.items():
        if not isinstance(buckets, dict):
            errs.append(f"hist[{kind!r}]: not an object")
            continue
        for bucket, count in buckets.items():
            if not (isinstance(bucket, str) and bucket.isdigit()):
                errs.append(f"hist[{kind!r}]: bad bucket key {bucket!r}")
            if not (isinstance(count, int) and count > 0):
                errs.append(f"hist[{kind!r}][{bucket}]: bad count {count!r}")

    totals = doc.get("totals")
    if not isinstance(totals, dict):
        errs.append("totals is not an object")
        totals = {}
    for prefix, section in (
        ("wire", "wire"), ("dropped", "dropped"), ("blob", "blobs"),
    ):
        msgs_sum, bytes_sum = section_sums.get(section, (0, 0))
        if totals.get(f"{prefix}_msgs") != msgs_sum:
            errs.append(
                f"totals.{prefix}_msgs {totals.get(f'{prefix}_msgs')!r} "
                f"!= {section} sum {msgs_sum}"
            )
        if totals.get(f"{prefix}_bytes") != bytes_sum:
            errs.append(
                f"totals.{prefix}_bytes {totals.get(f'{prefix}_bytes')!r} "
                f"!= {section} sum {bytes_sum}"
            )

    fp = doc.get("fingerprint")
    if not (isinstance(fp, str) and re.fullmatch(r"[0-9a-f]{16}", fp or "")):
        errs.append(f"bad fingerprint {fp!r}")
    elif not errs and fp != comm_fingerprint(doc):
        errs.append(
            f"fingerprint {fp} does not match the matrices "
            f"(recomputed {comm_fingerprint(doc)})"
        )
    return errs
