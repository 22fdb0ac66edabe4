"""Activity spans and instants: the engine's round spans, their Chrome
export, and the one atomic file writer underneath."""

import json
import os

import pytest

from repro.apps import Bfs
from repro.engine import BspEngine, EngineConfig
from repro.graph.generators import rmat
from repro.obs import (
    ObsContext,
    save_chrome_trace,
    save_timeline,
    to_chrome_trace,
    validate_chrome_trace,
    validate_timeline,
)
from repro.obs.atomic import atomic_write_text


def test_chrome_trace_export(tmp_path):
    timeline = {
        "spans": [[0, "compute", "r0", 0.0, 1e-6, {"edges": 10}]],
        "instants": [[1, "events", "barrier", 2e-6, {"round": 0}]],
    }
    path = save_chrome_trace(str(tmp_path / "trace.json"), timeline)
    with open(path) as f:
        data = json.load(f)
    assert validate_chrome_trace(data) == []
    events = data["traceEvents"]
    x = [e for e in events if e["ph"] == "X"]
    i = [e for e in events if e["ph"] == "i"]
    m = [e for e in events if e["ph"] == "M"]
    assert len(x) == 1 and x[0]["dur"] == pytest.approx(1.0)  # us
    assert x[0]["tid"] == "main" and x[0]["args"] == {"edges": 10}
    assert len(i) == 1 and i[0]["name"] == "barrier"
    # One thread row per instant category.
    assert i[0]["tid"] == i[0]["cat"] == "events"
    assert {e["pid"] for e in m} == {0, 1}


def test_metadata_rows_sorted_and_complete():
    timeline = {"spans": [
        [h, "compute", "r0", 0.0, 1e-6, {}] for h in (2, 0, 1)
    ]}
    m = [e for e in to_chrome_trace(timeline)["traceEvents"]
         if e["ph"] == "M"]
    # process_name + process_sort_index per host, in ascending host order.
    hosts = [e["pid"] for e in m if e["name"] == "process_name"]
    assert hosts == [0, 1, 2]
    sort_rows = [e for e in m if e["name"] == "process_sort_index"]
    assert [e["args"]["sort_index"] for e in sort_rows] == [0, 1, 2]


def test_save_is_atomic(tmp_path):
    """A save replaces the destination in one step: a crashed or raced
    writer can never leave a truncated JSON behind."""
    path = tmp_path / "trace.json"
    path.write_text("stale-but-parseable-must-survive-until-replace")
    save_chrome_trace(
        str(path), {"spans": [[0, "compute", "r0", 0.0, 1e-6, {}]]})
    with open(path) as f:
        json.load(f)  # fully written
    assert os.listdir(tmp_path) == ["trace.json"]  # no temp droppings


def test_atomic_write_json_cleans_up_on_failure(tmp_path):
    path = tmp_path / "out.json"
    with pytest.raises(TypeError):
        save_timeline(str(path), {"bad": object()})
    assert os.listdir(tmp_path) == []
    # A failure inside the write itself removes the temp file and
    # leaves what was there.
    path.write_text("old")
    with pytest.raises(TypeError):
        atomic_write_text(str(path), b"not text")
    assert os.listdir(tmp_path) == ["out.json"]
    assert path.read_text() == "old"


def test_engine_emits_spans():
    g = rmat(7, edge_factor=8, seed=3)
    obs = ObsContext()
    cfg = EngineConfig(num_hosts=4, layer="lci", obs=obs)
    eng = BspEngine(g, Bfs(source=0), cfg)
    metrics = eng.run()
    # One compute span per host per round, plus allreduce spans.
    comp = [s for s in obs.spans if s[1] == "compute"]
    assert len(comp) == 4 * metrics.rounds
    assert sorted(s[2] for s in comp if s[0] == 0) == sorted(
        f"round {r}" for r in range(metrics.rounds))
    assert len([s for s in obs.spans if s[1] == "allreduce"]) == len(comp)
    # Span totals agree with the metrics' compute accounting.
    for h in range(4):
        total = sum(end - start for host, _c, _n, start, end, _a in comp
                    if host == h)
        assert total == pytest.approx(sum(eng._compute_rounds[h]), rel=1e-9)
    # The timeline carries them and exports cleanly.
    timeline = obs.as_timeline()
    assert timeline["spans"] == obs.spans and timeline["instants"] == []
    assert validate_timeline(timeline) == []
    chrome = to_chrome_trace(timeline)
    assert validate_chrome_trace(chrome) == []
    assert len([e for e in chrome["traceEvents"]
                if e["ph"] == "X" and e["cat"] == "compute"]) == len(comp)


@pytest.mark.parametrize("section, row, problem", [
    ("spans", [0, "compute", "r0", 0.0, {}], "not a 6-column row"),
    ("spans", [0, "compute", "r0", 2.0, 1.0, {}], "ends before it starts"),
    ("spans", ["0", "compute", "r0", 0.0, 1.0, {}], "host is not an int"),
    ("spans", [0, "compute", "r0", 0.0, "1", {}], "non-numeric time"),
    ("instants", [0, "fault", "drop", 0.0], "not a 5-column row"),
    ("instants", [0, "", "drop", 0.0, {}], "non-empty strings"),
    ("instants", [0, "fault", "drop", None, {}], "non-numeric time"),
    ("instants", [0, "fault", "drop", 0.0, []], "args is not an object"),
])
def test_validate_timeline_rejects_malformed_span_and_instant_rows(
        section, row, problem):
    doc = ObsContext().as_timeline()
    assert validate_timeline(doc) == []
    doc[section] = [row]
    (err,) = validate_timeline(doc)
    assert err.startswith(f"{section[:-1]} 0: ") and problem in err


# ----------------------------------------------------------------------
# Committed documents go through the same writer
# ----------------------------------------------------------------------
def _failing_serializer(*_args, **_kwargs):
    raise RuntimeError("serializer failed")


def _write_bench(path, monkeypatch):
    import argparse

    import repro.obs.atomic as atomic
    from repro.cli import _bench_verb

    monkeypatch.setattr(atomic, "canonical_json", _failing_serializer)
    _bench_verb(argparse.Namespace(out=path, check=None), "bench-core",
                lambda: {"scenarios": []})


@pytest.mark.parametrize("write", [_write_bench], ids=["bench"])
def test_failed_serializer_leaves_committed_document_intact(
        tmp_path, monkeypatch, write):
    path = tmp_path / "COMMITTED.json"
    path.write_text("the committed bytes")
    with pytest.raises(RuntimeError):
        write(str(path), monkeypatch)
    assert os.listdir(tmp_path) == ["COMMITTED.json"]
    assert path.read_text() == "the committed bytes"
