"""Smoke test of the perf benchmark on ``--quick`` sizes (under a minute).

Run explicitly — it is not in the tier-1 ``testpaths``::

    python -m pytest benchmarks/perf/test_perf_smoke.py -q

Checks the harness, not the program's speed: names and units, span-tree
shape, share accounting, exactness of the simulated-clock metrics, and
that a wrong answer is caught.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import metrics as M  # noqa: E402
from spans import check_span_tree, self_times  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args):
    return subprocess.run(RUN + [str(a) for a in args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def quick_sets(tmp_path_factory):
    """Two full quick sets of the same seed: (doc, out_dir) each."""
    sets = []
    for tag in "ab":
        out = tmp_path_factory.mktemp(f"perf-{tag}")
        proc = run("--quick", "--seed", 3, "--out-dir", out)
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
        sets.append((json.loads((out / "result-seed3.json").read_text()), out))
    return sets


def test_every_name_in_the_contract_is_emitted(quick_sets):
    doc, _ = quick_sets[0]
    assert sorted(doc["workloads"]) == sorted(
        w["name"] for w in SPEC["workloads"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for w, block in doc["workloads"].items():
        assert NAME.fullmatch(w)
        assert block["correct"], block["problems"]
        emitted = {**block["e2e"], **block["layer"]}
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert NAME.fullmatch(m["name"])
            assert m["name"] in emitted, (w, m["name"])
            assert M.UNITS[m["name"]] == m["unit"]
    for m in SPEC["end_to_end"]:
        assert all(b["e2e"][m["name"]]["median"] > 0
                   for b in doc["workloads"].values()), m["name"]


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_line_has_exactly_the_contract_metrics(trace):
    proc = run("--workload", "serve", "--quick", "--seed", 3,
               "--seconds", 1, "--trace", trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in want}
    for m in want:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]


def test_span_trees_are_well_formed(quick_sets):
    _, out = quick_sets[0]
    for w in (x["name"] for x in SPEC["workloads"]):
        spans = json.loads((out / f"trace-{w}.json").read_text())["spans"]
        assert spans and check_span_tree(spans) == []
        assert min(self_times(spans).values()) >= -1e-6
    names = {s["name"] for s in json.loads(
        (out / "trace-serve.json").read_text())["spans"]}
    assert {"serve.build", "serve.run_tape", "serve.batch",
            "engine.build", "engine.run"} <= names


def test_span_checker_rejects_a_leaking_child():
    spans = [
        {"id": 0, "parent": None, "name": "cell", "start": 0.0, "end": 1.0},
        {"id": 1, "parent": 0, "name": "engine.run", "start": 0.5, "end": 1.5},
    ]
    assert check_span_tree(spans)


def test_layer_shares_account_for_the_run(quick_sets):
    doc, _ = quick_sets[0]
    for w, block in doc["workloads"].items():
        total = sum(block["layer"][f"{layer}.self_share"]
                    for layer in M.SHARE_LAYERS)
        assert abs(total - 1.0) <= 0.02, (w, total)


def test_simulated_clock_is_exact_across_sets(quick_sets):
    (a, _), (b, _) = quick_sets
    rows = M.compare(a, b)
    exact = [r for r in rows
             if r["bound"] == 0.0 and r["verdict"] != "(box speed)"]
    assert len(exact) >= 5 * 3  # fingerprint, sim_time_s, failed_frac, ...
    assert all(r["verdict"] == "agree" for r in exact), [
        r for r in exact if r["verdict"] != "agree"]
    for w in a["workloads"]:
        assert a["workloads"][w]["fingerprint"] == \
            b["workloads"][w]["fingerprint"] != ""


def test_hygiene_is_recorded(quick_sets):
    doc, _ = quick_sets[0]
    h = doc["hygiene"]
    assert {"nproc", "python", "numpy", "commit", "seed", "loadavg_start",
            "loadavg_end"} <= set(h)
    for block in doc["workloads"].values():
        roles = [r["role"] for r in block["runs"]]
        assert roles == ["warmup", "timed", "traced"]
        assert all("cpu_over_wall" in r for r in block["runs"])
        assert block["sizes"]


@pytest.mark.parametrize("workload", ["chaos", "serve"])
def test_a_corrupted_answer_fails_the_run(workload):
    proc = run("--workload", workload, "--quick", "--seed", 3,
               "--seconds", 1, "--trace", 0, "--corrupt")
    assert proc.returncode != 0
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is False
    assert line["failed"] > 0 and line["failed"] / line["attempted"] > 0
