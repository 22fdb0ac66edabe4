"""Traffic-tape determinism: same seed -> byte-identical everything.

The serve layer's regression story rests on two byte-level guarantees:

1. a :class:`~repro.serve.TapeSpec` expands to the same canonical JSON
   bytes every generation;
2. replaying one tape through two fresh services produces identical
   report documents — every latency percentile, every admission
   decision, every batch composition.
"""

import json

from repro.serve import (
    ServeConfig,
    ServeEngine,
    TapeSpec,
    generate_tape,
    tape_from_json,
    tape_to_json,
)

SPEC = TapeSpec(seed=13, num_queries=24, scale=8, mean_gap=5e-5)
CONFIG = ServeConfig(scale=8, hosts=4, layer="lci", max_batch=6,
                     ppr_rounds=4)


def test_same_seed_same_tape_bytes():
    a = tape_to_json(SPEC, generate_tape(SPEC))
    b = tape_to_json(SPEC, generate_tape(SPEC))
    assert a == b
    assert a.endswith("\n")


def test_different_seed_different_tape():
    other = TapeSpec(seed=14, num_queries=24, scale=8, mean_gap=5e-5)
    assert tape_to_json(SPEC, generate_tape(SPEC)) != \
        tape_to_json(other, generate_tape(other))


def test_tape_json_roundtrip():
    tape = generate_tape(SPEC)
    spec2, tape2 = tape_from_json(tape_to_json(SPEC, tape))
    assert spec2 == SPEC
    assert tape2 == tape
    # Regenerating from the parsed spec reproduces the stream.
    assert generate_tape(spec2) == tape


def test_replay_produces_identical_latency_report():
    tape = generate_tape(SPEC)
    doc1 = ServeEngine(CONFIG).drain(list(tape)).as_dict()
    doc2 = ServeEngine(CONFIG).drain(list(tape)).as_dict()
    text1 = json.dumps(doc1, sort_keys=True)
    text2 = json.dumps(doc2, sort_keys=True)
    assert text1 == text2
    # The report actually exercised the service: batches formed and
    # percentiles are populated.
    assert doc1["queries"]["ok"] > 0
    assert doc1["latency"]["p99_us"] >= doc1["latency"]["p50_us"] > 0
    assert doc1["batches"]["executed"] > 0


def test_replay_identical_under_fault_plan():
    config = ServeConfig(scale=8, hosts=4, layer="lci", max_batch=6,
                         ppr_rounds=4, fault_plan="drop-5pct")
    tape = generate_tape(SPEC)
    doc1 = ServeEngine(config).drain(list(tape)).as_dict()
    doc2 = ServeEngine(config).drain(list(tape)).as_dict()
    assert json.dumps(doc1, sort_keys=True) == \
        json.dumps(doc2, sort_keys=True)


def test_bench_document_is_reproducible():
    from repro.bench.serve_bench import compare_bench_docs, serve_benchmark
    from repro.obs.atomic import canonical_json

    doc1 = serve_benchmark(scale=8, num_queries=12, fig3_scale=8)
    doc2 = serve_benchmark(scale=8, num_queries=12, fig3_scale=8)
    assert canonical_json(doc1) == canonical_json(doc2)
    assert compare_bench_docs(doc1, doc2) == []
    lat = doc1["serve"]["latency"]
    assert {"p50_us", "p95_us", "p99_us"} <= set(lat)
