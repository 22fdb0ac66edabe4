"""Determinism is checked by running: the same workload in two fresh
processes, one with ``PYTHONHASHSEED=0`` and one with ``=1``, must
print the same bytes.

String hashes differ between the two children, and under ASLR so do
object addresses, so any result that depends on a set's or an
id-hashed dict's iteration order, on wall-clock time or on an unseeded
random draw shows up as a byte difference.  The children print exact
bits: every float is written with :meth:`float.hex`, because the
committed documents round (``RunMetrics.row()`` to 1e-6 s,
``BENCH_core.json``'s ``sim_seconds`` to the nanosecond and
``compare_bench_docs`` to 1e-9 relative) and a last-bit drift passes
them all.  The first child's document must also match
:data:`PINNED_DIGESTS`: a drift that is the same in every process (the
sum of a set of floats) agrees between the children, but not with a
digest of the bits committed before it.

Run this file as a script (``PYTHONPATH=src python
tests/test_determinism.py``) to print the document one child prints.
"""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: The cell CI's ``observability`` job traces.
TRACED_ARGV = ["run", "--app", "bfs", "--graph", "rmat", "--scale", "8",
               "--hosts", "8", "--layer", "mpi-probe"]

#: :func:`pinned_digests` of the document, computed with Python 3.11 and
#: NumPy 2.4.  Serve's ``mean_us`` is in: it sums in plain float adds,
#: left to right, on every interpreter (``LatencySummary.from_values``).
PINNED_DIGESTS = {
    "abelian/bfs/rmat10@8h/lci":
        "7ac77902fbde3f8dc2c1eb0bbbbf1b0de5f00724dfe38af37adc5c7bba56c7ba",
    "abelian/cc/rmat12@32h/mpi-rma":
        "1011c63b4aa1cd90da5d0ce71f29c685b75ff71ae1a8d0235d2f9568145890c2",
    "abelian/pagerank/kron10@8h/mpi-probe":
        "2eaf427a2adc041fd5ec388aef1ea14f2e40b274ad51317206e77500e8c7155a",
    "abelian/sssp/rmat9@4h/mpi-rma":
        "bd9af90d787b461d3ab20bca461ff3c5b9f25c51c336c5a89f7a4df490eaeb62",
    "gemini/bfs/rmat10@8h/mpi-probe":
        "19b55da0847a04662043981a8ea2fa3ff8aaf838e2618cade05aff0f839a4cb3",
    "serve":
        "1b76a7ec0b9865ef63dd3fa3f2298b328feea58838df8a6681b3704f784b7a05",
    "traced":
        "0a426591e788f3bbd366bd01950dcd2a94b50d60985b9ac3109887aa89300f1d",
}


def _exact(value):
    """``value`` with every float as its hex string, every NumPy scalar
    as a plain number and every tuple as a list."""
    if isinstance(value, dict):
        return {str(k): _exact(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_exact(v) for v in value]
    if isinstance(value, float):
        return float(value).hex()
    if hasattr(value, "item"):
        return _exact(value.item())
    return value


def _traced_cell_exports() -> dict:
    from repro.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name)
                 for name in ("obs.json", "obs.prom", "comm.json")}
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(TRACED_ARGV + [
                "--obs", paths["obs.json"], "--obs-prom", paths["obs.prom"],
                "--comm", paths["comm.json"]])
        assert code == 0, code
        return {name: Path(path).read_text() for name, path in paths.items()}


def determinism_doc() -> dict:
    from repro.bench.core_bench import CANONICAL_SCENARIOS
    from repro.bench.scenarios import build_engine
    from repro.bench.serve_bench import serve_benchmark

    doc = {}
    for sc in CANONICAL_SCENARIOS:
        if sc.hosts >= 128:
            continue
        engine = build_engine(sc)
        metrics = dataclasses.asdict(engine.run())
        del metrics["wall_seconds"]
        answer = engine.assemble_global()
        doc[sc.label()] = {
            "metrics": metrics,
            "answer": {"dtype": str(answer.dtype),
                       "bytes": answer.tobytes().hex()},
        }
    doc["serve"] = serve_benchmark(scale=8, num_queries=12)
    doc["traced"] = _traced_cell_exports()
    return _exact(doc)


def _flatten(value, path=""):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _flatten(value[key], f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        yield f"{path}.len", len(value)
        for i, item in enumerate(value):
            yield from _flatten(item, f"{path}[{i}]")
    else:
        yield path, value


def first_difference(a: dict, b: dict):
    """The first key (in sorted, flattened order) whose value differs
    between the two documents, or ``None``."""
    for pair_a, pair_b in itertools.zip_longest(
            _flatten(a), _flatten(b), fillvalue=("", None)):
        if pair_a != pair_b:
            return min(key for key, _ in (pair_a, pair_b) if key)
    return None


def pinned_digests(doc: dict) -> dict:
    """sha256 of each entry of the document."""
    return {key: hashlib.sha256(json.dumps(entry, sort_keys=True)
                                .encode()).hexdigest()
            for key, entry in doc.items()}


@lru_cache(maxsize=None)
def hash_seed_outputs() -> tuple:
    """What the ``PYTHONHASHSEED=0`` and ``=1`` children print."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    children = [
        subprocess.Popen(
            [sys.executable, __file__], text=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for seed in ("0", "1")
    ]
    printed = []
    for child in children:
        out, err = child.communicate(timeout=300)
        assert child.returncode == 0, err
        printed.append(out)
    return tuple(printed)


def test_two_hash_seeds_print_the_same_bits():
    outputs = hash_seed_outputs()
    if outputs[0] != outputs[1]:
        docs = [json.loads(out) for out in outputs]
        raise AssertionError(
            "PYTHONHASHSEED=0 and =1 disagree, first at "
            f"{first_difference(*docs)!r}")


def test_document_matches_the_pinned_digests():
    """The bits themselves, not only their agreement between processes:
    a drift that is the same in every process moves a digest."""
    got = pinned_digests(json.loads(hash_seed_outputs()[0]))
    moved = sorted(key for key in got.keys() | PINNED_DIGESTS.keys()
                   if got.get(key) != PINNED_DIGESTS.get(key))
    assert not moved, f"simulated bits moved in {moved}"


def test_first_difference_names_the_key():
    a = {"x": {"t": "0x1.0p+0", "n": [1, 2]}, "y": "s"}
    assert first_difference(a, a) is None
    assert first_difference(a, {**a, "y": "z"}) == "y"
    assert first_difference(a, {**a, "x": {"t": "0x1.0p+1",
                                           "n": [1, 2]}}) == "x.t"
    assert first_difference(a, {**a, "x": {"t": "0x1.0p+0",
                                           "n": [1]}}) == "x.n.len"
    assert first_difference(a, {**a, "z": 0}) == "z"


if __name__ == "__main__":
    print(json.dumps(determinism_doc(), sort_keys=True, indent=1))
