"""Seeded traffic tapes: deterministic, replayable query streams.

A tape is the service's workload fixture: a :class:`TapeSpec` (seed,
query count, kind mix, arrival-rate model) expands to the same list of
:class:`~repro.serve.query.Query` records every time, on every machine.
Tapes serialize to canonical JSON — keys sorted, compact separators,
rows in qid order — so two generations from the same spec are
**byte-identical** files, and a replay of a saved tape reproduces the
full service run (admissions, batches, cache hits, latency percentiles)
bit for bit.  That property is what makes heavy-traffic scenarios and
chaos runs regression-testable.

All randomness flows through one named :class:`~repro.sim.rng.RngFactory`
stream, so generating a tape can never perturb graph generation or
fault-plan draws that share the root seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.serve.query import QUERY_KINDS, Query
from repro.sim.rng import RngFactory

__all__ = ["TapeSpec", "generate_tape", "tape_to_json", "tape_from_json"]

#: Default kind mix: read-heavy point lookups with some heavier analytics,
#: shaped like a production analytics frontend (mostly traversals, some
#: ranking, occasional maintenance-style membership checks).
DEFAULT_MIX: Tuple[Tuple[str, float], ...] = (
    ("bfs", 0.40),
    ("sssp", 0.25),
    ("ppr", 0.25),
    ("kcore", 0.10),
)


@dataclass(frozen=True)
class TapeSpec:
    """Everything needed to regenerate a tape, and nothing else."""

    #: Root seed of the tape's RNG stream.
    seed: int = 7
    #: Number of queries on the tape.
    num_queries: int = 64
    #: log2 of the vertex-id range sources are drawn from (must match
    #: the resident graph's scale).
    scale: int = 10
    #: Mean inter-arrival gap in simulated seconds (exponential gaps).
    mean_gap: float = 0.002
    #: Kind mix as (kind, weight) pairs in canonical kind order.
    mix: Tuple[Tuple[str, float], ...] = DEFAULT_MIX
    #: Candidate ``k`` values for kcore queries.
    k_choices: Tuple[int, ...] = (2, 3)

    def __post_init__(self):
        if self.num_queries < 1:
            raise ValueError("a tape needs at least one query")
        for kind, weight in self.mix:
            if kind not in QUERY_KINDS:
                raise ValueError(f"unknown kind {kind!r} in tape mix")
            if weight < 0:
                raise ValueError("mix weights must be >= 0")
        if sum(w for _, w in self.mix) <= 0:
            raise ValueError("tape mix has no positive weight")

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "num_queries": self.num_queries,
            "scale": self.scale,
            "mean_gap": self.mean_gap,
            "mix": [[k, w] for k, w in self.mix],
            "k_choices": list(self.k_choices),
        }

    @classmethod
    def from_dict(cls, doc: Dict) -> "TapeSpec":
        return cls(
            seed=int(doc["seed"]),
            num_queries=int(doc["num_queries"]),
            scale=int(doc["scale"]),
            mean_gap=float(doc["mean_gap"]),
            mix=tuple((str(k), float(w)) for k, w in doc["mix"]),
            k_choices=tuple(int(k) for k in doc["k_choices"]),
        )


def generate_tape(spec: TapeSpec) -> List[Query]:
    """Expand a spec into its query stream (same spec -> same stream)."""
    rng = RngFactory(spec.seed).stream("serve.tape")
    n = 2 ** spec.scale
    kinds = [k for k, _ in spec.mix]
    weights = [w for _, w in spec.mix]
    total = sum(weights)
    probs = [w / total for w in weights]

    queries: List[Query] = []
    clock = 0.0
    for qid in range(spec.num_queries):
        clock += float(rng.exponential(spec.mean_gap))
        kind = kinds[int(rng.choice(len(kinds), p=probs))]
        source = int(rng.integers(0, n))
        k = int(spec.k_choices[int(rng.integers(0, len(spec.k_choices)))])
        queries.append(
            Query(qid=qid, kind=kind, source=source,
                  arrival=round(clock, 9), k=k)
        )
    return queries


def tape_to_json(spec: TapeSpec, queries: List[Query]) -> str:
    """Canonical byte-stable serialization of a tape."""
    doc = {
        "format": "repro-serve-tape/v1",
        "spec": spec.as_dict(),
        "queries": [q.as_row() for q in queries],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def tape_from_json(text: str) -> Tuple[TapeSpec, List[Query]]:
    """Parse a saved tape; ``ValueError`` on a document of the wrong shape."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"a serve tape must be a JSON object, not "
                         f"{type(doc).__name__}")
    if doc.get("format") != "repro-serve-tape/v1":
        raise ValueError(f"not a serve tape (format={doc.get('format')!r})")
    try:
        spec = TapeSpec.from_dict(doc["spec"])
        queries = [Query.from_row(row) for row in doc["queries"]]
    except KeyError as exc:
        raise ValueError(f"serve tape lacks field {exc}") from None
    except TypeError as exc:
        raise ValueError(f"serve tape has an ill-typed field: {exc}") from None
    return spec, queries
