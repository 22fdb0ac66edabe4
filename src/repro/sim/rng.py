"""Seeded random-stream management.

Every stochastic choice in the reproduction (graph generation, workload
jitter, tie-breaking) draws from a named stream spawned off a single root
seed, so the whole experiment suite is reproducible from one integer and
adding a new consumer never perturbs existing streams.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = ["RngFactory"]


class RngFactory:
    """Spawns independent, deterministic :class:`numpy.random.Generator`\\ s.

    Streams are keyed by name; the same (root seed, name) pair always yields
    the same stream regardless of creation order, because each stream is
    derived by hashing the name into entropy rather than by sequential
    spawning.
    """

    def __init__(self, root_seed: int = 0):
        self.root_seed = int(root_seed)
        self._cache: Dict[str, np.random.Generator] = {}
        self._registered: Dict[str, str] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name`` (created on first use).

        Repeated calls intentionally share the stream — this is the
        accessor for a stream whose draws one component owns.  A
        component that requires *exclusive* ownership of its stream uses
        :meth:`register` instead, which rejects duplicates.
        """
        gen = self._cache.get(name)
        if gen is None:
            # Stable derivation: name bytes -> ints mixed into SeedSequence.
            digest = [b for b in name.encode("utf-8")]
            seq = np.random.SeedSequence([self.root_seed, len(digest)] + digest)
            gen = np.random.default_rng(seq)
            self._cache[name] = gen
        return gen

    def register(self, name: str, owner: str = "") -> np.random.Generator:
        """Claim exclusive ownership of stream ``name`` and return it.

        Two components silently sharing one stream is a determinism
        hazard that running twice cannot show (each consumer's draw
        sequence then depends on the other's call interleaving, which
        is the same in every run but moves with any edit to either),
        so duplicate registration is a hard error naming both
        claimants.
        """
        if name in self._registered:
            prev = self._registered[name] or "an earlier component"
            raise ValueError(
                f"rng stream {name!r} is already registered by {prev}: "
                f"two components sharing one stream makes each one's "
                f"draw sequence depend on the other's call order. "
                f"Register a distinct stream name"
                + (f" for {owner}" if owner else "")
                + "."
            )
        self._registered[name] = owner
        return self.stream(name)

    def fork(self, name: str) -> "RngFactory":
        """A child factory whose streams are disjoint from the parent's."""
        child_seed = int(self.stream(f"__fork__.{name}").integers(0, 2**63 - 1))
        return RngFactory(child_seed)

    def __repr__(self) -> str:
        return f"RngFactory(root_seed={self.root_seed})"
