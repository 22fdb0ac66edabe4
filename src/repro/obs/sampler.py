"""Periodic queue-depth sampler: one simulated process per run.

The sampler wakes every :data:`SAMPLE_PERIOD` simulated seconds and
reads every registered probe (:meth:`ObsContext.sample_once`).
Reads only — it never mutates component state, so the run's results are
bit-identical with or without it.

Termination: the sampler stops itself when it wakes to an otherwise
empty event heap.  In this kernel anything that will ever happen is
either scheduled (in the heap) or caused by something scheduled, so an
empty heap at the sampler's own wake-up means the simulation is over
(or deadlocked — and a perpetual sampler must not mask a deadlock by
keeping ``env.run()`` spinning).
"""

from __future__ import annotations

from repro.sim.engine import Interrupt

__all__ = ["SAMPLE_PERIOD", "start_sampler"]

#: Simulated seconds between two samples.
SAMPLE_PERIOD = 25e-6


def _sample_loop(obs):
    env = obs.env
    while True:
        obs.sample_once()
        if env.peek() == float("inf"):
            # Nothing else scheduled: we are the only remaining activity.
            return
        try:
            yield env.timeout(SAMPLE_PERIOD)
        except Interrupt:
            return


def start_sampler(obs):
    """Spawn the sampling process; returns the :class:`Process`."""
    return obs.env.process(_sample_loop(obs), name="obs-sampler")
