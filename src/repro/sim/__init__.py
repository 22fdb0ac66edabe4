"""Discrete-event simulation substrate for the LCI reproduction.

This package provides the "cluster" that the paper ran on: a deterministic
discrete-event simulation kernel (:mod:`repro.sim.engine`), synchronization
resources (:mod:`repro.sim.resources`), measurement utilities
(:mod:`repro.sim.monitor`), machine/NIC cost models
(:mod:`repro.sim.machine`), the network fabric (:mod:`repro.sim.network`),
and seeded random-stream management (:mod:`repro.sim.rng`).

The kernel is a small SimPy-style coroutine scheduler.  Simulated actors
(host threads, communication servers, NIC engines) are generator functions
driven by :class:`~repro.sim.engine.Process`; they ``yield`` events to wait
on and the environment advances virtual time between events.  All timing
numbers reported by the benchmark harness are *simulated seconds* produced
by this kernel, with costs charged according to the machine models.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.resources import Lock, Resource
from repro.sim.monitor import PeakTracker, TimeSeries
from repro.sim.rng import RngFactory

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
    "Lock",
    "Resource",
    "PeakTracker",
    "TimeSeries",
    "RngFactory",
]
