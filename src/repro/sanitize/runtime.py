"""Sanitizer runtime: the structured error and the per-run context.

The protocol sanitizers are MUST-style usage checkers threaded through
the three simulated communication layers.  They observe protocol state
at well-defined points (allocation, free, post, put, finalize) and never
advance simulated time, so a sanitized run is **bit-identical** to an
unsanitized one — the acceptance property every check here is built
around.

A violation raises a structured :class:`SanitizerError` at the exact
detection point; the CLI turns it into exit code
:data:`SANITIZER_EXIT_CODE`.

Enablement is explicit (``EngineConfig.sanitize``, ``repro run
--sanitize``) or via the environment variable ``REPRO_SANITIZE`` (off
when unset, empty, ``0``, ``off``, ``false`` or ``no``; on otherwise)
read once at engine construction — never inside the simulation modules
themselves, which the determinism lint (rule D104) forbids from
branching on the environment.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

__all__ = [
    "SANITIZER_EXIT_CODE",
    "SanitizerContext",
    "SanitizerError",
    "resolve_mode",
]

#: Process exit code for "a protocol sanitizer found a violation" —
#: distinct from success (0), generic failure (1) and CLI usage errors
#: (2).
SANITIZER_EXIT_CODE = 3


def resolve_mode(explicit: Optional[bool] = None) -> bool:
    """Are sanitizers armed?  The explicit setting, else the environment."""
    if explicit is not None:
        return explicit
    raw = os.environ.get("REPRO_SANITIZE", "").strip().lower()
    return raw not in ("", "0", "off", "false", "no")


class SanitizerError(RuntimeError):
    """One detected protocol misuse, raised where it was found."""

    def __init__(self, rule: str, host: int, time: float, message: str,
                 details: Dict):
        super().__init__(f"[{rule}] host {host} @ {time:.9f}: {message}")
        #: Rule identifier, e.g. ``"lci.packet_leak"``.
        self.rule = rule
        #: Host/rank the violation was detected on.
        self.host = host
        #: Simulated time of detection (0.0 when no environment is attached).
        self.time = time
        #: Rule-specific structured details (counts, offsets, peers...).
        self.details = details


class SanitizerContext:
    """The per-run hub every checker reports into.

    One context exists per engine run (installed as
    ``fabric.sanitizer``); the protocol components discover it through
    their NIC's fabric, exactly like the fault injector, so no
    constructor signature in the hot path changes when sanitizers are
    off.
    """

    def __init__(self, env=None):
        self.env = env

    def violation(self, rule: str, host: int, message: str, **details) -> None:
        """Raise :class:`SanitizerError` for one violation."""
        now = self.env.now if self.env is not None else 0.0
        raise SanitizerError(rule, host, now, message, details)
