"""Sanitizer runtime: violations, modes, and the per-run context.

The protocol sanitizers are MUST-style usage checkers threaded through
the three simulated communication layers.  They observe protocol state
at well-defined points (allocation, free, post, put, finalize) and never
advance simulated time, so a sanitized run is **bit-identical** to an
unsanitized one — the acceptance property every check here is built
around.

Two modes:

* ``"raise"`` — the first violation raises a structured
  :class:`SanitizerError` at the exact detection point (best stack
  trace, best for tests and debugging);
* ``"warn"`` — violations accumulate on the context's report; the run
  continues, the harness surfaces them in ``RunMetrics`` (and an
  attached ``ObsContext`` exports them as ``sanitizer`` instants), and
  the CLI exits with the distinct code
  :data:`SANITIZER_EXIT_CODE`.

Enablement is explicit (``EngineConfig.sanitize``, ``repro run
--sanitize``) or via the environment variable ``REPRO_SANITIZE``
(``1``/``warn`` → warn, ``raise``/``strict`` → raise) read once at
engine construction — never inside the simulation modules themselves,
which the determinism lint (rule D104) forbids from branching on the
environment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "SANITIZER_EXIT_CODE",
    "SanitizerConfig",
    "SanitizerContext",
    "SanitizerError",
    "Violation",
    "resolve_mode",
]

#: Process exit code for "the run finished but warn-mode sanitizers
#: found violations" — distinct from success (0), generic failure (1)
#: and CLI usage errors (2).
SANITIZER_EXIT_CODE = 3

_MODES = ("warn", "raise")


def resolve_mode(explicit: Optional[str] = None) -> Optional[str]:
    """Resolve the sanitizer mode: explicit setting, else environment.

    ``explicit`` may be ``"warn"``, ``"raise"``, ``"off"`` (force-disable
    regardless of the environment) or ``None`` (consult
    ``REPRO_SANITIZE``).  Returns ``"warn"``, ``"raise"`` or ``None``.
    """
    if explicit is not None:
        if explicit == "off":
            return None
        if explicit not in _MODES:
            raise ValueError(
                f"unknown sanitize mode {explicit!r}; pick from "
                f"{_MODES + ('off',)}"
            )
        return explicit
    raw = os.environ.get("REPRO_SANITIZE", "").strip().lower()
    if raw in ("", "0", "off", "false", "no"):
        return None
    if raw in ("raise", "strict", "error"):
        return "raise"
    return "warn"


@dataclass(frozen=True)
class Violation:
    """One detected protocol misuse (the structured unit of a report)."""

    #: Rule identifier, e.g. ``"lci.packet_leak"`` or
    #: ``"mpi.rma_overlapping_put"``.
    rule: str
    #: Host/rank the violation was detected on (-1 when not host-bound).
    host: int
    #: Simulated time of detection (0.0 when no environment is attached).
    time: float
    #: Human-readable description.
    message: str
    #: Rule-specific structured details (counts, offsets, peers...).
    details: Dict = field(default_factory=dict)

    def as_dict(self) -> Dict:
        return {
            "rule": self.rule,
            "host": self.host,
            "time": self.time,
            "message": self.message,
            "details": dict(self.details),
        }

    def __str__(self) -> str:
        return f"[{self.rule}] host {self.host} @ {self.time:.9f}: {self.message}"


class SanitizerError(RuntimeError):
    """A protocol sanitizer violation in ``raise`` mode.

    Carries the structured :class:`Violation` so harnesses can report
    the rule/host/details without parsing the message.
    """

    def __init__(self, violation: Violation):
        super().__init__(str(violation))
        self.violation = violation

    @property
    def rule(self) -> str:
        return self.violation.rule


@dataclass
class SanitizerConfig:
    """Tunable thresholds of the runtime checkers."""

    #: MPI unexpected-queue length above which a high-watermark breach
    #: is reported (once per endpoint, at the first breach).  The
    #: default is far above anything a healthy run produces.
    unexpected_watermark: int = 1024


class SanitizerContext:
    """The per-run hub every checker reports into.

    One context exists per engine run (installed as
    ``fabric.sanitizer``); the protocol components discover it through
    their NIC's fabric, exactly like the fault injector, so no
    constructor signature in the hot path changes when sanitizers are
    off.
    """

    def __init__(
        self,
        mode: str = "raise",
        env=None,
        config: Optional[SanitizerConfig] = None,
    ):
        if mode not in _MODES:
            raise ValueError(f"unknown sanitize mode {mode!r}")
        self.mode = mode
        self.env = env
        self.config = config or SanitizerConfig()
        self.violations: List[Violation] = []

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.env.now if self.env is not None else 0.0

    def violation(self, rule: str, host: int, message: str, **details) -> Violation:
        """Record one violation; raise it immediately in ``raise`` mode."""
        v = Violation(rule, host, self.now, message, details)
        self.violations.append(v)
        if self.mode == "raise":
            raise SanitizerError(v)
        return v

    # ------------------------------------------------------------------
    def by_rule(self, rule: str) -> List[Violation]:
        return [v for v in self.violations if v.rule == rule]

    def as_dicts(self) -> List[Dict]:
        return [v.as_dict() for v in self.violations]

    def summary(self) -> Dict[str, int]:
        """``{rule: count}`` over everything recorded."""
        out: Dict[str, int] = {}
        for v in self.violations:
            out[v.rule] = out.get(v.rule, 0) + 1
        return out

    def __len__(self) -> int:
        return len(self.violations)

    def __repr__(self) -> str:
        return (
            f"SanitizerContext(mode={self.mode!r}, "
            f"violations={len(self.violations)})"
        )


def format_violations(violations: List[Dict]) -> str:
    """Human-readable block for CLI output (takes ``as_dict`` rows)."""
    lines = [f"sanitizer: {len(violations)} violation(s)"]
    for v in violations:
        details = v.get("details") or {}
        extra = (
            " (" + ", ".join(f"{k}={details[k]}" for k in sorted(details)) + ")"
            if details else ""
        )
        lines.append(
            f"  [{v['rule']}] host {v['host']} @ {v['time']:.9f}: "
            f"{v['message']}{extra}"
        )
    return "\n".join(lines)
