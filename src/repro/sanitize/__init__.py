"""Correctness tooling: static determinism lint + runtime protocol checks.

Two halves, one goal — keep the simulator bit-deterministic and the
protocol models honest so every perf/refactor PR has a safety net:

* :mod:`repro.sanitize.lint` — AST-based determinism lint
  (``repro lint``), stdlib-only, with its ``--json`` schema and SARIF
  emitter in :mod:`repro.sanitize.report`;
* :mod:`repro.sanitize.runtime` — the end-of-run conservation audit
  every engine run ends with, and, with the per-layer checkers
  (:mod:`~repro.sanitize.lci_checks`, :mod:`~repro.sanitize.mpi_checks`),
  the opt-in MUST-style per-event sanitizers (``repro run --sanitize``
  or ``REPRO_SANITIZE=1``).  Both raise :class:`SanitizerError` where
  they find a violation, and the CLI exits 3.
"""

from repro.sanitize.lci_checks import LciSanitizer
from repro.sanitize.mpi_checks import MpiSanitizer, WindowSanitizer, signatures_overlap
from repro.sanitize.runtime import (
    SANITIZER_EXIT_CODE,
    SanitizerContext,
    SanitizerError,
    conservation_audit,
    resolve_mode,
)

__all__ = [
    "SANITIZER_EXIT_CODE",
    "LciSanitizer",
    "MpiSanitizer",
    "SanitizerContext",
    "SanitizerError",
    "WindowSanitizer",
    "conservation_audit",
    "resolve_mode",
    "signatures_overlap",
]
