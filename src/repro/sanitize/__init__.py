"""Correctness tooling: static determinism lint + runtime protocol checks.

Two halves, one goal — keep the simulator bit-deterministic and the
protocol models honest so every perf/refactor PR has a safety net:

* :mod:`repro.sanitize.lint` — AST-based determinism lint
  (``repro lint``), stdlib-only, with its ``--json`` schema and SARIF
  emitter in :mod:`repro.sanitize.report`;
* :mod:`repro.sanitize.runtime` — :class:`SanitizerError`, the CLI's
  exit code for it, and the end-of-run conservation audit every engine
  run ends with.  The six per-event rules live in the components that
  own the state they read (the LCI packet pool, the MPI endpoint and
  window) and run on every run too; all of them raise
  :class:`SanitizerError` where they find a violation, and the CLI
  exits 3.
"""

from repro.sanitize.runtime import (
    SANITIZER_EXIT_CODE,
    SanitizerError,
    conservation_audit,
)

__all__ = [
    "SANITIZER_EXIT_CODE",
    "SanitizerError",
    "conservation_audit",
]
