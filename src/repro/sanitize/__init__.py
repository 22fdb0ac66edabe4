"""Correctness tooling: static determinism lint + runtime protocol sanitizers.

Two halves, one goal — keep the simulator bit-deterministic and the
protocol models honest so every perf/refactor PR has a safety net:

* :mod:`repro.sanitize.lint` — AST-based determinism lint
  (``repro lint``), stdlib-only;
* :mod:`repro.sanitize.proto` — interprocedural static protocol
  analyzer (``repro analyze``): MPI request, PSCW epoch, packet-pool,
  and comm-phase lifecycles checked whole-program, self-tested by the
  mutation corpus in :mod:`repro.sanitize.corpus`;
* :mod:`repro.sanitize.report` — the shared ``--json`` schema and
  SARIF emitter used by both static passes;
* :mod:`repro.sanitize.runtime` + the per-layer checkers
  (:mod:`~repro.sanitize.lci_checks`, :mod:`~repro.sanitize.mpi_checks`)
  — opt-in MUST-style runtime sanitizers (``repro run --sanitize`` or
  ``REPRO_SANITIZE=1``): a violation raises :class:`SanitizerError`
  where it is found, and the CLI exits 3.
"""

from repro.sanitize.lci_checks import LciSanitizer
from repro.sanitize.mpi_checks import MpiSanitizer, WindowSanitizer, signatures_overlap
from repro.sanitize.runtime import (
    SANITIZER_EXIT_CODE,
    SanitizerContext,
    SanitizerError,
    resolve_mode,
)

__all__ = [
    "SANITIZER_EXIT_CODE",
    "LciSanitizer",
    "MpiSanitizer",
    "SanitizerContext",
    "SanitizerError",
    "WindowSanitizer",
    "resolve_mode",
    "signatures_overlap",
]
