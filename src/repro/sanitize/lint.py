"""Static determinism lint for the simulation codebase (``repro lint``).

The whole reproduction rests on the simulator being **bit-deterministic**
— fault replay (docs/MODEL.md §7), the chaos harness's answer
comparison, and every layer-vs-layer timing claim assume that the same
(scenario, seed) pair produces the same event sequence.  This module is
an AST-based analyzer that flags the code patterns which historically
break that property:

====== ==========================================================
rule   flags
====== ==========================================================
D101   wall-clock calls (``time.time``, ``datetime.now``, ...) —
       real time leaking into simulated state
D102   the global ``random`` module / ``numpy.random`` module-level
       generators / unseeded ``default_rng()`` instead of the
       named-stream :class:`repro.sim.rng.RngFactory` API
D103   iteration over ``set``/``frozenset`` values in the
       ordering-sensitive modules (``sim/``, ``netapi/``, ``lci/``,
       ``mpi/``, ``comm/``, ``faults/``, ``serve/``) — Python set
       order depends on insertion history and hash seeds, so event
       order leaks
D104   ``os.environ``/``os.getenv`` in ordering-sensitive modules —
       simulation behavior must never branch on the environment
D105   floating-point accumulation (``sum``/``math.fsum``) over an
       unordered iterable — reduction order changes the bits of
       metrics
D106   iteration over ``.keys()``/``.values()`` of a dict populated
       from an unordered set — the dict inherits the set's
       insertion order, so the nondeterminism survives the copy
====== ==========================================================

A finding is suppressed by a ``# lint-ok: D103 <why>`` comment on the
flagged line (multiple rules comma-separated; ``# lint-ok: all``
suppresses everything on the line).  Suppressions are counted in the
JSON report so CI can watch for creep.

The analysis is intentionally self-contained (stdlib ``ast`` only)
because the container image pins its dependency set; the one import
from the package is the shared atomic file writer for ``--json``.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.obs.atomic import atomic_write_text

__all__ = [
    "Finding",
    "RULES",
    "ORDER_SENSITIVE_DIRS",
    "lint_source",
    "lint_file",
    "lint_paths",
    "lint_repo",
    "repo_package_root",
    "report_dict",
    "format_findings",
]

RULES: Dict[str, str] = {
    "D101": "wall-clock call in simulation code",
    "D102": "global random source instead of the named-stream rng API",
    "D103": "iteration over an unordered set in an ordering-sensitive module",
    "D104": "environment-dependent branching in an ordering-sensitive module",
    "D105": "floating-point accumulation over an unordered iterable",
    "D106": "iteration over a dict populated from an unordered set",
}

#: Package subdirectories whose event/iteration order feeds simulated
#: time: anything nondeterministic here changes the run.  ``serve`` is
#: here because the query scheduler's decisions (batch composition,
#: admission, cache order) feed the service clock and the tape-replay
#: byte-identity guarantee.  ``obs`` is here because its exporters and
#: the comm observatory promise byte-identical artifacts (timelines,
#: comm-docs, fingerprints) for identical runs — any unordered
#: iteration there breaks the CI drift gates built on those bytes.
ORDER_SENSITIVE_DIRS = ("sim", "netapi", "lci", "mpi", "comm", "faults",
                        "serve", "obs")

_WALL_CLOCK = {
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.clock", "time.clock_gettime",
}
_DATETIME_FNS = {"now", "utcnow", "today"}
#: numpy.random attributes that are deterministic construction tools,
#: not draws from the hidden module-level global generator.
_NP_RANDOM_SAFE = {
    "default_rng", "SeedSequence", "Generator", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64",
}

_SUPPRESS_RE = re.compile(
    r"lint-ok:\s*(all|[A-Z]\d{3}(?:\s*,\s*[A-Z]\d{3})*)", re.IGNORECASE
)


@dataclass(frozen=True)
class Finding:
    """One lint hit, machine- and human-readable."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def as_dict(self) -> Dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


# ----------------------------------------------------------------------
# Path sensitivity
# ----------------------------------------------------------------------
def is_order_sensitive(path: str) -> bool:
    """True when ``path`` lies in an ordering-sensitive package dir."""
    parts = Path(path).parts
    if "repro" in parts:
        idx = len(parts) - 1 - tuple(reversed(parts)).index("repro")
        rest = parts[idx + 1:]
        return bool(rest) and rest[0] in ORDER_SENSITIVE_DIRS
    return any(p in ORDER_SENSITIVE_DIRS for p in parts[:-1])


# ----------------------------------------------------------------------
# Suppression comments
# ----------------------------------------------------------------------
def _suppressions(source: str) -> Dict[int, Set[str]]:
    out: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _SUPPRESS_RE.search(line)
        if m is None:
            continue
        spec = m.group(1)
        if spec.lower() == "all":
            out[lineno] = {"all"}
        else:
            out[lineno] = {r.strip().upper() for r in spec.split(",")}
    return out


# ----------------------------------------------------------------------
# The visitor
# ----------------------------------------------------------------------
def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _Visitor(ast.NodeVisitor):
    def __init__(self, path: str, sensitive: bool):
        self.path = path
        self.sensitive = sensitive
        self.findings: List[Finding] = []
        #: local alias -> canonical module name ("np" -> "numpy")
        self.module_aliases: Dict[str, str] = {}
        #: imported-from name -> canonical dotted origin
        #: ("time" -> "time.time" after ``from time import time``)
        self.from_imports: Dict[str, str] = {}
        #: stack of per-scope sets of names known to hold set values
        self._set_names: List[Set[str]] = [set()]
        #: stack of per-scope names of dicts built from unordered sets
        self._setfed_dicts: List[Set[str]] = [set()]
        #: nodes already reported by D105 (skip the D103 re-report)
        self._claimed: Set[int] = set()

    # -- helpers -------------------------------------------------------
    def _flag(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(rule, self.path, node.lineno, node.col_offset, message)
        )

    def _resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted path of a call target, alias-expanded."""
        d = _dotted(node)
        if d is None:
            return None
        head, _, rest = d.partition(".")
        if head in self.from_imports:
            head = self.from_imports[head]
        elif head in self.module_aliases:
            head = self.module_aliases[head]
        return f"{head}.{rest}" if rest else head

    def _is_unordered(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in (
                "set", "frozenset"
            ):
                return True
            if isinstance(node.func, ast.Attribute) and node.func.attr in (
                "union", "intersection", "difference", "symmetric_difference",
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor)
        ):
            return self._is_unordered(node.left) or self._is_unordered(
                node.right
            )
        if isinstance(node, ast.Name):
            return any(node.id in scope for scope in self._set_names)
        return False

    # -- imports -------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            self.module_aliases[alias.asname or root] = root
            if root == "random":
                self._flag(
                    "D102", node,
                    "import of the global `random` module; draw from a "
                    "named stream of repro.sim.rng.RngFactory instead",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        mod = (node.module or "").split(".")[0]
        for alias in node.names:
            self.from_imports[alias.asname or alias.name] = (
                f"{node.module}.{alias.name}" if node.module else alias.name
            )
        if mod == "random":
            self._flag(
                "D102", node,
                "import from the global `random` module; draw from a "
                "named stream of repro.sim.rng.RngFactory instead",
            )
        self.generic_visit(node)

    # -- scopes & assignments -----------------------------------------
    def _is_set_fed_dict(self, node: ast.AST) -> bool:
        """An expression building a dict whose key order comes from an
        unordered set (``{k: v for k in s}``, ``dict.fromkeys(s)``)."""
        if isinstance(node, ast.DictComp):
            return any(self._is_unordered(gen.iter)
                       for gen in node.generators)
        if isinstance(node, ast.Call):
            target = _dotted(node.func)
            if target == "dict.fromkeys" and node.args:
                return self._is_unordered(node.args[0])
        if isinstance(node, ast.Name):
            return any(node.id in scope for scope in self._setfed_dicts)
        return False

    def _enter_scope(self, node) -> None:
        self._set_names.append(set())
        self._setfed_dicts.append(set())
        self.generic_visit(node)
        self._set_names.pop()
        self._setfed_dicts.pop()

    visit_FunctionDef = _enter_scope
    visit_AsyncFunctionDef = _enter_scope
    visit_ClassDef = _enter_scope
    visit_Lambda = _enter_scope

    def visit_Assign(self, node: ast.Assign) -> None:
        unordered = self._is_unordered(node.value)
        set_fed = self._is_set_fed_dict(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if unordered:
                    self._set_names[-1].add(target.id)
                else:
                    self._set_names[-1].discard(target.id)
                if set_fed:
                    self._setfed_dicts[-1].add(target.id)
                else:
                    self._setfed_dicts[-1].discard(target.id)
        self.generic_visit(node)

    # -- D103/D106: unordered iteration -------------------------------
    def _check_iter(self, iter_node: ast.AST) -> None:
        if not self.sensitive or id(iter_node) in self._claimed:
            return
        if self._is_unordered(iter_node):
            self._claimed.add(id(iter_node))
            self._flag(
                "D103", iter_node,
                "iterating an unordered set in an ordering-sensitive "
                "module; wrap in sorted(...) to fix the traversal order",
            )
            return
        if (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Attribute)
            and iter_node.func.attr in ("keys", "values")
            and self._is_set_fed_dict(iter_node.func.value)
        ):
            self._claimed.add(id(iter_node))
            self._flag(
                "D106", iter_node,
                f"iterating .{iter_node.func.attr}() of a dict "
                "populated from an unordered set; the dict inherits "
                "the set's iteration order — build it from "
                "sorted(...) instead",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node) -> None:
        for gen in node.generators:
            self._check_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_GeneratorExp = _visit_comp
    visit_DictComp = _visit_comp

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # Building a set is fine; iterating one inside the build is not.
        self._visit_comp(node)

    # -- attribute-level rules (D104) ---------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self.sensitive:
            resolved = self._resolve(node)
            if resolved == "os.environ":
                self._flag(
                    "D104", node,
                    "os.environ consulted in an ordering-sensitive module; "
                    "simulation behavior must not branch on the environment",
                )
        self.generic_visit(node)

    # -- call-level rules (D101, D102, D104, D105) --------------------
    def visit_Call(self, node: ast.Call) -> None:
        resolved = self._resolve(node.func)
        if resolved is not None:
            self._check_wall_clock(node, resolved)
            self._check_global_random(node, resolved)
            if self.sensitive and resolved == "os.getenv":
                self._flag(
                    "D104", node,
                    "os.getenv called in an ordering-sensitive module; "
                    "simulation behavior must not branch on the environment",
                )
        self._check_fp_accumulation(node, resolved)
        self.generic_visit(node)

    def _check_wall_clock(self, node: ast.Call, resolved: str) -> None:
        if resolved in _WALL_CLOCK:
            self._flag(
                "D101", node,
                f"wall-clock call {resolved}(); simulated components must "
                "read time from Environment.now",
            )
            return
        parts = resolved.split(".")
        if (
            parts[0] == "datetime"
            and parts[-1] in _DATETIME_FNS
        ):
            self._flag(
                "D101", node,
                f"wall-clock call {resolved}(); simulated components must "
                "read time from Environment.now",
            )

    def _check_global_random(self, node: ast.Call, resolved: str) -> None:
        parts = resolved.split(".")
        if parts[0] == "random" and len(parts) > 1:
            self._flag(
                "D102", node,
                f"{resolved}() draws from the global random state; use a "
                "named stream of repro.sim.rng.RngFactory",
            )
            return
        if len(parts) >= 3 and parts[0] == "numpy" and parts[1] == "random":
            attr = parts[2]
            if attr not in _NP_RANDOM_SAFE:
                self._flag(
                    "D102", node,
                    f"{resolved}() uses numpy's hidden module-level "
                    "generator; use a named stream of "
                    "repro.sim.rng.RngFactory",
                )
            elif attr == "default_rng" and not node.args and not node.keywords:
                self._flag(
                    "D102", node,
                    "default_rng() without a seed is nondeterministic; "
                    "seed it or use repro.sim.rng.RngFactory",
                )

    def _check_fp_accumulation(
        self, node: ast.Call, resolved: Optional[str]
    ) -> None:
        is_sum = (
            isinstance(node.func, ast.Name) and node.func.id == "sum"
        ) or resolved in ("math.fsum", "numpy.sum")
        if not is_sum or not node.args:
            return
        arg = node.args[0]
        unordered = self._is_unordered(arg)
        if not unordered and isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
            gen_iter = arg.generators[0].iter
            if self._is_unordered(gen_iter):
                unordered = True
                self._claimed.add(id(gen_iter))
        if unordered:
            self._claimed.add(id(arg))
            self._flag(
                "D105", node,
                "accumulation over an unordered iterable: floating-point "
                "addition is not associative, so the reduction order "
                "changes the result bits; sort the operands first",
            )


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
@dataclass
class LintResult:
    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0


def lint_source(source: str, path: str = "<memory>") -> List[Finding]:
    """Findings for one source string (suppressions applied)."""
    return _lint_source_counted(source, path).findings


def _lint_source_counted(source: str, path: str) -> LintResult:
    tree = ast.parse(source, filename=path)
    visitor = _Visitor(path, is_order_sensitive(path))
    visitor.visit(tree)
    supp = _suppressions(source)
    kept: List[Finding] = []
    suppressed = 0
    for f in visitor.findings:
        rules = supp.get(f.line, ())
        if "all" in rules or f.rule in rules:
            suppressed += 1
        else:
            kept.append(f)
    return LintResult(kept, 1, suppressed)


def lint_file(path) -> List[Finding]:
    return lint_source(Path(path).read_text(), str(path))


def _iter_python_files(paths: Sequence) -> Iterable[Path]:
    for p in paths:
        p = Path(p)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        else:
            yield p


def lint_paths(paths: Sequence) -> LintResult:
    """Lint files/directories; aggregated result, findings in path order."""
    result = LintResult()
    for f in _iter_python_files(paths):
        one = _lint_source_counted(f.read_text(), str(f))
        result.findings.extend(one.findings)
        result.files_checked += 1
        result.suppressed += one.suppressed
    return result


def repo_package_root() -> Path:
    """The installed ``repro`` package directory (the default lint root)."""
    import repro

    return Path(repro.__file__).resolve().parent


def lint_repo() -> LintResult:
    return lint_paths([repo_package_root()])


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def report_dict(result: LintResult) -> Dict:
    """Machine-readable report (the ``repro lint --json`` payload).

    The schema is :func:`repro.sanitize.report.make_report`'s; the
    pre-schema ``suppressed`` count is kept as a legacy alias.
    """
    from repro.sanitize.report import make_report

    doc = make_report("repro-lint", RULES, result.findings,
                      files_checked=result.files_checked,
                      suppressed=result.suppressed)
    doc["suppressed"] = result.suppressed
    return doc


def format_findings(result: LintResult) -> str:
    lines = [str(f) for f in result.findings]
    lines.append(
        f"{len(result.findings)} finding(s) in {result.files_checked} "
        f"file(s), {result.suppressed} suppressed"
    )
    return "\n".join(lines)


def save_report(result: LintResult, path: str) -> str:
    return atomic_write_text(path, json.dumps(report_dict(result), indent=2))
