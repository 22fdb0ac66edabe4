"""Whole-program static protocol analyzer (``repro analyze``).

PR 2's *runtime* sanitizers only catch protocol misuse on the paths a
given scenario happens to execute.  This module is the static half: an
interprocedural AST dataflow pass (stdlib ``ast`` only, like
:mod:`repro.sanitize.lint`) that models the runtime's protocols as
per-object state machines and checks every call site against them.

====== ==========================================================
rule   flags
====== ==========================================================
P201   nonblocking MPI request created but never waited/tested
P202   MPI request waited twice
P203   MPI request leaked across a return path without escaping
P204   RMA ``put`` reachable outside a ``start``/``complete``
       access epoch
P205   mismatched PSCW exposure epoch (``post`` without ``wait``,
       ``wait`` without ``post``, nested ``post``)
P206   LCI packet budget allocated but not freed on every path
P207   ``free`` of an escaped packet budget, or double free
P208   completion queue polled after shutdown
P209   ``CommLayer.send`` outside a ``phase_begin``/``phase_end``
       window
P210   ``collect`` on a phase never begun (or already ended)
P211   ``phase_end`` with unflushed sends, or a teardown path that
       skips ``shutdown()`` while a sibling path shuts down
P212   attribute mutated from two simulated process generators
       with a stale read across a sim-event yield
====== ==========================================================

Design notes
------------
* **Object tracking.**  Requests (``isend``/``irecv``) and packet-pool
  budgets (``alloc``/``make_packet``) become *tokens* with a
  path-sensitive status (live / released / escaped / handed-off / ...).
  Escape analysis is deliberately generous: storing a token into an
  attribute, container, or passing it to another call counts as an
  escape, so only *locally dropped* objects are flagged.
* **State machines.**  Epochs (PSCW access/exposure), comm phases, and
  CQ lifecycles are per-receiver machines keyed by the dotted receiver
  expression (``win``, ``self.pool``, ``layer``...).  Receivers are
  *gated by kind* (window-like, pool-like, layer-like, cq-like —
  inferred from names, constructors, and class defs) so e.g.
  ``self.cache.put`` never trips the RMA rules.
* **Opener implies entry-closed.**  ``start``/``post``/``phase_begin``
  raise at runtime when their epoch is already open (the runtime
  forbids nesting), so a function that *opens* an epoch can assume it
  was closed on entry — that is what makes "hoisted put" definite.
* **Interprocedural core.**  Every function gets a summary (creates /
  releases / open-close effects / open-state requirements) computed to
  a bounded fixpoint and applied at call sites resolved through a
  name-and-class call graph.  Ambiguous dispatch (several methods with
  one name) contributes nothing — precision over recall.

A finding is suppressed with ``# proto-ok: P204 <why>`` on the flagged
line; accepted findings live in ``PROTO_BASELINE.json`` keyed by
(rule, path, symbol) so line drift never invalidates the baseline.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.obs.atomic import atomic_write_text, canonical_json
from repro.sanitize.lint import _iter_python_files, repo_package_root

__all__ = [
    "RULES",
    "ProtoFinding",
    "AnalysisResult",
    "analyze_source",
    "analyze_paths",
    "analyze_repo",
    "report_dict",
    "format_findings",
    "normalize_path",
    "load_baseline",
    "save_baseline",
    "diff_baseline",
    "BASELINE_NAME",
]

RULES: Dict[str, str] = {
    "P201": "nonblocking MPI request created but never waited or tested",
    "P202": "MPI request waited twice",
    "P203": "MPI request leaked across a function return without escaping",
    "P204": "RMA put outside its start/complete access epoch",
    "P205": "mismatched PSCW exposure epoch (post/wait pairing)",
    "P206": "LCI packet budget allocated but not freed on every path",
    "P207": "free of an escaped packet budget, or double free",
    "P208": "completion queue polled after shutdown",
    "P209": "CommLayer send outside a phase_begin/phase_end window",
    "P210": "collect on a comm phase never begun",
    "P211": "phase ended with unflushed sends, or teardown path missing "
            "shutdown",
    "P212": "shared attribute written from concurrent process generators "
            "with a stale read across a yield",
}

BASELINE_NAME = "PROTO_BASELINE.json"

_SUPPRESS_RE = re.compile(
    r"proto-ok:\s*(all|[A-Z]\d{3}(?:\s*,\s*[A-Z]\d{3})*)", re.IGNORECASE
)

# ----------------------------------------------------------------------
# Findings
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ProtoFinding:
    """One analyzer hit; ``symbol`` is the enclosing function qualname."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    symbol: str = ""

    def as_dict(self) -> Dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "symbol": self.symbol,
        }

    def __str__(self) -> str:
        sym = f" [{self.symbol}]" if self.symbol else ""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} {self.message}{sym}"
        )


@dataclass
class AnalysisResult:
    findings: List[ProtoFinding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0


# ----------------------------------------------------------------------
# Receiver kinds and op tables
# ----------------------------------------------------------------------

#: protocols and the state in which their "requires" ops are misuses
_BAD_STATE = {
    "access": "closed",
    "exposure": "closed",
    "phase": "closed",
    "cq": "shut",
}

_CREATOR_METHODS = {"isend": "request", "irecv": "request"}
_REQUEST_CLASSES = {"MpiRequest"}
_WINDOW_OPS = {
    "start", "complete", "put", "post", "wait", "test_wait",
    "finish_exposure",
}
_LAYER_OPS = {
    "phase_begin", "phase_end", "send", "collect", "collect_some",
    "flush", "shutdown",
}
#: budget releases (``retire`` returns the packet object, not the
#: budget reservation, so it is tracked separately)
_POOL_RELEASES = {"free", "free_nowait"}
_CQ_SHUT_OPS = {"stop_server", "shutdown", "stop"}
_CQ_POLL_OPS = {"recv_deq", "dequeue", "dequeue_from", "poll", "send_enq"}
#: container methods whose argument is durably stored (strong escape)
_STORE_METHODS = {
    "append", "appendleft", "add", "extend", "insert", "push",
    "setdefault", "enqueue", "register", "record",
}


def _class_kind(name: str, bases: Sequence[str]) -> Optional[str]:
    for n in [name] + list(bases):
        if "CommLayer" in n or n.endswith("Layer"):
            return "layer"
        if "Window" in n:
            return "window"
        if "Pool" in n:
            return "pool"
        if "Endpoint" in n:
            return "ep"
        if "Runtime" in n or "Queue" in n:
            return "cq"
    return None


def _hint_kind(key: str) -> Optional[str]:
    """Receiver kind guessed from the dotted expression's last name."""
    last = key.split(".")[-1].replace("[]", "").lower()
    if not last:
        return None
    if "win" in last:
        return "window"
    if "pool" in last:
        return "pool"
    if "layer" in last:
        return "layer"
    if last == "ep" or "endpoint" in last:
        return "ep"
    if (last.startswith("rt") or "runtime" in last or "server" in last
            or "queue" in last or last == "cq"):
        return "cq"
    return None


def _expr_key(node: ast.AST) -> Optional[str]:
    """Stable dotted key for a receiver expression (``a.b[..].c``)."""
    parts: List[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            if not parts:
                parts.append("[]")
            else:
                parts[-1] = parts[-1] + "[]"
            node = node.value
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            return ".".join(reversed(parts))
        else:
            return None


# ----------------------------------------------------------------------
# Program index: functions, classes, summaries
# ----------------------------------------------------------------------


@dataclass
class _FuncInfo:
    node: ast.AST                       # FunctionDef / AsyncFunctionDef
    path: str
    qualname: str
    cls: Optional[str]                  # enclosing class name
    params: List[str]                   # excluding self/cls


@dataclass
class _ClassInfo:
    name: str
    bases: List[str]
    kind: Optional[str]
    methods: Dict[str, _FuncInfo] = field(default_factory=dict)


@dataclass
class _Summary:
    creates: Optional[str] = None       # token kind returned live
    releases: Set[str] = field(default_factory=set)   # param names
    #: (root, subpath, proto, state) applied at resolved call sites
    effects: List[Tuple[str, str, str, str]] = field(default_factory=list)
    #: (root, subpath, proto, rule, opname) preconditions
    requires: List[Tuple[str, str, str, str, str]] = (
        field(default_factory=list))


class _Program:
    """Whole-program index + two-phase (summaries, findings) driver."""

    def __init__(self, modules: Sequence[Tuple[str, str]]):
        #: modules: (path, source)
        self.modules: List[Tuple[str, str, ast.Module]] = []
        self.functions: Dict[str, _FuncInfo] = {}       # "path::qual"
        self.by_name: Dict[str, List[_FuncInfo]] = {}
        self.classes: Dict[str, _ClassInfo] = {}
        self.summaries: Dict[str, _Summary] = {}
        for path, source in modules:
            tree = ast.parse(source, filename=path)
            self.modules.append((path, source, tree))
            self._index_module(path, tree)

    # -- indexing ------------------------------------------------------
    def _index_module(self, path: str, tree: ast.Module) -> None:
        def visit(node, qual: str, cls: Optional[str]):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    bases = [b for b in map(_expr_key, child.bases) if b]
                    info = _ClassInfo(
                        child.name, bases,
                        _class_kind(child.name, bases))
                    self.classes.setdefault(child.name, info)
                    visit(child, f"{qual}{child.name}.", child.name)
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    params = [a.arg for a in child.args.args]
                    if cls and params and params[0] in ("self", "cls"):
                        params = params[1:]
                    fi = _FuncInfo(child, path, f"{qual}{child.name}",
                                   cls, params)
                    self.functions[f"{path}::{fi.qualname}"] = fi
                    self.by_name.setdefault(child.name, []).append(fi)
                    if cls and cls in self.classes:
                        self.classes[cls].methods.setdefault(child.name, fi)
                    visit(child, f"{qual}{child.name}.", None)
        visit(tree, "", None)

    def key_of(self, fi: _FuncInfo) -> str:
        return f"{fi.path}::{fi.qualname}"

    # -- call resolution ----------------------------------------------
    def resolve_method(self, cls: Optional[str],
                       name: str) -> Optional[_FuncInfo]:
        seen: Set[str] = set()
        while cls and cls in self.classes and cls not in seen:
            seen.add(cls)
            info = self.classes[cls]
            if name in info.methods:
                return info.methods[name]
            cls = info.bases[0] if info.bases else None
        return None

    def resolve_unique(self, name: str,
                       module: Optional[str] = None) -> Optional[_FuncInfo]:
        cands = self.by_name.get(name, [])
        if module is not None:
            local = [c for c in cands
                     if c.path == module and c.cls is None]
            if len(local) == 1:
                return local[0]
        if len(cands) == 1:
            return cands[0]
        return None

    # -- driver --------------------------------------------------------
    def run(self) -> List[ProtoFinding]:
        infos = list(self.functions.values())
        for _ in range(3):                      # bounded fixpoint
            new: Dict[str, _Summary] = {}
            for fi in infos:
                fa = _FuncAnalyzer(self, fi, collect=False)
                fa.run()
                new[self.key_of(fi)] = fa.summary
            self.summaries = new
        findings: List[ProtoFinding] = []
        for fi in infos:
            fa = _FuncAnalyzer(self, fi, collect=True)
            fa.run()
            findings.extend(fa.findings)
        for path, _source, tree in self.modules:
            findings.extend(_race_pass(path, tree))
        dedup: Dict[Tuple, ProtoFinding] = {}
        for f in findings:
            dedup.setdefault((f.rule, f.path, f.line, f.symbol), f)
        return sorted(dedup.values(),
                      key=lambda f: (f.path, f.line, f.rule))


# ----------------------------------------------------------------------
# Path-sensitive state
# ----------------------------------------------------------------------

#: token statuses.  "handed" = released through a completion callback;
#: "weak" = passed to another call (might be stored, might not);
#: "void" = the guarded alloc failed on this path.
_SAFE = {"waited", "tested", "freed", "handed", "weak", "escaped", "void"}


def _join_status(a: str, b: str) -> str:
    if a == b:
        return a
    pair = {a, b}
    if pair == {"live", "void"}:
        # alloc-failure paths return early in practice; assume the
        # frees on the success path pair with the success alloc.
        return "live"
    if "live" in pair or "maybe" in pair:
        return "maybe"
    return "handed"


@dataclass
class _Token:
    kind: str                     # "request" | "budget" | "packet"
    node: ast.AST                 # creation site
    key: str                      # receiver key (pool for budgets)
    budget: Optional[int] = None  # packet -> its budget token id


class _State:
    """One abstract path: token statuses + per-receiver machines."""

    __slots__ = ("tokens", "vars", "guards", "machines", "unflushed")

    def __init__(self):
        self.tokens: Dict[int, str] = {}
        self.vars: Dict[str, int] = {}
        self.guards: Dict[str, int] = {}
        self.machines: Dict[str, Dict[str, str]] = {}
        self.unflushed: Dict[str, int] = {}

    def copy(self) -> "_State":
        st = _State()
        st.tokens = dict(self.tokens)
        st.vars = dict(self.vars)
        st.guards = dict(self.guards)
        st.machines = {k: dict(v) for k, v in self.machines.items()}
        st.unflushed = dict(self.unflushed)
        return st

    def get_machine(self, key: str, proto: str) -> str:
        return self.machines.get(key, {}).get(proto, "?")

    def set_machine(self, key: str, proto: str, state: str) -> None:
        self.machines.setdefault(key, {})[proto] = state


def _join_states(states: List[_State]) -> Optional[_State]:
    states = [s for s in states if s is not None]
    if not states:
        return None
    out = states[0].copy()
    for st in states[1:]:
        for tid in set(out.tokens) | set(st.tokens):
            a = out.tokens.get(tid)
            b = st.tokens.get(tid)
            if a is None or b is None:
                out.tokens[tid] = a if b is None else b
            else:
                out.tokens[tid] = _join_status(a, b)
        out.vars = {k: v for k, v in out.vars.items()
                    if st.vars.get(k) == v}
        out.guards = {k: v for k, v in out.guards.items()
                      if st.guards.get(k) == v}
        keys = set(out.machines) | set(st.machines)
        joined: Dict[str, Dict[str, str]] = {}
        for key in keys:
            ma = out.machines.get(key, {})
            mb = st.machines.get(key, {})
            row: Dict[str, str] = {}
            for proto in set(ma) | set(mb):
                sa, sb = ma.get(proto, "?"), mb.get(proto, "?")
                row[proto] = sa if sa == sb else "?"
            joined[key] = row
        out.machines = joined
        for key in set(out.unflushed) | set(st.unflushed):
            out.unflushed[key] = max(out.unflushed.get(key, 0),
                                     st.unflushed.get(key, 0))
    return out


# ----------------------------------------------------------------------
# The per-function abstract interpreter
# ----------------------------------------------------------------------


class _LoopCtx:
    __slots__ = ("breaks", "continues")

    def __init__(self):
        self.breaks: List[_State] = []
        self.continues: List[_State] = []


class _FuncAnalyzer:
    def __init__(self, program: _Program, fn: _FuncInfo, collect: bool):
        self.program = program
        self.fn = fn
        self.collect = collect
        self.findings: List[ProtoFinding] = []
        self.summary = _Summary()
        self.tokens: Dict[int, _Token] = {}
        self._next_tid = 0
        #: (node, state, kind) — kind in {"return", "end", "raise"}
        self.exits: List[Tuple[ast.AST, _State, str]] = []
        self.var_kinds: Dict[str, str] = {}
        self.var_roots: Dict[str, Tuple[str, str]] = {}
        self.var_classes: Dict[str, str] = {}
        self._loop_stack: List[_LoopCtx] = []
        self._posted: Dict[str, ast.AST] = {}
        self._completed: Set[str] = set()
        self._shut_sites: Dict[str, ast.AST] = {}
        self._released_params: Set[str] = set()
        self._return_kinds: Set[str] = set()
        self._param_set = set(fn.params)

    # -- plumbing ------------------------------------------------------
    def _flag(self, rule: str, node: ast.AST, message: str) -> None:
        if self.collect:
            self.findings.append(ProtoFinding(
                rule, self.fn.path, getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0), message,
                self.fn.qualname))

    def _new_token(self, kind: str, node: ast.AST, key: str,
                   st: _State, budget: Optional[int] = None) -> int:
        self._next_tid += 1
        tid = self._next_tid
        self.tokens[tid] = _Token(kind, node, key, budget)
        st.tokens[tid] = "live"
        return tid

    def _kind_of(self, key: Optional[str]) -> Optional[str]:
        if key is None:
            return None
        head = key.split(".")[0].replace("[]", "")
        if head == "self":
            if "." not in key:
                cls = self.program.classes.get(self.fn.cls or "")
                return cls.kind if cls else None
        elif "." not in key:
            if head in self.var_kinds:
                return self.var_kinds[head]
            if head in self.var_classes:
                ci = self.program.classes.get(self.var_classes[head])
                if ci and ci.kind:
                    return ci.kind
        return _hint_kind(key)

    def _root_of(self, key: str) -> Optional[Tuple[str, str]]:
        """(root, subpath) when the receiver is reachable from
        ``self`` or a parameter — i.e. a caller could name it too."""
        head = key.split(".")[0].replace("[]", "")
        rest = key[len(head):]
        if head == "self" or head in self._param_set:
            return head, rest
        if head in self.var_roots:
            root, sub = self.var_roots[head]
            return root, sub + rest
        return None

    # -- entry ---------------------------------------------------------
    def run(self) -> None:
        st = _State()
        self._preopen(st)
        self._entry_machines = {k: dict(v)
                                for k, v in st.machines.items()}
        out = self._exec_block(list(self.fn.node.body), st)
        if out is not None:
            self.exits.append((self.fn.node, out, "end"))
        self._finalize()

    def _preopen(self, st: _State) -> None:
        """Openers imply entry-closed (epochs/phases never nest)."""
        for node in ast.walk(self.fn.node):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            key = _expr_key(node.func.value)
            if key is None:
                continue
            kind = self._kind_of(key)
            m = node.func.attr
            if kind == "window" and m == "start":
                st.set_machine(key, "access", "closed")
            elif kind == "window" and m == "post":
                st.set_machine(key, "exposure", "closed")
            elif kind == "layer" and m == "phase_begin":
                st.set_machine(key, "phase", "closed")

    # -- statements ----------------------------------------------------
    def _exec_block(self, stmts: List[ast.stmt],
                    st: _State) -> Optional[_State]:
        for node in stmts:
            st = self._exec_stmt(node, st)
            if st is None:
                return None
        return st

    def _exec_stmt(self, node: ast.stmt,
                   st: _State) -> Optional[_State]:
        if isinstance(node, ast.Expr):
            self._eval(node.value, st)
            return st
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            return self._exec_assign(node, st)
        if isinstance(node, ast.Return):
            tid = self._eval(node.value, st) if node.value else None
            if tid is not None:
                if st.tokens.get(tid) == "live":
                    self.summary.creates = self.tokens[tid].kind
                st.tokens[tid] = "escaped"
            elif node.value is not None:
                self._escape_names(node.value, st, "escaped")
            self.exits.append((node, st, "return"))
            return None
        if isinstance(node, ast.Raise):
            if node.exc is not None:
                self._eval(node.exc, st)
            self.exits.append((node, st, "raise"))
            return None
        if isinstance(node, ast.If):
            return self._exec_if(node, st)
        if isinstance(node, (ast.While, ast.For, ast.AsyncFor)):
            return self._exec_loop(node, st)
        if isinstance(node, ast.Try):
            return self._exec_try(node, st)
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                self._eval(item.context_expr, st)
            return self._exec_block(list(node.body), st)
        if isinstance(node, ast.Break):
            if self._loop_stack:
                self._loop_stack[-1].breaks.append(st.copy())
            return None
        if isinstance(node, ast.Continue):
            if self._loop_stack:
                self._loop_stack[-1].continues.append(st.copy())
            return None
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._scan_closure(node, st)
            return st
        if isinstance(node, (ast.Assert, ast.Delete)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._eval(child, st)
            return st
        return st

    def _exec_assign(self, node, st: _State) -> _State:
        value = getattr(node, "value", None)
        tid = self._eval(value, st) if value is not None else None
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        for target in targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                # storing into an attribute/container escapes the value
                if tid is not None:
                    st.tokens[tid] = "escaped"
                elif value is not None:
                    self._escape_names(value, st, "escaped")
                self._eval(target.value, st)
                continue
            if isinstance(target, (ast.Tuple, ast.List)):
                for el in target.elts:
                    if isinstance(el, ast.Name):
                        st.vars.pop(el.id, None)
                        st.guards.pop(el.id, None)
                continue
            if not isinstance(target, ast.Name):
                continue
            name = target.id
            st.vars.pop(name, None)
            st.guards.pop(name, None)
            if tid is not None:
                token = self.tokens[tid]
                if token.kind == "budget":
                    st.guards[name] = tid      # alloc returns a bool
                else:
                    st.vars[name] = tid
            if value is not None:
                self._infer_var(name, value)
        return st

    def _infer_var(self, name: str, value: ast.expr) -> None:
        """Track kinds/classes/roots for receiver gating."""
        call = value
        if isinstance(call, (ast.Await, ast.YieldFrom)):
            call = call.value
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name):
            cname = call.func.id
            if cname in self.program.classes:
                self.var_classes[name] = cname
                kind = self.program.classes[cname].kind
                if kind:
                    self.var_kinds[name] = kind
        if isinstance(value, (ast.Attribute, ast.Subscript)):
            key = _expr_key(value)
            if key:
                root = self._root_of(key)
                if root:
                    self.var_roots[name] = root
                kind = _hint_kind(key)
                if kind:
                    self.var_kinds[name] = kind

    def _exec_if(self, node: ast.If, st: _State) -> Optional[_State]:
        self._eval(node.test, st)
        st_then, st_else = st.copy(), st.copy()
        self._refine(node.test, st_then, st_else)
        out_then = self._exec_block(list(node.body), st_then)
        out_else = self._exec_block(list(node.orelse), st_else)
        return _join_states([out_then, out_else])

    def _refine(self, test: ast.expr, st_then: _State,
                st_else: _State) -> None:
        """Branch refinement: alloc guards and ``req.done`` checks."""
        neg = False
        while isinstance(test, ast.UnaryOp) and isinstance(
                test.op, ast.Not):
            neg = not neg
            test = test.operand
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            if not neg:
                for v in test.values:
                    self._refine(v, st_then, _State())
                return
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            if isinstance(test.comparators[0], ast.Constant) and \
                    test.comparators[0].value is None:
                if isinstance(test.ops[0], ast.Is):
                    neg = not neg       # `x is None` == falsy guard
                    test = test.left
                elif isinstance(test.ops[0], ast.IsNot):
                    test = test.left
        true_st, false_st = (st_else, st_then) if neg else (
            st_then, st_else)
        if isinstance(test, ast.Name) and test.id in st_then.guards:
            tid = st_then.guards[test.id]
            # alloc failed on the falsy branch: no budget to pair
            if false_st.tokens.get(tid) == "live":
                false_st.tokens[tid] = "void"
            return
        if (isinstance(test, ast.Attribute) and test.attr == "done"
                and isinstance(test.value, ast.Name)):
            tid = st_then.vars.get(test.value.id)
            if tid is not None and self.tokens[tid].kind == "request":
                # `req.done` observed true == completion consumed
                if true_st.tokens.get(tid) in ("live", "maybe"):
                    true_st.tokens[tid] = "tested"

    def _exec_loop(self, node, st: _State) -> Optional[_State]:
        if isinstance(node, ast.While):
            self._eval(node.test, st)
            infinite = (isinstance(node.test, ast.Constant)
                        and bool(node.test.value))
        else:
            self._eval(node.iter, st)
            infinite = False
            if isinstance(node.target, ast.Name):
                st.vars.pop(node.target.id, None)
                st.guards.pop(node.target.id, None)
        ctx = _LoopCtx()
        self._loop_stack.append(ctx)
        body_out = self._exec_block(list(node.body), st.copy())
        self._loop_stack.pop()
        if infinite:
            post = _join_states(ctx.breaks)
        else:
            post = _join_states(
                [st, body_out] + ctx.breaks + ctx.continues)
        if post is not None and node.orelse:
            post = self._exec_block(list(node.orelse), post)
        return post

    def _exec_try(self, node: ast.Try, st: _State) -> Optional[_State]:
        pre = st.copy()
        out_try = self._exec_block(list(node.body), st)
        outs = [out_try]
        for handler in node.handlers:
            outs.append(self._exec_block(list(handler.body), pre.copy()))
        if node.orelse and out_try is not None:
            outs[0] = self._exec_block(list(node.orelse), out_try)
        post = _join_states(outs)
        if node.finalbody:
            base = post if post is not None else pre.copy()
            fin = self._exec_block(list(node.finalbody), base)
            return fin if post is not None else None
        return post

    # -- expressions ---------------------------------------------------
    def _eval(self, node: Optional[ast.expr],
              st: _State) -> Optional[int]:
        """Evaluate for side effects; token id if the expression *is*
        a tracked object (a bound name or a creator call)."""
        if node is None:
            return None
        if isinstance(node, (ast.YieldFrom, ast.Await)):
            return self._eval(node.value, st)
        if isinstance(node, ast.Yield):
            tid = self._eval(node.value, st) if node.value else None
            if tid is not None:
                st.tokens[tid] = "escaped"
            return None
        if isinstance(node, ast.Name):
            return st.vars.get(node.id)
        if isinstance(node, ast.Call):
            return self._eval_call(node, st)
        if isinstance(node, ast.Lambda):
            self._scan_closure(node, st)
            return None
        if isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Dict)):
            # literal containers durably hold their elements
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    tid = self._eval(child, st)
                    if tid is not None:
                        st.tokens[tid] = "escaped"
            return None
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._eval(child, st)
            elif isinstance(child, ast.comprehension):
                self._eval(child.iter, st)
                for cond in child.ifs:
                    self._eval(cond, st)
        return None

    def _escape_names(self, node: ast.expr, st: _State,
                      status: str) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                tid = st.vars.get(sub.id)
                if tid is not None and st.tokens.get(tid) not in _SAFE:
                    st.tokens[tid] = status

    def _scan_closure(self, node, st: _State) -> None:
        """Lambdas / nested defs: completion callbacks and captures."""
        body = node.body if isinstance(node.body, list) else [node.body]
        freed_pools: Set[str] = set()
        for stmt in body:
            for sub in ast.walk(stmt):
                if (isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in _POOL_RELEASES):
                    key = _expr_key(sub.func.value)
                    if key and self._kind_of(key) == "pool":
                        freed_pools.add(key)
                if isinstance(sub, ast.Name):
                    tid = st.vars.get(sub.id)
                    if tid is not None and \
                            st.tokens.get(tid) not in _SAFE:
                        st.tokens[tid] = "escaped"
        for key in freed_pools:
            for tid, token in self.tokens.items():
                if token.kind == "budget" and token.key == key and \
                        st.tokens.get(tid) == "live":
                    st.tokens[tid] = "handed"

    # -- calls ---------------------------------------------------------
    def _eval_call(self, node: ast.Call, st: _State) -> Optional[int]:
        func = node.func
        m: Optional[str] = None
        recv_key: Optional[str] = None
        if isinstance(func, ast.Attribute):
            m = func.attr
            recv_key = _expr_key(func.value)
            if recv_key is None:
                self._eval(func.value, st)
        # completion callbacks first, so hand-offs precede escapes
        arg_nodes = [a.value if isinstance(a, ast.Starred) else a
                     for a in node.args]
        arg_nodes += [kw.value for kw in node.keywords]
        for a in arg_nodes:
            if isinstance(a, (ast.Lambda, ast.FunctionDef)):
                self._scan_closure(a, st)
        arg_tokens: List[Tuple[int, ast.expr]] = []
        seen: Set[int] = set()
        for a in arg_nodes:
            if isinstance(a, ast.Lambda):
                continue
            tid = self._eval(a, st)
            refs = [tid] if tid is not None else []
            if not isinstance(a, ast.Name):
                for sub in ast.walk(a):
                    if isinstance(sub, ast.Name):
                        t2 = st.vars.get(sub.id)
                        if t2 is not None:
                            refs.append(t2)
            for t in refs:
                if t not in seen:
                    seen.add(t)
                    arg_tokens.append((t, a))

        kind = self._kind_of(recv_key) if recv_key else None
        consumed: Set[int] = set()
        created: Optional[int] = None

        req_args = [t for t, _ in arg_tokens
                    if self.tokens[t].kind == "request"]
        if isinstance(func, ast.Name) and func.id in _REQUEST_CLASSES:
            created = self._new_token("request", node, "", st)
        elif m in _CREATOR_METHODS and kind in ("ep", None):
            created = self._new_token("request", node, recv_key or "", st)
        elif m in ("wait", "test") and req_args:
            for tid in req_args:
                cur = st.tokens.get(tid)
                if m == "wait":
                    if cur == "waited":
                        self._flag(
                            "P202", node,
                            "request waited twice; the second wait "
                            "deadlocks or consumes another completion")
                    st.tokens[tid] = "waited"
                elif cur != "waited":
                    st.tokens[tid] = "tested"
                consumed.add(tid)
        elif m == "on_complete" and isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name) \
                and st.vars.get(func.value.id) is not None:
            # registering a completion callback hands the request to
            # the progress engine
            rtid = st.vars[func.value.id]
            if self.tokens[rtid].kind == "request":
                st.tokens[rtid] = "handed"
        elif kind == "pool" and m == "alloc":
            created = self._new_token("budget", node, recv_key, st)
        elif kind == "pool" and m == "make_packet":
            budget = None
            for tid in sorted(self.tokens, reverse=True):
                tok = self.tokens[tid]
                if tok.kind == "budget" and tok.key == recv_key and \
                        st.tokens.get(tid) == "live":
                    budget = tid
                    break
            created = self._new_token("packet", node, recv_key, st,
                                      budget=budget)
        elif kind == "pool" and m in _POOL_RELEASES:
            self._apply_pool_free(node, st, recv_key)
            consumed.update(t for t, _ in arg_tokens)
        elif kind == "pool" and m == "retire":
            for tid, _ in arg_tokens:
                if self.tokens[tid].kind == "packet":
                    st.tokens[tid] = "freed"
                    consumed.add(tid)
        elif kind == "window" and m in _WINDOW_OPS:
            self._apply_window_op(node, st, recv_key, m)
        elif kind == "layer" and m in _LAYER_OPS:
            self._apply_layer_op(node, st, recv_key, m)
        elif kind in ("cq", "layer") and m in _CQ_SHUT_OPS:
            st.set_machine(recv_key, "cq", "shut")
            self._shut_sites.setdefault(recv_key, node)
        elif kind == "cq" and m in _CQ_POLL_OPS:
            self._check_require(node, st, recv_key, "cq", "P208", m)

        if m in ("wait", "test") and kind in ("ep", None):
            for a in node.args:
                if isinstance(a, ast.Name) and a.id in self._param_set:
                    self._released_params.add(a.id)
                    break

        callee = self._resolve_callee(func, recv_key)
        if callee is not None:
            summ = self.program.summaries.get(self.program.key_of(callee))
            if summ is not None:
                made = self._apply_summary(
                    node, st, summ, callee, recv_key, arg_nodes,
                    consumed)
                if created is None:
                    created = made

        for tid, _arg in arg_tokens:
            if tid in consumed or tid == created:
                continue
            self._escape_token(tid, st, strong=(m in _STORE_METHODS))
        return created

    def _escape_token(self, tid: int, st: _State, strong: bool) -> None:
        tok = self.tokens[tid]
        cur = st.tokens.get(tid)
        if cur in ("handed", "escaped", "freed", "waited", "void"):
            return
        if tok.kind == "request":
            st.tokens[tid] = "escaped"
            return
        status = "escaped" if strong else "weak"
        st.tokens[tid] = status
        if tok.kind == "packet" and tok.budget is not None:
            bcur = st.tokens.get(tok.budget)
            if bcur in ("live", "maybe", "weak"):
                st.tokens[tok.budget] = status

    def _apply_pool_free(self, node: ast.Call, st: _State,
                         key: str) -> None:
        budgets = [(tid, st.tokens.get(tid))
                   for tid in sorted(self.tokens)
                   if self.tokens[tid].kind == "budget"
                   and self.tokens[tid].key == key
                   and tid in st.tokens]
        if not budgets:
            return                      # freeing a non-local budget
        for want in ("live", "maybe", "handed", "weak"):
            for tid, cur in reversed(budgets):
                if cur == want:
                    st.tokens[tid] = "freed"
                    return
        statuses = {cur for _, cur in budgets}
        if "escaped" in statuses:
            self._flag(
                "P207", node,
                "freeing a packet budget whose packet escaped into a "
                "container/attribute; the owner will free it again")
        elif "freed" in statuses:
            self._flag(
                "P207", node,
                "double free of a packet budget: every budget "
                "allocated on this path is already freed")

    def _check_require(self, node: ast.AST, st: _State, key: str,
                       proto: str, rule: str, opname: str) -> None:
        cur = st.get_machine(key, proto)
        if cur == _BAD_STATE[proto]:
            self._flag(rule, node, _REQUIRE_MSG[rule].format(
                op=opname, key=key))
        elif cur == "?":
            root = self._root_of(key)
            if root is not None:
                self.summary.requires.append(
                    (root[0], root[1], proto, rule, opname))

    def _apply_window_op(self, node: ast.Call, st: _State,
                         key: str, m: str) -> None:
        if m == "start":
            st.set_machine(key, "access", "open")
        elif m == "complete":
            st.set_machine(key, "access", "closed")
            self._completed.add(key)
        elif m == "put":
            self._check_require(node, st, key, "access", "P204", "put")
        elif m == "post":
            if st.get_machine(key, "exposure") == "open":
                self._flag(
                    "P205", node,
                    "nested post(): the exposure epoch is already open")
            st.set_machine(key, "exposure", "open")
            self._posted.setdefault(key, node)
        elif m == "wait":
            if st.get_machine(key, "exposure") == "closed":
                self._flag(
                    "P205", node,
                    "wait() without a matching post(): the exposure "
                    "epoch is closed on every path reaching here")
            st.set_machine(key, "exposure", "closed")
        elif m == "test_wait":
            if st.get_machine(key, "exposure") == "closed":
                self._flag(
                    "P205", node,
                    "test_wait() without a matching post(): the "
                    "exposure epoch is closed here")
        elif m == "finish_exposure":
            if st.get_machine(key, "exposure") == "closed":
                self._flag(
                    "P205", node,
                    "finish_exposure() on an exposure epoch that is "
                    "already closed")
            st.set_machine(key, "exposure", "closed")

    def _apply_layer_op(self, node: ast.Call, st: _State,
                        key: str, m: str) -> None:
        if m == "phase_begin":
            st.set_machine(key, "phase", "open")
            st.unflushed[key] = 0
        elif m == "send":
            cur = st.get_machine(key, "phase")
            if cur == "open":
                st.unflushed[key] = st.unflushed.get(key, 0) + 1
            else:
                self._check_require(node, st, key, "phase", "P209",
                                    "send")
        elif m in ("collect", "collect_some"):
            self._check_require(node, st, key, "phase", "P210", m)
        elif m == "flush":
            st.unflushed[key] = 0
        elif m == "phase_end":
            if st.get_machine(key, "phase") == "open" and \
                    st.unflushed.get(key, 0) > 0:
                self._flag(
                    "P211", node,
                    f"phase_end() with {st.unflushed[key]} send(s) "
                    "not flushed; remote completion is not guaranteed "
                    "without flush()")
            st.set_machine(key, "phase", "closed")
            st.unflushed[key] = 0
        elif m == "shutdown":
            st.set_machine(key, "cq", "shut")
            self._shut_sites.setdefault(key, node)

    # -- interprocedural -----------------------------------------------
    def _resolve_callee(self, func: ast.expr,
                        recv_key: Optional[str]) -> Optional[_FuncInfo]:
        if isinstance(func, ast.Name):
            if func.id in self.program.classes:
                return None             # constructor, not a call target
            return self.program.resolve_unique(func.id,
                                              module=self.fn.path)
        if not isinstance(func, ast.Attribute):
            return None
        m = func.attr
        if recv_key == "self":
            return self.program.resolve_method(self.fn.cls, m)
        head = (recv_key or "").split(".")[0].replace("[]", "")
        if head in self.var_classes:
            found = self.program.resolve_method(self.var_classes[head], m)
            if found is not None:
                return found
        cands = self.program.by_name.get(m, [])
        return cands[0] if len(cands) == 1 else None

    def _apply_summary(self, node: ast.Call, st: _State,
                       summ: _Summary, callee: _FuncInfo,
                       recv_key: Optional[str],
                       arg_nodes: List[ast.expr],
                       consumed: Set[int]) -> Optional[int]:
        bound = isinstance(node.func, ast.Attribute)
        params = callee.params
        arg_by_param: Dict[str, ast.expr] = {}
        pos_args = [a.value if isinstance(a, ast.Starred) else a
                    for a in node.args]
        if not bound and callee.cls is not None and pos_args:
            pos_args = pos_args[1:]     # unbound Class.method(obj, ...)
        for pname, a in zip(params, pos_args):
            arg_by_param[pname] = a
        for kw in node.keywords:
            if kw.arg:
                arg_by_param[kw.arg] = kw.value
        for pname in summ.releases:
            a = arg_by_param.get(pname)
            if a is None:
                continue
            if isinstance(a, ast.Name):
                tid = st.vars.get(a.id)
                if tid is not None and \
                        self.tokens[tid].kind == "request":
                    if st.tokens.get(tid) != "waited":
                        st.tokens[tid] = "tested"
                    consumed.add(tid)
                elif a.id in self._param_set:
                    self._released_params.add(a.id)
        for root, sub, proto, state in summ.effects:
            base = recv_key if root == "self" else (
                _expr_key(arg_by_param[root])
                if root in arg_by_param else None)
            if base is None:
                continue
            st.set_machine(base + sub, proto, state)
            if state == "shut":
                self._shut_sites.setdefault(base + sub, node)
        for root, sub, proto, rule, opname in summ.requires:
            base = recv_key if root == "self" else (
                _expr_key(arg_by_param[root])
                if root in arg_by_param else None)
            if base is None:
                continue
            self._check_require(node, st, base + sub, proto, rule,
                                opname)
        if summ.creates is not None:
            return self._new_token(summ.creates, node, recv_key or "",
                                   st)
        return None

    # -- end-of-function checks + summary ------------------------------
    def _finalize(self) -> None:
        normal = [(n, s) for n, s, k in self.exits
                  if k in ("return", "end")]
        for tid in sorted(self.tokens):
            tok = self.tokens[tid]
            stats = [(n, s.tokens[tid]) for n, s in normal
                     if tid in s.tokens]
            if not stats:
                continue
            vals = [v for _, v in stats]
            if tok.kind == "request":
                if all(v == "live" for v in vals):
                    self._flag(
                        "P201", tok.node,
                        "nonblocking request is never waited, tested, "
                        "or handed off; its completion is lost")
                elif any(v in ("live", "maybe") for v in vals):
                    bad = next(n for n, v in stats
                               if v in ("live", "maybe"))
                    self._flag(
                        "P203", bad,
                        "a return path leaks a live request that other "
                        "paths wait for; wait or store it before "
                        "returning")
            elif tok.kind == "budget":
                if any(v == "live" for v in vals):
                    self._flag(
                        "P206", tok.node,
                        "packet budget allocated here is never freed "
                        "or handed off; the pool leaks one credit")
                elif any(v == "maybe" for v in vals):
                    self._flag(
                        "P206", tok.node,
                        "packet budget allocated here is not freed on "
                        "every path")
        joined = _join_states([s for _, s in normal])
        if joined is not None:
            for key, pnode in self._posted.items():
                if key in self._completed and \
                        joined.get_machine(key, "exposure") == "open":
                    self._flag(
                        "P205", pnode,
                        "post() opens an exposure epoch that no path "
                        "closes, although the access epoch completes; "
                        "add wait()/finish_exposure()")
        for key, _snode in self._shut_sites.items():
            shut = [n for n, s in normal
                    if s.get_machine(key, "cq") == "shut"]
            unshut = [n for n, s in normal
                      if key in s.machines
                      and s.get_machine(key, "cq") != "shut"]
            if shut and unshut:
                self._flag(
                    "P211", unshut[0],
                    f"this teardown path exits without shutting down "
                    f"'{key}' while a sibling path calls shutdown()")
        # summary construction
        self.summary.releases = set(self._released_params)
        if joined is not None:
            entry = getattr(self, "_entry_machines", {})
            for key, protos in joined.machines.items():
                root = self._root_of(key)
                if root is None:
                    continue
                for proto, state in protos.items():
                    if state == "?":
                        continue
                    if entry.get(key, {}).get(proto, "?") != state:
                        self.summary.effects.append(
                            (root[0], root[1], proto, state))


_REQUIRE_MSG = {
    "P204": "put() on '{key}' outside its start/complete access epoch",
    "P208": "{op}() on '{key}' after it was shut down",
    "P209": "send() on '{key}' outside a phase_begin/phase_end window",
    "P210": "{op}() on '{key}' for a phase that is not open here",
}


# ----------------------------------------------------------------------
# P212: stale writes across yields in concurrent process generators
# ----------------------------------------------------------------------
def _walk_local(node):
    """AST walk that does not descend into nested defs/lambdas."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        n = stack.pop()
        yield n
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                          ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(n))


def _race_pass(path: str, tree: ast.Module) -> List[ProtoFinding]:
    findings: List[ProtoFinding] = []
    spawned: Set[str] = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "process" and node.args):
            a0 = node.args[0]
            if isinstance(a0, ast.Call):
                if isinstance(a0.func, ast.Attribute):
                    spawned.add(a0.func.attr)
                elif isinstance(a0.func, ast.Name):
                    spawned.add(a0.func.id)
    for cls in [n for n in ast.walk(tree)
                if isinstance(n, ast.ClassDef)]:
        methods = {m.name: m for m in cls.body
                   if isinstance(m, (ast.FunctionDef,
                                     ast.AsyncFunctionDef))}
        gens = {name for name, fn in methods.items()
                if any(isinstance(x, (ast.Yield, ast.YieldFrom))
                       for x in _walk_local(fn))}
        proc = {name for name in gens if name in spawned}
        for _ in range(3):              # reachable via self-calls
            for name in sorted(proc):
                for x in _walk_local(methods[name]):
                    if (isinstance(x, ast.Call)
                            and isinstance(x.func, ast.Attribute)
                            and isinstance(x.func.value, ast.Name)
                            and x.func.value.id == "self"
                            and x.func.attr in gens):
                        proc.add(x.func.attr)
        writers: Dict[str, Set[str]] = {}
        for name in proc:
            for x in _walk_local(methods[name]):
                if isinstance(x, (ast.Assign, ast.AugAssign,
                                  ast.AnnAssign)):
                    targets = (x.targets if isinstance(x, ast.Assign)
                               else [x.target])
                    for t in targets:
                        if (isinstance(t, ast.Attribute)
                                and isinstance(t.value, ast.Name)
                                and t.value.id == "self"):
                            writers.setdefault(t.attr, set()).add(name)
        for name in sorted(proc):
            fn = methods[name]
            yields = sorted(x.lineno for x in _walk_local(fn)
                            if isinstance(x, (ast.Yield,
                                              ast.YieldFrom)))
            for x in _walk_local(fn):
                if not isinstance(x, ast.Assign):
                    continue
                for t in x.targets:
                    if not (isinstance(t, ast.Attribute)
                            and isinstance(t.value, ast.Name)
                            and t.value.id == "self"):
                        continue
                    others = writers.get(t.attr, set()) - {name}
                    if not others:
                        continue
                    reads = [r.lineno for r in _walk_local(fn)
                             if isinstance(r, ast.Attribute)
                             and r.attr == t.attr
                             and isinstance(r.value, ast.Name)
                             and r.value.id == "self"
                             and isinstance(r.ctx, ast.Load)
                             and r.lineno <= x.lineno]
                    if not reads:
                        continue
                    last_read = max(reads)
                    if any(last_read < y < x.lineno for y in yields):
                        other = ", ".join(sorted(others))
                        findings.append(ProtoFinding(
                            "P212", path, t.lineno, t.col_offset,
                            f"self.{t.attr} is written from a value "
                            f"read before a yield, but '{other}' also "
                            "writes it from a concurrent process "
                            "generator; re-read it after the yield or "
                            "update it atomically",
                            f"{cls.name}.{name}"))
    return findings


# ----------------------------------------------------------------------
# Suppressions and drivers
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


def analyze_modules(
        modules: Sequence[Tuple[str, str]]) -> AnalysisResult:
    """Whole-program analysis over (path, source) pairs."""
    program = _Program(modules)
    findings = program.run()
    supp = {path: _suppressions(source)
            for path, source, _tree in program.modules}
    kept: List[ProtoFinding] = []
    suppressed = 0
    for f in findings:
        rules = supp.get(f.path, {}).get(f.line, ())
        if "all" in rules or f.rule in rules:
            suppressed += 1
        else:
            kept.append(f)
    return AnalysisResult(kept, len(program.modules), suppressed)


def analyze_source(source: str,
                   path: str = "<memory>") -> List[ProtoFinding]:
    return analyze_modules([(path, source)]).findings


def analyze_paths(paths: Sequence) -> AnalysisResult:
    files = list(_iter_python_files(paths))
    return analyze_modules([(str(p), Path(p).read_text())
                            for p in files])


def analyze_repo() -> AnalysisResult:
    return analyze_paths([repo_package_root()])


def report_dict(result: AnalysisResult) -> Dict:
    from repro.sanitize.report import make_report

    return make_report("repro-analyze", RULES, result.findings,
                       files_checked=result.files_checked,
                       suppressed=result.suppressed)


def format_findings(result: AnalysisResult) -> str:
    lines = [str(f) for f in result.findings]
    lines.append(
        f"{len(result.findings)} finding(s) in {result.files_checked} "
        f"file(s), {result.suppressed} suppressed")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Baseline: accepted findings keyed by (rule, path, symbol)
# ----------------------------------------------------------------------
def normalize_path(path: str) -> str:
    """Package-relative path (stable across checkouts/venvs)."""
    parts = Path(path).parts
    if "repro" in parts:
        idx = len(parts) - 1 - tuple(reversed(parts)).index("repro")
        rest = parts[idx + 1:]
        if rest:
            return "/".join(rest)
    return "/".join(parts)


def _baseline_key(entry: Dict) -> Tuple[str, str, str]:
    return (entry["rule"], entry["path"], entry.get("symbol", ""))


def _finding_key(f: ProtoFinding) -> Tuple[str, str, str]:
    return (f.rule, normalize_path(f.path), f.symbol)


def load_baseline(path) -> List[Dict]:
    with open(path) as fh:
        doc = json.load(fh)
    return list(doc.get("accepted", []))


def save_baseline(findings: Sequence[ProtoFinding], path,
                  justification: str = "TODO: justify") -> str:
    entries: Dict[Tuple[str, str, str], Dict] = {}
    for f in findings:
        key = _finding_key(f)
        entries.setdefault(key, {
            "rule": f.rule,
            "path": normalize_path(f.path),
            "symbol": f.symbol,
            "message": f.message,
            "justification": justification,
        })
    doc = {
        "tool": "repro-analyze",
        "accepted": [entries[k] for k in sorted(entries)],
    }
    return atomic_write_text(path, canonical_json(doc))


def diff_baseline(
        findings: Sequence[ProtoFinding],
        accepted: Sequence[Dict],
) -> Tuple[List[ProtoFinding], List[Dict]]:
    """(new findings not in the baseline, stale baseline entries)."""
    accepted_keys = {_baseline_key(e) for e in accepted}
    found_keys = {_finding_key(f) for f in findings}
    new = [f for f in findings if _finding_key(f) not in accepted_keys]
    stale = [e for e in accepted if _baseline_key(e) not in found_keys]
    return new, stale
