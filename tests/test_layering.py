"""Source-level rules, checked with ``ast`` — and one on what an
import drags in, checked in a fresh interpreter.

The simulated runtimes never import their instruments: contexts are
assigned onto the fabric and read back as plain attributes.  The setup
path and the per-round array kernels call none of NumPy's set
operations.  Importing the package loads neither scipy nor networkx.
The kernel has one event queue with no geometry to set, and the
libraries build plain records: no free-lists, no rebound hook slots.
Components count in ``int`` attributes (no registry object, no
``stats=`` / ``tracer=`` parameter) that the engine reads once, at the
end of a run (no counter callbacks), ``repro.sim`` writes no files, one
function in the package creates temp files and one encodes committed
JSON, and the traffic gate lives in ``BENCH_core.json`` alone.
"""

import ast
import inspect
import re
import subprocess
import sys
from pathlib import Path

import repro
from repro.bench.scenarios import build_engine
from repro.sim.engine import Environment

RUNTIME_PACKAGES = ("sim", "netapi", "lci", "mpi", "comm", "engine")


def test_runtime_packages_do_not_import_obs():
    root = Path(repro.__file__).parent
    offenders = []
    for package in RUNTIME_PACKAGES:
        for path in sorted((root / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [f"{node.module}.{a.name}" for a in node.names]
                else:
                    continue
                offenders += [f"{path.relative_to(root)}: {name}"
                              for name in names
                              if (name + ".").startswith("repro.obs.")]
    assert offenders == []


#: NumPy's sort- or hash-based set operations.  On the setup path and in
#: the per-round kernels a bitmap or one grouping sort does the same job
#: (``graph.csr.stable_argsort``, ``engine.vertex_program.sorted_unique``)
#: at a fraction of the cost, and does not change speed with the NumPy
#: release; ``reference()`` solvers are off the clock and may use them.
SET_OPERATIONS = {"unique", "union1d", "setdiff1d", "intersect1d", "isin"}
ARRAY_KERNEL_SOURCES = (
    "apps", "engine", "serve/programs.py", "graph/csr.py", "graph/partition",
)


def _set_operation_calls(tree):
    """(line, name) of every set-operation call outside ``reference``."""
    def walk(node, in_reference):
        for child in ast.iter_child_nodes(node):
            inside = in_reference or (
                isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                and child.name == "reference"
            )
            if not inside and isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "attr", getattr(func, "id", None))
                if name in SET_OPERATIONS:
                    yield child.lineno, name
            yield from walk(child, inside)
    return list(walk(tree, False))


def test_array_kernels_call_no_numpy_set_operations():
    root = Path(repro.__file__).parent
    offenders = []
    for source in ARRAY_KERNEL_SOURCES:
        target = root / source
        paths = sorted(target.rglob("*.py")) if target.is_dir() else [target]
        assert paths, source
        for path in paths:
            offenders += [
                f"{path.relative_to(root)}:{line}: {name}"
                for line, name in _set_operation_calls(
                    ast.parse(path.read_text()))
            ]
    assert offenders == []


def test_set_operation_check_sees_calls_but_not_references():
    tree = ast.parse(
        "import numpy as np\n"
        "from numpy import isin\n"
        "def compute(x):\n"
        "    return np.unique(x), isin(x, x)\n"
        "class App:\n"
        "    def reference(self, x):\n"
        "        def helper():\n"
        "            return np.union1d(x, x)\n"
        "        return np.unique(x)\n"
    )
    assert _set_operation_calls(tree) == [(4, "unique"), (4, "isin")]


def test_environment_takes_a_start_time_and_nothing_else():
    parameters = inspect.signature(Environment.__init__).parameters.values()
    assert [(p.name, p.default) for p in parameters] == [
        ("self", inspect.Parameter.empty), ("initial_time", 0.0)]


#: Records are built per message and freed by reference count (measured
#: equal to recycling them, MODEL.md §13.3), and an attached instrument
#: is read where it is used, never bound in as a different method.
#: ``Packet.alloc`` / ``recycle`` stay for ``benchmarks/perf/probes.py``.
LIFECYCLE_HOOKS = {"touch", "retire", "reclaim"}


def _recycling_and_rebinding(tree):
    """(line, what) of every class-level ``_free`` list, ``recycle``
    method and assignment to an instance attribute named like a packet
    lifecycle hook."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [getattr(stmt, "target", None)])
                if any(isinstance(t, ast.Name) and t.id == "_free"
                       for t in targets):
                    yield stmt.lineno, f"{node.name}._free"
                if (isinstance(stmt, ast.FunctionDef)
                        and stmt.name == "recycle"):
                    yield stmt.lineno, f"{node.name}.recycle"
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for t in targets:
                if isinstance(t, ast.Attribute) and t.attr in LIFECYCLE_HOOKS:
                    yield node.lineno, f"assigns .{t.attr}"


def test_libraries_recycle_no_records_and_rebind_no_hooks():
    root = Path(repro.__file__).parent
    offenders = []
    for package in ("sim", "netapi", "lci", "mpi"):
        for path in sorted((root / package).rglob("*.py")):
            if path.relative_to(root).as_posix() == "netapi/packet.py":
                continue
            offenders += [
                f"{path.relative_to(root)}:{line}: {what}"
                for line, what in _recycling_and_rebinding(
                    ast.parse(path.read_text()))
            ]
    assert offenders == []


def test_recycling_check_sees_free_lists_recycle_methods_and_rebinding():
    tree = ast.parse(
        "class Entry:\n"
        "    _free: list = []\n"
        "    def recycle(self):\n"
        "        Entry._free.append(self)\n"
        "class Pool:\n"
        "    _free = []\n"
        "    def __init__(self):\n"
        "        self._free = 4\n"
        "        self.retire = self._retire_fast\n"
        "    def touch(self, pkt):\n"
        "        pass\n"
    )
    assert list(_recycling_and_rebinding(tree)) == [
        (2, "Entry._free"), (3, "Entry.recycle"), (6, "Pool._free"),
        (9, "assigns .retire"),
    ]


#: Counts live on the component that makes them and spans go to the
#: ``ObsContext`` on the fabric, so nothing hands a recorder around.
RECORDER_PARAMETERS = {"stats", "stats_prefix", "tracer"}


def _recorder_plumbing(tree):
    """(line, what) of every ``StatRegistry`` name, recorder parameter
    and ``x.stats.y`` / ``x.stats = ...`` use (``cache.stats()`` is a
    method call and is none of these)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs:
                if arg.arg in RECORDER_PARAMETERS:
                    yield arg.lineno, f"parameter {arg.arg}"
        elif isinstance(node, ast.Name) and node.id == "StatRegistry":
            yield node.lineno, "StatRegistry"
        elif isinstance(node, ast.alias) and node.name == "StatRegistry":
            yield node.lineno, "StatRegistry"
        elif isinstance(node, ast.ClassDef) and node.name == "StatRegistry":
            yield node.lineno, "StatRegistry"
        elif isinstance(node, ast.Attribute):
            inner = node.value
            if isinstance(inner, ast.Attribute) and inner.attr == "stats":
                yield node.lineno, f".stats.{node.attr}"
            if node.attr == "stats" and isinstance(node.ctx, ast.Store):
                yield node.lineno, "assigns .stats"


def test_no_counter_registry_and_no_recorder_parameters():
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        offenders += [
            f"{path.relative_to(root)}:{line}: {what}"
            for line, what in _recorder_plumbing(ast.parse(path.read_text()))
        ]
    assert offenders == []


def test_recorder_check_sees_registries_parameters_and_stats_chains():
    tree = ast.parse(
        "from repro.sim.monitor import StatRegistry\n"
        "class Nic:\n"
        "    def __init__(self, env, stats=None, *, tracer=None):\n"
        "        self.stats = stats or StatRegistry('nic')\n"
        "        self.sent = self.stats.counter('sent')\n"
        "    def report(self, cache):\n"
        "        return cache.stats(), self.sent\n"
    )
    assert sorted(_recorder_plumbing(tree)) == [
        (1, "StatRegistry"), (3, "parameter stats"), (3, "parameter tracer"),
        (4, "StatRegistry"), (4, "assigns .stats"), (5, ".stats.counter"),
    ]


#: The second counter system (a registry fed by per-component callbacks
#: and settled at the end of a run), the one-field config objects and
#: the static determinism lint with its SARIF writer and suppression
#: comments.  Work counts are read once, off the finished engine
#: (``BspEngine.work_counts()``); the constants live where they are
#: used; determinism is checked by running (``tests/test_determinism.py``).
RETIRED = re.compile(r"\b(add_source|settle|_profile_counts|CounterRegistry"
                     r"|ObsConfig|SanitizerConfig"
                     r"|repro\.sanitize\.(lint|runtime)|lint-ok"
                     r"|ORDER_SENSITIVE_DIRS|save_sarif)\b")


def test_no_second_counter_system_and_no_config_objects():
    root = Path(repro.__file__).parent
    offenders = [
        f"{path.relative_to(root)}:{line}: {match.group()}"
        for path in sorted(root.rglob("*.py"))
        for line, text in enumerate(path.read_text().splitlines(), 1)
        for match in RETIRED.finditer(text)
    ]
    assert offenders == []


SANITIZER_LISTS = re.compile(
    r"\b(sanitizer_violations|sanitizer_mode|format_violations)\b")


def test_one_sanitizer_mode_that_raises_where_it_finds():
    # A violation raises SanitizerError at its detection point; no
    # "warn" mode, and no violation list threaded through the reports.
    root = Path(repro.__file__).parent
    offenders = [
        f"{path.relative_to(root)}:{line}: {match.group()}"
        for path in sorted(root.rglob("*.py"))
        for line, text in enumerate(path.read_text().splitlines(), 1)
        for match in SANITIZER_LISTS.finditer(text)
    ] + [
        f"{path.relative_to(root)}:{node.lineno}: 'warn'"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and node.value == "warn"
    ]
    assert offenders == []


#: The switch that armed the per-event checks and the plumbing behind
#: it: the checks now run on every run, inside the components.
CHECK_SWITCH = re.compile(
    r"\b(REPRO_SANITIZE|resolve_mode|SanitizerContext|LciSanitizer"
    r"|MpiSanitizer|WindowSanitizer)\b|\bfabric\.sanitizer\b")


def _environment_reads(tree):
    """Lines of every ``os.environ`` / ``os.getenv`` use."""
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
                and node.attr in ("environ", "getenv"))
            or (isinstance(node, ast.ImportFrom) and node.module == "os"
                and any(a.name in ("environ", "getenv")
                        for a in node.names))]


def test_protocol_checks_are_not_a_mode():
    # Every per-event rule is checked inline by the pool, endpoint or
    # window that owns the state, so nothing arms them, and the package
    # reads no environment variable at all.
    root = Path(repro.__file__).parent
    offenders = [
        f"{path.relative_to(root)}:{line}: {match.group()}"
        for path in sorted(root.rglob("*.py"))
        for line, text in enumerate(path.read_text().splitlines(), 1)
        for match in CHECK_SWITCH.finditer(text)
    ] + [
        f"{path.relative_to(root)}:{line}: environment read"
        for path in sorted(root.rglob("*.py"))
        for line in _environment_reads(ast.parse(path.read_text()))
    ]
    assert offenders == []


def test_environment_reads_are_found():
    tree = ast.parse(
        "import os\n"
        "from os import getenv\n"
        "a = os.environ.get('X')\n"
        "b = os.getenv('Y')\n"
        "c = 'os.environ'\n"
    )
    assert sorted(_environment_reads(tree)) == [2, 3, 4]


SHUTDOWN_AUDITS = re.compile(
    r"\b(finalize_check|check_finalize|check_shutdown|on_send)\b")


def test_conservation_is_audited_once_at_the_end_of_the_run():
    # conservation_audit reads the components after BspEngine.run(); no
    # layer audits at shutdown and no sanitizer shadows the send list.
    root = Path(repro.__file__).parent
    offenders = [
        f"{path.relative_to(root)}:{line}: {match.group()}"
        for path in sorted(root.rglob("*.py"))
        for line, text in enumerate(path.read_text().splitlines(), 1)
        for match in SHUTDOWN_AUDITS.finditer(text)
    ]
    assert offenders == []


def _counter_reads(tree):
    """Lines of every ``x.counters`` attribute read."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "counters"]


def test_the_kernel_never_reads_the_profiler_counters():
    # The run loop adds to its own two ints; the engine reads them.
    path = Path(repro.__file__).parent / "sim" / "engine.py"
    assert _counter_reads(ast.parse(path.read_text())) == []
    assert _counter_reads(ast.parse(
        "prof = env.profiler\n"
        "if prof is not None:\n"
        "    prof.counters['sim.events_fired'] += count\n"
    )) == [3]


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module


def test_sim_writes_no_files_and_one_function_makes_temp_files():
    root = Path(repro.__file__).parent
    sim_imports = {
        module
        for path in (root / "sim").rglob("*.py")
        for module in _imported_modules(ast.parse(path.read_text()))
    }
    assert not sim_imports & {"json", "tempfile"}
    mkstemp_sites = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None))
        == "mkstemp"
    ]
    assert len(mkstemp_sites) == 1, mkstemp_sites
    assert mkstemp_sites[0].startswith("obs/atomic.py:")


def _canonical_dumps_calls(tree):
    """Lines of every ``json.dumps(..., sort_keys=True, indent=2)``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "dumps"):
            kw = {k.arg: getattr(k.value, "value", None)
                  for k in node.keywords}
            if kw.get("sort_keys") is True and kw.get("indent") == 2:
                yield node.lineno


def test_one_function_encodes_committed_json():
    root = Path(repro.__file__).parent
    sites = [
        f"{path.relative_to(root).as_posix()}:{line}"
        for path in sorted(root.rglob("*.py"))
        for line in _canonical_dumps_calls(ast.parse(path.read_text()))
    ]
    assert len(sites) == 1, sites
    assert sites[0].startswith("obs/atomic.py:")


def test_no_second_traffic_baseline():
    # bench-core's sim.comm blocks are the one comm gate; the retired
    # per-scenario copy must not come back under any name.
    name = "COMM_" + "BASELINE"
    repo = Path(__file__).resolve().parents[1]
    offenders = [
        str(path.relative_to(repo))
        for top in ("src", "tests", ".github")
        for path in sorted((repo / top).rglob("*"))
        if path.is_file() and path.suffix != ".pyc"
        and name in path.read_text(errors="ignore")
    ]
    assert offenders == []
    assert not (repo / (name + ".json")).exists()


def test_build_engine_takes_the_scenario_and_keywords():
    positional = [
        p.name for p in inspect.signature(build_engine).parameters.values()
        if p.kind is not inspect.Parameter.KEYWORD_ONLY
    ]
    assert positional == ["sc"]


def test_importing_the_package_loads_no_heavy_optional_dependency():
    # scipy (0.15 s, 24 MiB) is only `reference()` solvers' business;
    # a run, a sweep, the service and every benchmark child must start
    # without it.
    probe = (
        "import sys\n"
        "import repro.cli, repro.apps, repro.serve, repro.bench.scenarios\n"
        "print(sorted({'scipy', 'networkx'} & set(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
