"""Source-level rules, checked with ``ast`` — and one on what an
import drags in, checked in a fresh interpreter.

The simulated runtimes never import their instruments: contexts are
assigned onto the fabric and read back as plain attributes.  The setup
path and the per-round array kernels call none of NumPy's set
operations.  Importing the package loads neither scipy nor networkx.
"""

import ast
import subprocess
import sys
from pathlib import Path

import repro

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
