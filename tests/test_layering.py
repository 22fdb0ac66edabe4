"""The simulated runtimes never import their instruments: contexts are
assigned onto the fabric and read back as plain attributes."""

import ast
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
