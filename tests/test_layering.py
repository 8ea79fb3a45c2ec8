"""The package's modules form layers: every intra-package import sits at
module level, and the import graph between modules has no cycle.  Importing
the CLI pulls in no standard-library module that no cold request needs."""

import ast
import graphlib
import subprocess
import sys
from pathlib import Path

import braidrep

PACKAGE = Path(braidrep.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}


def _package_imports(node: ast.AST) -> set[str]:
    """The package modules, by file stem, that an import statement reads."""
    if isinstance(node, ast.ImportFrom):
        if node.level:
            dotted = node.module
        elif (node.module or "").split(".")[0] == "braidrep":
            dotted = node.module.partition(".")[2]
        else:
            return set()
        return {dotted.split(".")[0]} if dotted else {alias.name for alias in node.names}
    if isinstance(node, ast.Import):
        names = [alias.name.split(".") for alias in node.names]
        return {(parts + ["__init__"])[1] for parts in names if parts[0] == "braidrep"}
    return set()


def test_no_package_import_inside_a_function():
    inside = [
        (name, node.lineno)
        for name, tree in MODULES.items()
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if _package_imports(node)
    ]
    assert inside == []


def test_intra_package_imports_are_acyclic():
    graph = {
        name: {module for node in ast.walk(tree) for module in _package_imports(node)}
        for name, tree in MODULES.items()
    }
    assert set().union(*graph.values()) <= set(MODULES)
    # static_order raises graphlib.CycleError on a cycle
    list(graphlib.TopologicalSorter(graph).static_order())
    # the normal forms sit below the representations they are checked against
    assert graph["garside"].isdisjoint({"laurent", "matrix", "lkb"})


def test_cold_cli_import_loads_no_dataclasses_or_json():
    # counted in modules, not milliseconds, so a slow host cannot flake it;
    # -S keeps site-packages (and what it imports) out of the count
    code = "import sys; sys.path.insert(0, sys.argv[1]); import braidrep.cli; print(*sys.modules)"
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    loaded = set(done.stdout.split())
    assert "braidrep.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "json"})
