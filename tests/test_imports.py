"""The package's import graph: module-level imports only, and no cycles."""

import ast
import graphlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pinncert"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _intra_package_targets(node):
    """Package modules that an import statement names, or an empty list."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 0 and not (node.module or "").startswith("pinncert"):
            return []
        module = (node.module or "").removeprefix("pinncert").lstrip(".")
        if module:
            return [module.split(".")[0]]
        return [a.name if a.name in MODULES else "__init__" for a in node.names]
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] if "." in a.name else "__init__"
                for a in node.names if a.name.split(".")[0] == "pinncert"]
    return []


def _parse(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text(), filename=f"{name}.py")


def test_no_intra_package_import_inside_a_function():
    local = []
    for name in sorted(MODULES):
        for fn in ast.walk(_parse(name)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local += [f"{name}.py:{node.lineno}" for node in ast.walk(fn)
                          if _intra_package_targets(node)]
    assert local == []


def test_intra_package_import_graph_is_acyclic():
    graph = {name: {target for node in ast.walk(_parse(name))
                    for target in _intra_package_targets(node)}
             for name in MODULES}
    assert all(targets <= MODULES for targets in graph.values()), graph
    order = list(graphlib.TopologicalSorter(graph).static_order())   # CycleError on a cycle
    assert set(order) == MODULES
