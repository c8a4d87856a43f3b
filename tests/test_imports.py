"""The package's import graph (module-level imports only, no cycles) and what
the reference solves load."""

import ast
import graphlib
import os
import subprocess
import sys
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


def test_training_and_the_error_fit_take_gradients_from_parameter_gradient():
    # one reverse route: the sweep and the kernels' pulls run inside
    # network.parameter_gradient, never through autodiff.backward directly
    for name in ("train", "surrogate"):
        tree = _parse(name)
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[-1] == "autodiff" for alias in node.names}
        called = {ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        assert "backward" not in imported, name
        assert not {"backward", "autodiff.backward"} & called, name
        assert "parameter_gradient" in called, name


def test_reference_solves_do_not_load_scipy_integrate(tmp_path):
    # scipy.integrate alone would add about 50 MB to a process's peak RSS
    code = """if True:
        import sys
        import numpy as np
        from pinncert.certify import actual_error
        from pinncert.cli import main
        from pinncert.network import init_network
        from pinncert.ode import inverted_pendulum
        assert main(["schedule", sys.argv[1]]) == 0
        net = init_network([6, 8, 4], seed=0, meta={"inputs": ["t", "x0", "u"]})
        rng = np.random.default_rng(0)
        err = actual_error(net, inverted_pendulum(), rng.uniform(-1, 1, (3, 4)),
                           rng.uniform(-5, 5, (3, 1)), np.linspace(0.0, 0.08, 20))
        assert err.shape == (3, 20)
        print("scipy.integrate" in sys.modules)
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "schedule.csv")],
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip().splitlines()[-1] == "False"
