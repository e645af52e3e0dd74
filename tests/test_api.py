"""The public names of ``lqdr``, every ``lqdr`` attribute the benchmark uses,
and that lqdr runs on numpy alone."""

import ast
import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import lqdr

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_attributes():
    """Sorted (module, name) pairs of the ``lqdr`` attributes perfbench reads.

    Scans every perfbench source file for ``from lqdr.x import name``,
    ``alias.name`` where ``alias`` is an ``import lqdr.x as alias``, and the
    string pairs ``("lqdr.x", "name")`` that its instruments wrap, whether
    written as a tuple or as a call's first two arguments.
    """
    found = set()
    for path in sorted(PERFBENCH.rglob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                aliases.update({alias.asname or alias.name: alias.name
                                for alias in node.names if alias.name.startswith("lqdr.")})
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lqdr"):
                found.update((node.module, alias.name) for alias in node.names)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                found.add((aliases[node.value.id], node.attr))
            elif isinstance(node, (ast.Tuple, ast.Call)):
                pair = [e.value for e in (node.elts if isinstance(node, ast.Tuple)
                                          else node.args)[:2]
                        if isinstance(e, ast.Constant) and isinstance(e.value, str)]
                if len(pair) == 2 and pair[0].startswith("lqdr."):
                    found.add(tuple(pair))
    return sorted(found)


@pytest.mark.parametrize("name", lqdr.__all__)
def test_every_export_resolves(name):
    assert hasattr(lqdr, name)


def test_exports_are_unique():
    assert len(set(lqdr.__all__)) == len(lqdr.__all__)


def test_perfbench_reads_attributes():
    # the scan must find the benchmark's entry points, or the test below
    # would pass on an empty list
    found = _perfbench_attributes()
    for pair in (("lqdr.cli", "run_scenario"), ("lqdr.control", "build_controller"),
                 ("lqdr.control", "finite_horizon_control"), ("lqdr.sim", "simulate")):
        assert pair in found


@pytest.mark.parametrize("module, name", _perfbench_attributes())
def test_perfbench_attribute_exists(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_lqdr_runs_where_scipy_cannot_be_imported(tmp_path):
    # with sys.modules["scipy"] = None any scipy import raises ImportError:
    # every bundled scenario (example_d is continuous-time, so ZOH runs),
    # selftest and the growth certificate of a value iteration need numpy alone
    code = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None
        import lqdr, lqdr.cli
        from lqdr import ConvergenceError, CostSpec, SystemModel, solve_gare
        from lqdr.cli import bundled_scenario_path, load_scenario, run_scenario, selftest
        for name in ("example_a", "example_b", "example_c", "example_d"):
            run_scenario(load_scenario(bundled_scenario_path(name)), sys.argv[1])
        selftest(instances=10)
        model = SystemModel(A=[[1.0]], B=[[0.0]], E=[[0.0]], c_o=[[1.0]])
        cost = CostSpec(Q=[[1.0]], R=[[1.0]], P_terminal=[[0.0]], r=[0.0])
        try:
            solve_gare(model, cost)
        except ConvergenceError as exc:
            print(exc)
    """)
    src = str(Path(lqdr.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                            env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, check=True)
    assert "grows without bound" in result.stdout
    assert (tmp_path / "example_d.summary.json").is_file()


def test_no_lqdr_module_imports_scipy():
    package = Path(lqdr.__file__).resolve().parent
    imported = set()
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update((path.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add((path.name, node.module))
    assert ("cli.py", "numpy") in imported  # the scan sees imports
    assert not [pair for pair in imported if pair[1].split(".")[0] == "scipy"]
