"""Every name the benchmark in ``perfbench/`` looks up on ``edhsim.harness``
exists there; one missing name would stop every benchmark run in ``getattr``.
Every layer span it reports names a function that still exists in
``edhsim``; a renamed or removed one would read as a layer that no longer
costs anything.

The benchmark's sources are parsed, not imported or run.
"""

import ast
import importlib
from pathlib import Path

import pytest

import edhsim.harness as harness

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text())


def _module_tuple(tree: ast.Module, name: str) -> tuple:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in the module")


def _install_checks_names() -> list:
    """The names ``install_checks`` wraps, from its ``for attr in (...)`` loops."""
    [fn] = [n for n in _tree("workloads.py").body
            if isinstance(n, ast.FunctionDef) and n.name == "install_checks"]
    return [name for node in ast.walk(fn)
            if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple)
            for name in ast.literal_eval(node.iter)]


def _direct_lookups() -> set:
    """``harness.X`` reads, and ``f(harness, "X", ...)`` calls such as
    ``monkeypatch.setattr``, in every benchmark source."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "harness"):
                names.add(node.attr)
            elif (isinstance(node, ast.Call) and len(node.args) >= 2
                  and isinstance(node.args[0], ast.Name) and node.args[0].id == "harness"
                  and isinstance(node.args[1], ast.Constant)):
                names.add(node.args[1].value)
    return names


LAYERS = _tree("layers.py")
LAYER_NAMES = _module_tuple(LAYERS, "HARNESS_CALLEES") + _module_tuple(LAYERS, "HARNESS_ROOTS")
LAYER_SPANS = _module_tuple(LAYERS, "LAYER_SPANS")
CHECKED = _install_checks_names()
DIRECT = sorted(_direct_lookups())


def test_the_lookups_were_found():
    # a parse that finds nothing would pass every test below
    assert {"sample_stream", "run_experiment", "sweep", "median_tracking_experiment"} <= set(LAYER_NAMES)
    assert sorted(CHECKED) == ["hedh", "oedh", "pedh", "run_fixed", "run_optimized"]
    assert {"run_experiment", "sweep", "median_tracking_experiment", "pedh"} <= set(DIRECT)
    assert {"transient.sample_stream", "binner.BinnerBank.run"} <= set(LAYER_SPANS)


@pytest.mark.parametrize("name", sorted(set(LAYER_NAMES + tuple(CHECKED)) | set(DIRECT)))
def test_harness_has_the_name(name):
    assert callable(getattr(harness, name, None)), f"edhsim.harness.{name} is gone"


@pytest.mark.parametrize("span", LAYER_SPANS)
def test_layer_span_names_a_function(span):
    # "<module>.<function>" or "<module>.<Class>.<method>" in edhsim
    module, *path = span.split(".")
    obj = importlib.import_module(f"edhsim.{module}")
    for attr in path:
        obj = getattr(obj, attr, None)
        assert obj is not None, f"edhsim.{span} is gone"
    assert callable(obj), f"edhsim.{span} is not callable"
