"""Every function the traced benchmark wraps, and every name and keyword
its workloads read from the package, exists in the package.

The tracer in perfbench/spans.py skips a target it cannot find, so a renamed
function would read as zero calls in the per-layer metrics instead of
failing; a name or keyword that perfbench/workloads.py reads and the package
dropped would fail only the benchmark run. These tests make either fail here.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_SPANS = _PERFBENCH / "spans.py"
# functions deleted from the package on purpose that the benchmark's span
# list still names until the benchmark next changes: their spans read 0
_DELETED = {("cssol.poly", "gcd")}


def _layer_functions():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYER_FUNCTIONS


@pytest.mark.parametrize("target", sorted(_DELETED), ids=".".join)
def test_deleted_target_is_gone(target):
    assert target in _layer_functions()
    assert not hasattr(importlib.import_module(target[0]), target[1])


@pytest.mark.parametrize(
    "target", [t for t in _layer_functions() if t not in _DELETED], ids=".".join)
def test_traced_target_resolves(target):
    owner = importlib.import_module(target[0])
    if len(target) == 3:
        owner = getattr(owner, target[1])
        assert callable(vars(owner).get(target[2]))
    else:
        assert callable(getattr(owner, target[1], None))


def _workload_reads():
    """The (module, attr) pairs perfbench/workloads.py reads from the cssol
    modules it imports, and the (module, attr, keyword) triples of the
    keywords it passes to them."""
    tree = ast.parse((_PERFBENCH / "workloads.py").read_text())
    modules = {alias.asname or alias.name: f"cssol.{alias.name}"
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "cssol"
               for alias in node.names}
    attrs, keywords = set(), set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            attrs.add((modules[node.value.id], node.attr))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if isinstance(func.value, ast.Name) and func.value.id in modules:
                keywords |= {(modules[func.value.id], func.attr, k.arg)
                             for k in node.keywords if k.arg}
    return sorted(attrs), sorted(keywords)


_WORKLOAD_NAMES, _WORKLOAD_KEYWORDS = _workload_reads()


@pytest.mark.parametrize("target", _WORKLOAD_NAMES, ids=".".join)
def test_workload_name_resolves(target):
    assert hasattr(importlib.import_module(target[0]), target[1])


@pytest.mark.parametrize("target", _WORKLOAD_KEYWORDS, ids=".".join)
def test_workload_keyword_is_a_parameter(target):
    module, attr, keyword = target
    fn = getattr(importlib.import_module(module), attr)
    assert keyword in inspect.signature(fn).parameters
