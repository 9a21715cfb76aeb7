"""Every function the traced benchmark wraps exists in the package.

The tracer in perfbench/spans.py skips a target it cannot find, so a renamed
function would read as zero calls in the per-layer metrics instead of
failing; this test makes such a rename fail here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
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
