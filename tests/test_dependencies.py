"""The runtime needs numpy alone: no module under src/ imports scipy, the
descent and the CLI load none, and pyproject.toml declares it so. And the
covariant derivative (grad + i beta A) v and the covariant current's A* are
formed in one place, MagneticState: no other module names their private
parts, imports the kernels or releases a state's fields (vars, del x.y)."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cssol

_PACKAGE = Path(cssol.__file__).resolve().parent
_ROOT = Path(__file__).resolve().parent.parent


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_source_module_imports_scipy(path):
    assert not [m for m in _imported_modules(path) if m.split(".")[0] == "scipy"]


# the modules that may name each private part of the covariant derivative
_COVARIANT_PARTS = {"_axis_deriv": {"grid.py", "functionals.py"}, "_covariant": {"functionals.py"},
                    "_current": {"functionals.py"}}


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_functionals_forms_the_covariant_derivative(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert not {n for n, owners in _COVARIANT_PARTS.items()
                if path.name not in owners} & names


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_functionals_reaches_the_kernels_and_releases_state(path):
    """Only functionals imports from .kernels, names vars or deletes an
    attribute (del x.y): the fields A* must not see are released by
    MagneticState.source() alone."""
    nodes = list(ast.walk(ast.parse(path.read_text(), filename=str(path))))
    # "kernels" for both `from .kernels import ...` and `from . import kernels`
    relative = {n.module or a.name for n in nodes if isinstance(n, ast.ImportFrom) and n.level
                for a in n.names}
    names_vars = any(isinstance(n, ast.Name) and n.id == "vars" for n in nodes)
    deletes_attr = [n.lineno for n in nodes if isinstance(n, ast.Delete)
                    and any(isinstance(t, ast.Attribute) for t in n.targets)]
    assert path.name == "functionals.py" or not ("kernels" in relative or names_vars
                                                 or deletes_attr), deletes_attr


def test_descent_and_cli_load_no_scipy():
    code = ("import sys\n"
            "from cssol.cli import main\n"
            "from cssol.grid import Grid\n"
            "from cssol.variational import DescentConfig, estimate_gamma, structure_scan\n"
            "cfg = DescentConfig(grid=Grid(6.0, 32))\n"
            "estimate_gamma(1.0, cfg)\n"
            "structure_scan([0.5, 1.0], cfg)\n"
            "assert main(['estimate-gamma', '--beta', '1', '--grid', '6,32']) in (0, 1)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=str(_PACKAGE.parent)))
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_runtime_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((_ROOT / "pyproject.toml").read_text())["project"]

    def names(reqs):
        return [re.match(r"[A-Za-z0-9_.-]+", r).group().lower() for r in reqs]

    assert names(project["dependencies"]) == ["numpy"]
    assert "scipy" in names(project["optional-dependencies"]["test"])
