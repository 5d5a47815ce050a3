"""The package's modules import one another without a cycle, imports inside
functions included: a cycle only works while one side imports lazily."""

import ast
import os
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "swirlcurv"


def _imports(path: Path) -> set:
    """The modules of the package that ``path`` imports, anywhere in its body."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            # "from .x import y", or "from . import x" for a module x
            names |= {node.module.split(".")[0]} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(PACKAGE.name):
            names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith(PACKAGE.name + ".")}
    return names


def test_the_spectrum_does_not_import_the_curvature_module():
    # jacobi states its own bound on a stacked eigensolve
    assert "curvature" not in _imports(PACKAGE / "jacobi.py")


def test_package_imports_form_no_cycle():
    graph = {path.stem: _imports(path) for path in PACKAGE.glob("*.py")}
    assert graph["curvature"] >= {"modes", "profile", "quadrature"}   # the reader sees imports
    assert set().union(*graph.values()) <= set(graph)
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


def test_cli_import_leaves_numpy_fft_unloaded():
    # the residuals' z-derivative matrices are built in closed form at import:
    # numpy.fft's import would add about 1.7 ms to every command's start-up
    code = "import sys, swirlcurv.cli; print('numpy.fft' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent),
                                                       os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "False"
