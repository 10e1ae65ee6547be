"""Every module-level import of a package module is referenced by it, and
the package loads nothing that ``import numpy`` has not already loaded."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "durrmeyer"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names bound by module-level imports that the module never reads,
    as (line, name) pairs. A name listed in ``__all__`` counts as read."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0])
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = getattr(node, "targets", [])
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            read |= set(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in read]


@pytest.mark.parametrize("module", MODULES)
def test_every_module_level_import_is_referenced(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_an_unreferenced_import_is_flagged():
    source = ("from __future__ import annotations\n"
              "import math, os.path\n"
              "from dataclasses import dataclass, field\n"
              "import numpy as np\n"
              "from .kernels import sinc\n"
              "__all__ = ['sinc']\n"
              "x = np.pi * math.tau\n"
              "@dataclass\n"
              "class A:\n"
              "    a: int\n")
    assert unused_imports(source) == [(2, "os"), (3, "field")]


def test_kernel_check_loads_no_module_beyond_numpy(tmp_path):
    # Set-up is timed in whole interpreters, so a module that ``import numpy``
    # does not load costs every command: numpy.polynomial alone adds about
    # 5 ms, a quarter of a set-up step.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "phi": {"family": "bspline", "n": 3},
        "psi": {"kind": "window", "lo": 0, "hi": 1, "weight": 1},
        "signal": "runge", "w_list": [5], "window": [-1, 1], "grid_step": 0.1}))
    code = ("import sys, numpy\n"
            "before = set(sys.modules)\n"
            "from durrmeyer.cli import main\n"
            f"assert main(['kernel-check', '--config', {str(cfg)!r}, '--out', "
            f"{str(tmp_path / 'out')!r}]) == 0\n"
            "print(sorted(name for name in set(sys.modules) - before\n"
            "             if name.startswith(('numpy.', 'scipy.')) or name == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True)
    assert result.stdout.strip() == "[]"
    assert (tmp_path / "out" / "kernel_check.csv").read_text().count("\n") == 3
