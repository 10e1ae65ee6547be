"""Every module-level import of a package module is referenced by it."""

import ast
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
