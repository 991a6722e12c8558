"""Every name a library module imports is used in that module.

Stdlib only: each module under ``src/semistoch`` is parsed with ``ast``.  A
name counts as used when it occurs as an identifier anywhere in the module
(annotations included).  Package ``__init__`` modules are exempt, since
their imports are re-exports, and so are ``from __future__`` imports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "semistoch"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scanner_sees_unused_and_used_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from typing import Dict, Optional\n"
              "from . import kernel as k\n"
              "def f(x: Dict) -> None:\n"
              "    return k.compose(x)\n")
    assert unused_imports(source) == [(2, "os"), (3, "Optional")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
