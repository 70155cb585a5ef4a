"""Every import in the package and the tests is used.

A stdlib ``ast`` scan, so it runs wherever the tests run: a name bound
by an import must be read somewhere in its module or listed in the
module's ``__all__``.  Package ``__init__`` files are skipped, because
re-exporting is what their imports are for.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in (ROOT / "src" / "hardtorus", ROOT / "tests")
               for p in d.glob("*.py") if p.name != "__init__.py")


def _bound_names(node):
    """(name, line) pairs an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [((alias.asname or alias.name).split(".")[0], node.lineno)
            for alias in node.names]


def _exported(tree) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            out |= {elt.value for elt in node.value.elts}
    return out


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = [pair for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for pair in _bound_names(node)]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    return [f"line {line}: {name}" for name, line in bound if name not in used]


def test_scanner_flags_unused_and_keeps_used():
    src = ("from __future__ import annotations\n"
           "import os.path\nimport json\nfrom math import pi, tau as t\n"
           "__all__ = ['pi']\nprint(os.sep, t)\n")
    assert unused_imports(src) == ["line 3: json"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
