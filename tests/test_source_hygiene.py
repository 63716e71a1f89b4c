"""Static checks on the package source, with the standard library's ast only.

Every top-level import of src/rigidity/*.py is used somewhere in its module,
and every `__all__` entry names something the module binds at top level.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rigidity"
MODULES = sorted(SRC.glob("*.py"))


def _all_entries(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def _imported(node) -> list[str]:
    """Names a top-level import binds; `import a.b` binds `a`."""
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_all_entries(tree))
    return [name for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for name in _imported(node) if name not in used]


def unresolved_all(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(_imported(node))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return [name for name in _all_entries(tree) if name not in bound]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_entries_resolve(path):
    assert unresolved_all(path.read_text()) == []


def test_checks_catch_what_they_claim():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nfrom .a import b, c\n"
              "__all__ = ['c', 'gone']\n"
              "def f(x: np.ndarray) -> int:\n    return b(x)\n")
    assert unused_imports(source) == ["os"]
    assert unresolved_all(source) == ["gone"]
