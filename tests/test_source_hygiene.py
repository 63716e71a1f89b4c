"""Static checks on the package source, with the standard library's ast.

Every top-level import of src/rigidity/*.py is used somewhere in its module,
and every `__all__` entry names something the module binds at top level, or,
through the package's lazy name table, something its defining module binds.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rigidity"
MODULES = sorted(SRC.glob("*.py"))


def _literal(tree: ast.Module, name: str):
    """The literal a top-level `name = ...` assigns (`list(OTHER)` lists OTHER's), or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            value = node.value
            if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                    and value.func.id == "list" and isinstance(value.args[0], ast.Name)):
                return list(_literal(tree, value.args[0].id))
            return ast.literal_eval(value)
    return None


def _all_entries(tree: ast.Module) -> list[str]:
    return list(_literal(tree, "__all__") or [])


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


def _bound(tree: ast.Module) -> set[str]:
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(_imported(node))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return bound


def unresolved_all(source: str) -> list[str]:
    """`__all__` entries bound neither at top level nor, through the `_LAZY` name -> module
    table, at the top level of that module of the package."""
    tree = ast.parse(source)
    bound = _bound(tree)
    for name, module in (_literal(tree, "_LAZY") or {}).items():
        if name in _bound(ast.parse((SRC / f"{module}.py").read_text())):
            bound.add(name)
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
    lazy = ("_LAZY = {'sgn': 'symmat', 'nowhere': 'symmat', 'c': 'symmat'}\n"
            "__all__ = list(_LAZY)\n")
    assert unresolved_all(lazy) == ["nowhere", "c"]


def test_lazy_names_are_the_module_objects():
    import rigidity

    assert set(rigidity.__all__) <= set(dir(rigidity))
    for name in rigidity.__all__:
        module = importlib.import_module(f"rigidity.{rigidity._LAZY[name]}")
        assert getattr(rigidity, name) is getattr(module, name)
