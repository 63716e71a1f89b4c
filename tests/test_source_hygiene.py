"""Static checks on the package source, with the standard library's ast.

Every top-level import of src/rigidity/*.py is used somewhere in its module;
every `__all__` entry names something the module binds at top level, or,
through the package's lazy name table, something its defining module binds;
every top-level function, class and constant of the package is named
somewhere in src/, tests/, bench/ or README.md besides its own definition; and
only cli.entry, the process's own exit, names os._exit.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rigidity"
MODULES = sorted(SRC.glob("*.py"))
HOOKS = {"__getattr__", "__dir__"}  # module hooks Python calls by name


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


def _defined(tree: ast.Module) -> list[str]:
    """Top-level function, class and assigned names: what a module binds, imports aside."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.extend(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return defined


def _bound(tree: ast.Module) -> set[str]:
    bound = set(_defined(tree))
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(_imported(node))
    return bound


def _named(tree: ast.Module) -> set[str]:
    """Names a module reads: loaded names, attributes, imported names and identifier
    strings (`_LAZY` keys, `getattr` targets); a definition alone names nothing."""
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            named.add(node.value)
    return named


def dead_names(root: Path) -> list[str]:
    """`module.name` of each top-level definition of root/src/rigidity/*.py that no file of
    root's src/, tests/ or bench/ reads and root/README.md does not mention."""
    named = set(re.findall(r"\w+", (root / "README.md").read_text()))
    for part in ("src", "tests", "bench"):
        for path in sorted((root / part).rglob("*.py")):
            named |= _named(ast.parse(path.read_text()))
    return [f"{path.stem}.{name}" for path in sorted((root / "src" / "rigidity").glob("*.py"))
            for name in _defined(ast.parse(path.read_text()))
            if name not in named and name not in HOOKS]


def hard_exits(root: Path) -> list[str]:
    """`module.name` of each top-level statement of root/src/rigidity/*.py (`name` is its
    function or class, else `<module>`) that names `_exit`: an attribute, an import or a
    getattr string.  os._exit ends the interpreter with no cleanup or unwinding."""
    return [f"{path.stem}.{getattr(node, 'name', '<module>')}"
            for path in sorted((root / "src" / "rigidity").glob("*.py"))
            for node in ast.parse(path.read_text()).body
            if "_exit" in _named(node)]


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


def test_every_top_level_definition_is_named():
    assert dead_names(ROOT) == []


def test_dead_name_check_catches_what_it_claims(tmp_path):
    for part in ("src/rigidity", "tests", "bench"):
        (tmp_path / part).mkdir(parents=True)
    (tmp_path / "src/rigidity/a.py").write_text(
        "USED, DEAD = 1, 2\nLAZY = {'lazy': 'a'}\n"
        "def lazy(): pass\ndef helper(): return USED\ndef dead(): return helper()\n"
        "class Dead: pass\ndef __getattr__(name): pass\n")
    (tmp_path / "tests/test_a.py").write_text("from rigidity.a import LAZY\n")
    (tmp_path / "bench/b.py").write_text("# DEAD and dead appear only in a comment\n")
    (tmp_path / "README.md").write_text("`Dead` is documented.\n")
    assert dead_names(tmp_path) == ["a.DEAD", "a.dead"]


def test_only_entry_ends_the_interpreter():
    assert hard_exits(ROOT) == ["cli.entry"]


def test_hard_exit_check_catches_what_it_claims(tmp_path):
    (tmp_path / "src/rigidity").mkdir(parents=True)
    (tmp_path / "src/rigidity/a.py").write_text(
        "import os\ndef entry():\n    os._exit(0)\n"
        "def helper():\n    def inner():\n        os._exit(1)\n"
        "class Runner:\n    def stop(self):\n        getattr(os, '_exit')(2)\n"
        "def clean():\n    os.exit_code = 0\n")
    (tmp_path / "src/rigidity/b.py").write_text("from os import _exit as quit_now\n")
    assert hard_exits(tmp_path) == ["a.entry", "a.helper", "a.Runner", "b.<module>"]


def test_lazy_names_are_the_module_objects():
    import rigidity

    assert set(rigidity.__all__) <= set(dir(rigidity))
    for name in rigidity.__all__:
        module = importlib.import_module(f"rigidity.{rigidity._LAZY[name]}")
        assert getattr(rigidity, name) is getattr(module, name)
