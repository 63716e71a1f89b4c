"""Static checks on the package source, with the standard library's ast.

Every top-level import of src/rigidity/*.py is used somewhere in its module;
every `__all__` entry names something the module binds at top level, or,
through the package's lazy name table, something its defining module binds;
every top-level function, class and constant of the package is read by src/
or by bench/, so that nothing only tests or the README name ships; a name that
only the lazy name table reads ships only if the README's public list names it,
and that list is `rigidity.__all__`; and only cli.entry, the process's own exit,
names os._exit.
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


def library_names(root: Path) -> set[str]:
    """The public library: each backticked name after the first ": " of an item of the
    bulleted list under root/README.md's `### Public names` heading, as `name` or
    `module.name`.  The list ends at its first blank line."""
    lines = (root / "README.md").read_text().partition("\n### Public names\n")[2].splitlines()
    items = []
    for line in lines[next((k for k, x in enumerate(lines) if x.startswith("- ")), len(lines)):]:
        if not line.strip():
            break
        if line.startswith("- "):
            items.append(line[2:])
        else:
            items[-1] += " " + line.strip()
    return {name for item in items
            for name in re.findall(r"`([A-Za-z_][\w.]*)`", item.partition(": ")[2])}


def _is_lazy_table(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "_LAZY" for t in node.targets)


def dead_names(root: Path) -> list[str]:
    """`module.name` of each top-level definition of root/src/rigidity/*.py that no file of
    root's src/ or bench/ reads: one that only tests/ or the README name does not run.  A
    `_LAZY` key reads nothing; a name only `_LAZY` holds passes if library_names lists it."""
    named, lazy = set(), set()
    for part in ("src", "bench"):
        for path in sorted((root / part).rglob("*.py")):
            tree = ast.parse(path.read_text())
            lazy |= set(_literal(tree, "_LAZY") or {})
            tree.body = [node for node in tree.body if not _is_lazy_table(node)]
            named |= _named(tree)
    named |= lazy & library_names(root)
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
    lazy = ("_LAZY = {'signfix': 'symmat', 'nowhere': 'symmat', 'c': 'symmat'}\n"
            "__all__ = list(_LAZY)\n")
    assert unresolved_all(lazy) == ["nowhere", "c"]


def test_every_top_level_definition_is_named():
    assert dead_names(ROOT) == []


def test_dead_name_check_catches_what_it_claims(tmp_path):
    for part in ("src/rigidity", "tests", "bench"):
        (tmp_path / part).mkdir(parents=True)
    (tmp_path / "src/rigidity/a.py").write_text(
        "USED, DEAD = 1, 2\n_LAZY = {'lazy': 'a', 'hidden': 'a'}\n"
        "def lazy(): pass\ndef hidden(): pass\ndef helper(): return USED\n"
        "def dead(): return helper()\n"
        "class Dead: pass\ndef tested(): pass\ndef benched(): pass\n"
        "def __getattr__(name): return _LAZY[name]\n")
    (tmp_path / "tests/test_a.py").write_text("from rigidity.a import tested, hidden\n")
    (tmp_path / "bench/b.py").write_text(
        "from rigidity.a import benched\n# DEAD and dead appear only in a comment\n")
    # `hidden` is lazy but undocumented; `Dead` is listed, but only a lazy name is rescued
    (tmp_path / "README.md").write_text(
        "`hidden` and `Dead` are documented.\n\n### Public names\n\nThe list:\n\n"
        "- Exported: `lazy`,\n  `Dead`.\n\n- Not in the list: `hidden`.\n")
    assert library_names(tmp_path) == {"lazy", "Dead"}
    assert dead_names(tmp_path) == ["a.DEAD", "a.hidden", "a.dead", "a.Dead", "a.tested"]


def test_public_names_are_the_export():
    import rigidity

    names = library_names(ROOT)
    assert sorted(n for n in names if "." not in n) == sorted(rigidity.__all__)
    for name in sorted(n for n in names if "." in n):
        module, attr = name.split(".")
        assert hasattr(importlib.import_module(f"rigidity.{module}"), attr), name


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
