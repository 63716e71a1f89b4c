"""The names the bench tracer wraps must exist in the package.

bench/spans.py replaces module attributes by name, so a rename in the package
would silently leave a span empty.  This reads its TIMED and COUNTED tables
with the standard library's ast, without importing the bench.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from rigidity.cli import build_parser

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _table(name: str) -> list[tuple]:
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return eval(compile(ast.Expression(node.value), str(SPANS), "eval"),
                        {"__builtins__": {}})
    raise AssertionError(f"{name} not found in {SPANS}")


ENTRIES = _table("TIMED") + _table("COUNTED")


@pytest.mark.parametrize("module,attr,span", ENTRIES, ids=[f"{m}.{a}" for m, a, _ in ENTRIES])
def test_wrapped_name_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr))


def test_kmin_bracket_takes_the_data_first():
    # the tracer reads args[0].n of every kmin_bracket call
    from rigidity.curvature import kmin_bracket
    assert next(iter(inspect.signature(kmin_bracket).parameters)) == "data"


def test_traced_check_arguments_parse():
    args = build_parser().parse_args(["check", "in.json", "--no-timestamp", "--jobs", "1"])
    assert args.jobs == 1
