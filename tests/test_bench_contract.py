"""The names the bench tracer wraps must exist in the package.

bench/spans.py replaces module attributes by name, so a rename in the package
would silently leave a span empty.  This reads its TIMED and COUNTED tables
with the standard library's ast, without importing the bench.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

from rigidity import cli
from rigidity.cli import build_parser, data_to_dict
from rigidity.models import totally_geodesic, veronese

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


def test_one_serialize_span_per_checked_record(tmp_path, monkeypatch, capsys):
    # record_to_dict is the per-record cli.serialize span: it runs once for each record
    # that is checked, and never for an error record
    calls = []
    record_to_dict = cli.record_to_dict

    def counted(label, *args):
        calls.append(label)
        return record_to_dict(label, *args)

    monkeypatch.setattr(cli, "record_to_dict", counted)
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps([data_to_dict(d) for d in (
        veronese(1.0, 0.0), veronese(1.0, 0.6), totally_geodesic(3, 2, 1.0))]))
    code = cli.main(["check", str(batch), "--theorem", "thm1", "--no-timestamp",
                     "--jobs", "1"])
    records = json.loads(capsys.readouterr().out)["records"]
    assert code == 3 and "error" in records[1]
    assert calls == [f"{batch}#0", f"{batch}#2"]
