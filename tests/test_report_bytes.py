"""tools/report_bytes.py: its field-level diff of two JSON outputs, and its command set."""

import importlib.util
import json
import sys
from pathlib import Path

from rigidity import curvature
from rigidity.cli import SUBCOMMANDS, main

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_bytes.py"


def _load():
    """Import the tool by path; it puts bench/ on sys.path, which is restored after."""
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("report_bytes", TOOL)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


tool = _load()
field_diffs = tool.field_diffs


def _text(obj) -> bytes:
    return (json.dumps(obj, indent=2) + "\n").encode()


def test_lists_differing_leaves_in_document_order():
    before = {"records": [{"kmin_bracket": {"lo": 0.5, "hi": 0.6999999999999953},
                           "status": "strict", "notes": ["minimal"]}]}
    after = {"records": [{"kmin_bracket": {"lo": 0.5, "hi": 0.6999999999999955},
                          "status": "strict", "notes": ["minimal", "ddvv-equality"]}]}
    assert field_diffs(_text(before), _text(after)) == [
        "records[0].kmin_bracket.hi: 0.6999999999999953 → 0.6999999999999955",
        'records[0].notes[1]: (absent) → "ddvv-equality"',
    ]


def test_types_keys_and_the_limit():
    before = {"a": 1, "b": True, "c": None, "d": [0, 1, 2, 3, 4, 5, 6]}
    after = {"a": 1.0, "b": 1, "e": 2, "d": [0, 9, 9, 9, 9, 9, 9]}
    assert field_diffs(_text(before), _text(after)) == [
        "a: 1 → 1.0", "b: true → 1", "c: null → (absent)", "d[1]: 1 → 9", "d[2]: 2 → 9"]
    every = field_diffs(_text(before), _text(after), limit=100)
    assert len(every) == 10 and every[-1] == "e: (absent) → 2"   # b's own keys come last
    assert field_diffs(_text(before), _text(before)) == []
    assert field_diffs(b"3\n", b"4\n") == ["(top): 3 → 4"]


def test_no_fields_without_json_on_both_sides():
    assert field_diffs(b"p,n\n1,2\n", b"p,n\n1,3\n") == []
    assert field_diffs(None, _text({"a": 1})) == []


def test_every_subcommand_has_a_command(tmp_path):
    """Builds the command set without running a command."""
    names = {cmd.argv[0] for seed in tool.SEEDS
             for _, _, commands in tool.plans(seed, tmp_path / str(seed)) for cmd in commands}
    assert set(SUBCOMMANDS) <= names


def test_searching_check_runs_the_plane_search(tmp_path, monkeypatch):
    """The plane-search command's input lands in its own directory, and every record in it
    runs the multistart search from the CLI's default budget: two open brackets a shape."""
    plans = {name: (cwd, commands) for name, cwd, commands in tool.plans(tool.SEEDS[0], tmp_path)}
    cwd, (cmd,) = plans["plane-search"]
    assert (cwd / "search.json").is_file() and cwd.parent == tmp_path
    assert "--budget" not in cmd.argv
    calls = []
    descend = curvature._descend_frames

    def counted(forms, c, x0, iters):
        calls.append(len(x0))
        return descend(forms, c, x0, iters)

    monkeypatch.setattr(curvature, "_descend_frames", counted)
    monkeypatch.chdir(cwd)
    main([*cmd.argv, "--out", "report.json"])
    assert len(calls) == cmd.items == 2 * len(tool.SEARCH_SHAPES) == 12
