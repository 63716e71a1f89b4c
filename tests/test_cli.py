"""End-to-end command line behavior, run in-process through main(argv).

Exit-code contract under test: 0 strict/boundary, 1 fails, 2 indeterminate,
3 hypothesis violation, 4 parse error, 5 usage error.  Reports are JSON on
stdout unless --out is given; determinism is byte-level once --no-timestamp
strips wall-clock fields.
"""

import argparse
import errno
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from conftest import packed_tuples, random_orthogonal, random_tuple
from rigidity import cli, curvature, ddvv
from rigidity.cli import _dump, data_from_dict, data_to_dict, main, sample_to_dict
from rigidity.curvature import FundamentalData
from rigidity.ddvv import evaluate as ddvv_evaluate
from rigidity.ddvv import ratio_terms as ddvv_ratio_terms
from rigidity.immersion import PointSample, builtin, sample_grid
from rigidity.models import product_of_spheres, totally_geodesic, veronese
from rigidity.pinching import (
    threshold_generalized,
    threshold_itoh,
    threshold_thm1,
    threshold_thm2,
    threshold_yau,
)
from rigidity.symmat import rotate_tuple


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sample_from_dict(obj) -> PointSample:
    """Inverse of cli.sample_to_dict, for the round-trip tests."""
    for key in ("params", "position", "tangent", "normal", "data"):
        if key not in obj:
            raise ValueError(f"missing required field {key!r} in point sample")
    return PointSample(
        params=np.asarray(obj["params"], dtype=float),
        position=np.asarray(obj["position"], dtype=float),
        tangent=np.asarray(obj["tangent"], dtype=float),
        normal=np.asarray(obj["normal"], dtype=float),
        data=data_from_dict(obj["data"]),
    )


def write_data(path, data):
    path.write_text(json.dumps(data_to_dict(data)))
    return str(path)


# minimal points at n >= 5 whose brackets stay open after the closed-form plane, so each
# check of them runs the multistart plane search and draws its random starts
SEARCHING = [FundamentalData(n=n, p=p, c=1.0, forms=0.3 * random_tuple(
    n, p, np.random.default_rng([n, p, 27]), traceless=True)) for n, p in [(5, 2), (6, 3), (6, 2)]]


def counted_searches(monkeypatch) -> list:
    """Patch curvature's plane search to log each call; returns the log."""
    calls = []
    descend = curvature._descend_frames

    def counted(forms, c, x0, iters):
        calls.append(len(x0))
        return descend(forms, c, x0, iters)

    monkeypatch.setattr(curvature, "_descend_frames", counted)
    return calls


def run_python(args, *, unbuffered=False, **kwargs):
    """`python args` in a fresh process that imports the rigidity under test, run to
    completion.  Its stdout is block-buffered unless unbuffered; stdout and stderr are
    captured as bytes unless kwargs redirect them."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([sys.executable, *args], env=env, timeout=120, **kwargs)


# frozen verdict fixtures (see the pinching tests for their derivation)
FAILS_DATA = FundamentalData(n=2, p=2, c=1.0, forms=2.0 * veronese(1.0, 0.0).forms)
INDET_DATA = FundamentalData(
    n=5, p=3, c=1.0,
    forms=0.315848 * random_tuple(5, 3, np.random.default_rng(1), traceless=True),
)


def _turned(data, seed):
    """data in random tangent and normal frames."""
    rng = np.random.default_rng(seed)
    tangent, normal = random_orthogonal(data.n, rng), random_orthogonal(data.p, rng)
    return FundamentalData(n=data.n, p=data.p, c=data.c,
                           forms=rotate_tuple(tangent.T @ data.forms @ tangent, normal))


class TestSerialization:
    @pytest.mark.parametrize("data", [
        veronese(1.0, 0.0),
        veronese(1.0, 0.6),
        totally_geodesic(3, 2, -1.0),
        FundamentalData(n=3, p=2, c=0.0, forms=random_tuple(3, 2, seed=1)),
    ], ids=["veronese", "veronese-mean", "geodesic", "random"])
    def test_round_trip_identity(self, data):
        assert data_from_dict(data_to_dict(data)) == data

    def test_json_text_round_trip(self):
        # through an actual JSON encode/decode, floats must survive exactly
        data = FundamentalData(n=2, p=2, c=1.0 / 3.0, forms=random_tuple(2, 2, seed=2))
        again = data_from_dict(json.loads(json.dumps(data_to_dict(data))))
        assert again == data

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("c"),
        lambda d: d.update(n=2.0),
        lambda d: d.update(mean_index="0"),
    ])
    def test_rejects_malformed_payloads(self, mutate):
        payload = data_to_dict(veronese(1.0, 0.0))
        mutate(payload)
        with pytest.raises(ValueError):
            data_from_dict(payload)

    # a list of k numbers encodes as k + 2 stdlib chunks: 8,191, 8,192 and 8,193 of them
    @pytest.mark.parametrize("obj,chunks", [
        *((list(range(2 * 4096 - 2 + d)), 2 * 4096 + d) for d in (-1, 0, 1)),
        ([], 1), ({}, 1), ({"a": [], "b": {}, "c": [{}, []]}, 20), (0.1, 1), (None, 1),
        ("Veronese ∮ Σ² 𝔖", 1),
    ], ids=["block-1", "block", "block+1", "list", "dict", "nested-empty", "float", "null",
            "non-ascii"])
    def test_dump_is_json_dumps(self, capsys, tmp_path, obj, chunks):
        encoder = json.JSONEncoder(indent=2, allow_nan=False)
        assert len(list(encoder.iterencode(obj))) == chunks
        text = json.dumps(obj, indent=2, allow_nan=False) + "\n"
        _dump(obj, None)
        assert capsys.readouterr().out == text
        _dump(obj, str(tmp_path / "out.json"))
        assert (tmp_path / "out.json").read_text() == text


    # a top-level list and a list under "records", given as iterators, keep json.dumps's
    # bytes: empty, one item, and several items with nested lists and objects
    @pytest.mark.parametrize("count", [0, 1, 4], ids=["empty", "single", "several"])
    def test_streamed_items_are_json_dumps(self, capsys, tmp_path, count):
        items = [sample_to_dict(s) for s in sample_grid(builtin("graph"), 2)][:count]
        for whole, streamed in (
                (items, lambda: iter(items)),
                ({"records": items}, lambda: {"records": iter(items)}),
                ({"mode": "input", "reports": items, "timestamp": None},
                 lambda: {"mode": "input", "reports": iter(items), "timestamp": None})):
            text = json.dumps(whole, indent=2, allow_nan=False) + "\n"
            _dump(streamed(), None)
            assert capsys.readouterr().out == text
            _dump(streamed(), str(tmp_path / "out.json"))
            assert (tmp_path / "out.json").read_text() == text

    # check's report, built record by record, is json.dumps of itself, on stdout and in --out:
    # an empty batch, a single record, an error record between two good ones (serially and
    # with --jobs 2) and a non-ASCII label
    @pytest.mark.parametrize("name,records,jobs", [
        ("empty.json", [], "1"),
        ("single.json", [veronese(1.0, 0.0)], "1"),
        ("batch.json", [veronese(1.0, 0.0), veronese(1.0, 0.6), totally_geodesic(3, 2, 1.0)],
         "1"),
        ("batch.json", [veronese(1.0, 0.0), veronese(1.0, 0.6), totally_geodesic(3, 2, 1.0)],
         "2"),
        ("Veronese ∮ Σ².json", [veronese(1.0, 0.0)], "1"),
    ], ids=["empty", "single", "error-between", "error-between-jobs-2", "non-ascii"])
    def test_check_report_is_json_dumps(self, capsys, tmp_path, name, records, jobs):
        batch = tmp_path / name
        batch.write_text(json.dumps([data_to_dict(d) for d in records]), encoding="utf-8")
        argv = ["check", str(batch), "--theorem", "thm1", "--no-timestamp", "--jobs", jobs]
        code, out, err = run(capsys, *argv)
        report = json.loads(out)
        assert out == json.dumps(report, indent=2, allow_nan=False) + "\n"
        assert [r["input"] for r in report["records"]] == [
            f"{batch}#{i}" for i in range(len(records))]
        errors = [i for i, r in enumerate(report["records"]) if "error" in r]
        assert err == "".join(f"error: {batch}#{i}: {report['records'][i]['error']}\n"
                              for i in errors)
        assert code == (3 if errors else 0) and errors == ([1] if len(records) == 3 else [])
        assert run(capsys, *argv, "--out", str(tmp_path / "out.json")) == (code, "", err)
        assert (tmp_path / "out.json").read_text(encoding="utf-8") == out

    # a NaN in the last item writes nothing: no stdout byte, and an existing --out keeps its
    # bytes, for a streamed list and for check, once its error line is out
    def test_nan_in_the_last_streamed_item_writes_nothing(self, capsys, tmp_path, monkeypatch):
        existing = tmp_path / "existing.json"
        existing.write_bytes(b'{"kept": true}\n')
        items = [{"lo": 0.5}, {"lo": 1.0}, {"lo": float("nan")}]
        for report in (lambda: iter(items), lambda: {"records": iter(items)}):
            for out in (None, existing):
                with pytest.raises(ValueError):
                    _dump(report(), None if out is None else str(out))
                assert capsys.readouterr().out == ""
                assert existing.read_bytes() == b'{"kept": true}\n'
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([data_to_dict(d) for d in (
            veronese(1.0, 0.0), veronese(1.0, 0.6), totally_geodesic(3, 2, 1.0))]))
        record_to_dict = cli.record_to_dict

        def nan_last(label, *args):
            record = record_to_dict(label, *args)
            return {**record, "elapsed_s": float("nan")} if label.endswith("#2") else record

        monkeypatch.setattr(cli, "record_to_dict", nan_last)
        for out in ([], ["--out", str(existing)]):
            with pytest.raises(ValueError):
                main(["check", str(batch), "--theorem", "thm1", "--no-timestamp", *out])
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith(f"error: {batch}#1: thm1 ")
            assert existing.read_bytes() == b'{"kept": true}\n'


class TestCheckCommand:
    def test_boundary_model_exits_zero(self, capsys, tmp_path):
        path = write_data(tmp_path / "veronese.json", veronese(1.0, 0.0))
        code, out, _ = run(capsys, "check", path, "--no-timestamp")
        assert code == 0
        report = json.loads(out)
        record = report["records"][0]
        assert record["status"] == "boundary"
        assert record["verdicts"][0]["theorem"] == "thm1"
        assert record["verdicts"][0]["label"] == "Veronese"
        assert record["ddvv"]["equality"] is True
        npt.assert_allclose(record["invariants"]["S"], 4.0 / 3.0, rtol=1e-14)
        assert record["timestamp"] is None and record["elapsed_s"] is None

    def test_strict_exits_zero(self, capsys, tmp_path):
        path = write_data(tmp_path / "tg.json", totally_geodesic(3, 2, 1.0))
        code, out, _ = run(capsys, "check", path, "--no-timestamp")
        assert code == 0
        assert json.loads(out)["records"][0]["status"] == "strict"

    def test_fails_exits_one(self, capsys, tmp_path):
        path = write_data(tmp_path / "fails.json", FAILS_DATA)
        code, out, _ = run(capsys, "check", path, "--no-timestamp")
        assert code == 1
        assert json.loads(out)["records"][0]["status"] == "fails"

    def test_indeterminate_exits_two(self, capsys, tmp_path):
        path = write_data(tmp_path / "indet.json", INDET_DATA)
        code, out, _ = run(capsys, "check", path, "--no-timestamp",
                           "--budget", "16")
        assert code == 2
        assert json.loads(out)["records"][0]["status"] == "indeterminate"

    def test_hypothesis_violation_exits_three(self, capsys, tmp_path):
        path = write_data(tmp_path / "veronese.json", veronese(1.0, 0.0))
        code, _, err = run(capsys, "check", path, "--theorem", "thm2")
        assert code == 3
        assert "error:" in err

    def test_parse_error_exits_four(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2,\n')
        code, _, err = run(capsys, "check", str(bad))
        assert code == 4
        assert f"{bad}:2:" in err  # path:line:col prefix

    def test_missing_file_exits_four(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", str(tmp_path / "nope.json"))
        assert code == 4

    def test_batch_worst_of_and_order(self, capsys, tmp_path):
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([data_to_dict(veronese(1.0, 0.0)),
                                     data_to_dict(FAILS_DATA)]))
        code, out, _ = run(capsys, "check", str(batch), "--no-timestamp")
        assert code == 1
        records = json.loads(out)["records"]
        assert [r["input"] for r in records] == [f"{batch}#0", f"{batch}#1"]
        assert [r["status"] for r in records] == ["boundary", "fails"]

    def test_multiple_theorems(self, capsys, tmp_path):
        path = write_data(tmp_path / "v.json", veronese(1.0, 0.0))
        code, out, _ = run(capsys, "check", path, "--theorem", "thm1",
                           "--theorem", "itoh", "--no-timestamp")
        assert code == 0
        verdicts = json.loads(out)["records"][0]["verdicts"]
        assert [v["theorem"] for v in verdicts] == ["thm1", "itoh"]

    def test_byte_identical_reruns(self, capsys, tmp_path):
        path = write_data(tmp_path / "v.json", veronese(1.0, 0.6))
        _, out1, _ = run(capsys, "check", path, "--no-timestamp", "--seed", "3")
        _, out2, _ = run(capsys, "check", path, "--no-timestamp", "--seed", "3")
        assert out1 == out2

    def test_jobs_do_not_change_output(self, capsys, tmp_path):
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([data_to_dict(veronese(1.0, 0.0)),
                                     data_to_dict(totally_geodesic(3, 2, 1.0)),
                                     data_to_dict(veronese(1.0, 0.6))]))
        _, seq, _ = run(capsys, "check", str(batch), "--no-timestamp", "--jobs", "1")
        _, par, _ = run(capsys, "check", str(batch), "--no-timestamp", "--jobs", "4")
        assert seq == par

    def test_jobs_do_not_change_searching_output(self, capsys, tmp_path, monkeypatch):
        calls = counted_searches(monkeypatch)
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([data_to_dict(d) for d in SEARCHING]))
        reports = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}.json"
            run(capsys, "check", str(batch), "--no-timestamp", "--seed", "5", "--budget", "16",
                "--jobs", jobs, "--out", str(out))
            reports.append(out.read_bytes())
        assert len(calls) == 2 * len(SEARCHING)
        assert reports[0] == reports[1]

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = write_data(tmp_path / "v.json", veronese(1.0, 0.0))
        out_file = tmp_path / "report.json"
        code, out, _ = run(capsys, "check", path, "--no-timestamp",
                           "--out", str(out_file))
        assert code == 0 and out == ""
        _, stdout_version, _ = run(capsys, "check", path, "--no-timestamp")
        assert out_file.read_text() == stdout_version

    def test_one_bracket_per_record(self, capsys, tmp_path, monkeypatch):
        calls = []
        kmin_bracket, kmin_brackets = curvature.kmin_bracket, curvature.kmin_brackets

        def counted(data, *args, **kwargs):
            calls.append(data)
            return kmin_bracket(data, *args, **kwargs)

        def counted_stack(forms, *args, **kwargs):  # the brackets of one array pass
            calls.extend(forms)
            return kmin_brackets(forms, *args, **kwargs)

        # verdict and cli import their bracket functions from curvature when they run
        monkeypatch.setattr(curvature, "kmin_bracket", counted)
        monkeypatch.setattr(curvature, "kmin_brackets", counted_stack)
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([data_to_dict(veronese(1.0, 0.0)),
                                     data_to_dict(totally_geodesic(3, 2, 1.0))]))
        code, out, _ = run(capsys, "check", str(batch), "--theorem", "thm1",
                           "--theorem", "itoh", "--theorem", "yau",
                           "--no-timestamp", "--jobs", "1")
        assert code == 0
        assert len(json.loads(out)["records"]) == 2
        assert len(calls) == 2


class TestReportSchema:
    """The key order of `check` records and `ddvv` reports, and the verdict summary of a
    `check` record, pinned."""

    RECORD_KEYS = ["input", "shape", "invariants", "kmin_bracket", "ddvv", "verdicts",
                   "status", "exit_hint", "timestamp", "elapsed_s"]
    VERDICT_KEYS = ["theorem", "threshold", "kmin_bracket", "status", "label", "notes"]
    DDVV_KEYS = ["lhs", "rhs", "ratio", "equality", "extremal_structure"]
    EXTREMAL_KEYS = ["active", "mu", "normal_rotation", "tangent_rotation", "offplane_frac",
                     "match_residual"]
    MESSAGE = "thm1 requires minimal data: some tr(H_a) is nonzero beyond tolerance"

    def check_batch(self, capsys, tmp_path, *theorems):
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([data_to_dict(veronese(1.0, 0.0)),
                                     data_to_dict(product_of_spheres(4, 2)),
                                     data_to_dict(veronese(1.0, 0.6))]))
        flags = [f for th in theorems for f in ("--theorem", th)]
        code, out, err = run(capsys, "check", str(batch), *flags, "--no-timestamp")
        return str(batch), code, json.loads(out)["records"], err

    def test_key_order(self, capsys, tmp_path):
        batch, code, records, err = self.check_batch(capsys, tmp_path, "thm1")
        assert code == 3
        for record in records[:2]:
            assert list(record) == self.RECORD_KEYS
            assert list(record["shape"]) == ["n", "p", "c", "mean_index"]
            assert list(record["invariants"]) == ["S", "H", "S_H", "S_I", "R_scal"]
            assert list(record["kmin_bracket"]) == ["lo", "hi"]
            assert list(record["ddvv"]) == self.DDVV_KEYS
            for v in record["verdicts"]:
                assert list(v) == self.VERDICT_KEYS
                assert list(v["kmin_bracket"]) == ["lo", "hi"]
        assert list(records[0]["ddvv"]["extremal_structure"]) == self.EXTREMAL_KEYS
        assert records[1]["ddvv"]["extremal_structure"] is None
        assert records[2] == {"input": f"{batch}#2", "error": self.MESSAGE}
        assert err == f"error: {batch}#2: {self.MESSAGE}\n"

    def test_ddvv_input_key_order(self, capsys, tmp_path):
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([data_to_dict(veronese(1.0, 0.0)),
                                     data_to_dict(product_of_spheres(4, 2))]))
        code, out, _ = run(capsys, "ddvv", "--input", str(batch), "--no-timestamp")
        assert code == 0
        reports = json.loads(out)["reports"]
        for report in reports:
            assert list(report) == ["input", *self.DDVV_KEYS]
        assert list(reports[0]["extremal_structure"]) == self.EXTREMAL_KEYS
        assert reports[1]["extremal_structure"] is None

    def test_ddvv_maximize_key_order(self, capsys):
        code, out, _ = run(capsys, "ddvv", "--maximize", "2", "2", "4", "--iters", "300",
                           "--no-timestamp")
        assert code == 0
        report = json.loads(out)
        assert list(report) == ["mode", "n", "m", "starts", "iters", "seed", "best_ratio",
                                "iterations", "extremal_structure", "timestamp"]
        assert list(report["extremal_structure"]) == self.EXTREMAL_KEYS

    def test_verdict_summary(self, capsys, tmp_path):
        _, code, records, _ = self.check_batch(capsys, tmp_path, "thm1", "itoh")
        assert code == 3
        summary = [(r["status"], r["exit_hint"],
                    [(v["theorem"], v["status"], v["label"], v["notes"], v["threshold"])
                     for v in r["verdicts"]]) for r in records[:2]]
        notes = ["minimal", "ddvv-equality"]
        assert summary == [
            ("boundary", 0, [("thm1", "boundary", "Veronese", notes, 1 / 3),
                             ("itoh", "boundary", "Veronese", notes, 1 / 3)]),
            ("fails", 1, [("thm1", "boundary", "ProductOfSpheres", ["minimal"], 0.0),
                          ("itoh", "fails", "Undetermined", ["minimal"], 0.4)]),
        ]
        assert "status" not in records[2] and "exit_hint" not in records[2]

    def test_empty_file_reports_no_records(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        assert run(capsys, "check", str(path), "--no-timestamp") == (
            0, '{\n  "records": []\n}\n', "")


class TestParseValidation:
    """Bad field values exit 4 with the record's path#i label."""

    # n and p cases use data whose true value is 1, the integer that true aliases
    # c's error line echoes a float, but only the size of an int, which may have 4300 digits
    @pytest.mark.parametrize("field,value,base,line", [
        ("n", True, FundamentalData(n=1, p=1, c=1.0, forms=np.ones((1, 1, 1))), None),
        ("p", True, totally_geodesic(3, 1, 1.0), None),
        ("mean_index", True, veronese(1.0, 0.6), None),
        ("c", float("nan"), veronese(1.0, 0.6), "field 'c' must be a finite number, got nan"),
        ("c", float("inf"), veronese(1.0, 0.6), "field 'c' must be a finite number, got inf"),
        ("c", -10**400, veronese(1.0, 0.6),
         "field 'c' must be a finite number, got int of 401 digits"),
        ("H_matrices", ("entry", float("nan")), veronese(1.0, 0.6), None),
        ("H_matrices", ("entry", 10**400), veronese(1.0, 0.6), None),
    ], ids=["n-bool", "p-bool", "mean_index-bool", "c-nan", "c-inf", "c-huge-int", "forms-nan",
            "forms-huge-int"])
    def test_bad_field_exits_four(self, capsys, tmp_path, field, value, base, line):
        # an int past the float range is no finite number, in c and in H_matrices alike
        bad = data_to_dict(base)
        if isinstance(value, tuple):
            bad["H_matrices"][1][0][1] = value[1]
        else:
            bad[field] = value
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([data_to_dict(veronese(1.0, 0.0)), bad]))
        code, out, err = run(capsys, "check", str(batch), "--no-timestamp")
        assert code == 4 and out == ""
        assert f"{batch}#1: " in err and field in err
        if line:
            assert err == f"error: {batch}#1: {line}\n"

    def test_first_bad_record_in_file_order(self, capsys, tmp_path):
        # records #1 and #3 share a stack with #0, #2 has a bad field: validation of the
        # stack must not hide #1 behind #2, nor name any record but the first bad one
        good = data_to_dict(veronese(1.0, 0.0))
        skew = data_to_dict(veronese(1.0, 0.0))
        skew["H_matrices"][1][0][1] += 1e-3
        bad_field = dict(good, n=True)
        bad_shape = dict(good, H_matrices=[[[1.0]]])   # same stack key as good
        single = tmp_path / "single.json"
        single.write_text(json.dumps(skew))
        _, _, alone = run(capsys, "check", str(single), "--no-timestamp")
        for order, first, message in (
                ([good, skew, bad_field, good], 1, None),
                ([good, bad_field, skew], 1, "fields 'n' and 'p' must be integers"),
                ([good, good, skew, skew], 2, None),
                ([good, bad_shape, skew], 1, "forms must have shape (2, 2, 2), got (1, 1, 1)")):
            batch = tmp_path / "batch.json"
            batch.write_text(json.dumps(order))
            code, out, err = run(capsys, "check", str(batch), "--no-timestamp")
            assert code == 4 and out == ""
            if message is None:
                assert err == alone.replace(str(single), f"{batch}#{first}")
            else:
                assert err == f"error: {batch}#{first}: {message}\n"

    # JSON strings and booleans are not numbers, whatever numpy would make of them; numpy
    # upcasts the bool among floats silently, so a dtype check alone would miss it
    @pytest.mark.parametrize("entries, kind", [
        ([[["0.5", "0"], ["0", "-0.5"]]], "str"),
        ([[[True, False], [False, True]]], "bool"),
        ([[[0.5, True], [True, -0.5]]], "bool"),
    ], ids=["strings", "booleans", "bool-among-floats"])
    @pytest.mark.parametrize("command", [("check",), ("ddvv", "--input")], ids=["check", "ddvv"])
    def test_non_number_entries_exit_four(self, capsys, tmp_path, command, entries, kind):
        bad = dict(data_to_dict(veronese(1.0, 0.0)), p=1, H_matrices=entries)
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([data_to_dict(veronese(1.0, 0.0)), bad]))
        message = f"field 'H_matrices' must hold numbers, got {kind}"
        code, out, err = run(capsys, *command, str(batch), "--no-timestamp")
        assert (code, out, err) == (4, "", f"error: {batch}#1: {message}\n")
        with pytest.raises(ValueError) as exc:
            data_from_dict(bad)
        assert str(exc.value) == message

    def test_integer_entries_are_numbers(self):
        big = 2**70   # past int64, so numpy holds it as an object until the float cast
        payload = dict(data_to_dict(veronese(1.0, 0.0)), p=1, H_matrices=[[[big, 0], [0, -big]]])
        expected = FundamentalData(n=2, p=1, c=1.0, forms=[np.diag([2.0**70, -2.0**70])])
        assert data_from_dict(json.loads(json.dumps(payload))) == expected

    @pytest.mark.parametrize("records, message", [
        ([1, {"data": None}], "#0: expected a JSON object, got int"),
        ([{"n": 0, "p": 1, "c": 1.0, "H_matrices": [[]]}],
         "#0: need n >= 1 and p >= 1, got n=0, p=1"),
    ], ids=["non-object", "n0"])
    @pytest.mark.parametrize("command", [("check",), ("ddvv", "--input")], ids=["check", "ddvv"])
    def test_malformed_record_exits_four(self, capsys, tmp_path, command, records, message):
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps(records))
        code, out, err = run(capsys, *command, str(batch), "--no-timestamp")
        assert (code, out, err) == (4, "", f"error: {batch}{message}\n")

    # what json.load raises beyond JSONDecodeError: a labelled exit 4, not a traceback
    @pytest.mark.parametrize("content, kind", [
        (b'{"n": 2, "p": 1, "c": ' + b"1" * 5000 + b', "H_matrices": [[[0, 0], [0, 0]]]}',
         ValueError),
        (b'{"n": 2, "p": 1, "c": 1.0, "H_matrices": [[[0, 0], [0, 0]]], "x": "\xff"}',
         UnicodeDecodeError),
        (b"[" * 100_000, RecursionError),
    ], ids=["int-past-4300-digits", "invalid-utf8", "deep-nesting"])
    @pytest.mark.parametrize("command", [("check",), ("ddvv", "--input")], ids=["check", "ddvv"])
    def test_undecodable_file_exits_four(self, capsys, tmp_path, command, content, kind):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(kind) as exc, open(path, encoding="utf-8") as fh:
            json.load(fh)
        assert type(exc.value) is kind   # no JSONDecodeError, which names a line and column
        code, out, err = run(capsys, *command, str(path), "--no-timestamp")
        assert (code, out, err) == (4, "", f"error: {path}: {exc.value}\n")

    # a missing directory and a directory: each subcommand names the --out path and exits 4
    @pytest.mark.parametrize("argv", [
        ("check", "DATA"),
        ("ddvv", "--random", "2", "2", "10"),
        ("model", "veronese"),
        ("immersion", "--builtin", "graph", "--grid", "1"),
        ("pinch", "--table", "1", "2"),
    ], ids=["check", "ddvv", "model", "immersion", "pinch"])
    def test_unwritable_out_exits_four(self, capsys, tmp_path, argv):
        argv = [write_data(tmp_path / "v.json", veronese(1.0, 0.0)) if a == "DATA" else a
                for a in argv]
        for out, reason in ((tmp_path / "missing" / "out", os.strerror(errno.ENOENT)),
                            (tmp_path, os.strerror(errno.EISDIR))):
            code, printed, err = run(capsys, *argv, "--out", str(out))
            assert (code, printed, err) == (4, "", f"error: {out}: {reason}\n")

    # all or nothing: a NaN or an unencodable value, at the top or after 8,192 items, writes no
    # stdout byte, leaves an existing --out file's bytes, creates no file and leaves no other
    def test_reports_never_hold_nan(self, capsys, tmp_path):
        existing = tmp_path / "existing.json"
        existing.write_bytes(b'{"kept": true}\n')
        for bad, kind in ((float("nan"), ValueError), (object(), TypeError)):
            for report in ({"lo": bad}, [*range(2 * 4096), bad]):
                for out in (None, existing, tmp_path / "missing.json"):
                    with pytest.raises(kind):
                        _dump(report, None if out is None else str(out))
                    assert capsys.readouterr().out == ""
                    assert existing.read_bytes() == b'{"kept": true}\n'
                    assert os.listdir(tmp_path) == ["existing.json"]

    @pytest.mark.parametrize("argv", [("model", "veronese"), ("pinch", "--table", "1", "2")],
                             ids=["model", "pinch"])
    def test_out_dev_null_exits_zero(self, capsys, argv):
        assert run(capsys, *argv, "--out", os.devnull) == (0, "", "")

    # before any input is read: a missing input would exit 4
    @pytest.mark.parametrize("argv", [
        ("check", "MISSING"),
        ("ddvv", "--input", "MISSING"),
        ("model", "veronese"),
        ("immersion", "--builtin", "graph", "--grid", "1"),
        ("pinch", "--table", "1", "2"),
    ], ids=["check", "ddvv", "model", "immersion", "pinch"])
    def test_empty_out_is_a_usage_error(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv, "--out", "")
        assert (code, out, err) == (5, "", "error: --out must name a file\n")
        assert os.listdir(tmp_path) == []

    # finite entries whose S^2 overflows, and n(n-1)c past the float range at n = 3
    @pytest.mark.parametrize("command", [("check",), ("ddvv", "--input")], ids=["check", "ddvv"])
    def test_overflowing_record_exits_four(self, capsys, tmp_path, command):
        big = dict(data_to_dict(veronese(1.0, 0.0)), p=1,
                   H_matrices=[np.diag([1e200, -1e200]).tolist()])
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([data_to_dict(veronese(1.0, 0.0)), big]))
        huge_c = tmp_path / "c.json"
        huge_c.write_text(json.dumps(dict(data_to_dict(totally_geodesic(3, 1, 1.0)), c=1e308)))
        for path, label, message in (
                (batch, f"{batch}#1", "forms too large: S^2 overflows (max |h_ij| = 1.000e+200)"),
                (huge_c, str(huge_c), "n(n-1)c overflows, got n=3, c=1e+308")):
            report = tmp_path / "report.json"
            code, out, err = run(capsys, *command, str(path), "--out", str(report),
                                 "--no-timestamp")
            assert (code, out, err) == (4, "", f"error: {label}: {message}\n")
            assert not report.exists()

    @pytest.mark.parametrize("command", [("check", "--budget", "4"), ("ddvv", "--input")],
                             ids=["check", "ddvv"])
    def test_near_limit_report_is_finite(self, capsys, tmp_path, command):
        # entries 1e70: S about 1e140, S^2 and the commutator energy about 1e280
        rng = np.random.default_rng(5)
        batch = tmp_path / "big.json"
        batch.write_text(json.dumps([data_to_dict(FundamentalData(
            n=n, p=2, c=1.0, forms=1e70 * random_tuple(n, 2, rng, traceless=True)))
            for n in (2, 3, 4, 5)]))
        code, out, err = run(capsys, *command, str(batch), "--no-timestamp")
        assert code in (0, 1, 2) and err == ""
        values = []

        def walk(node):
            if isinstance(node, dict):
                node = list(node.values())
            if isinstance(node, list):
                for item in node:
                    walk(item)
            elif isinstance(node, float):
                values.append(node)

        walk(json.loads(out))
        assert len(values) > 4 and all(np.isfinite(values))
        assert max(map(abs, values)) > 1e200


class TestDdvvCommand:
    def test_random_sweep_no_violations(self, capsys):
        code, out, _ = run(capsys, "ddvv", "--random", "4", "4", "2000",
                           "--seed", "7", "--no-timestamp")
        assert code == 0
        report = json.loads(out)
        assert report["violations"] == 0
        assert report["max_ratio"] <= 1.0 + 1e-12
        assert report["seed"] == 7

    def test_random_degenerate_dimension(self, capsys):
        code, out, _ = run(capsys, "ddvv", "--random", "2", "1", "10",
                           "--no-timestamp")
        assert code == 0
        assert json.loads(out)["max_ratio"] == 0.0

    def test_random_rejects_bad_counts(self, capsys):
        code, _, _ = run(capsys, "ddvv", "--random", "0", "2", "10")
        assert code == 5

    def test_maximize_reports_structure(self, capsys):
        code, out, _ = run(capsys, "ddvv", "--maximize", "2", "2", "4",
                           "--iters", "300", "--no-timestamp")
        assert code == 0
        report = json.loads(out)
        assert report["best_ratio"] >= 1.0 - 1e-6
        structure = report["extremal_structure"]
        assert structure is not None and structure["mu"] > 0.0
        assert structure["match_residual"] <= 1e-3

    def test_input_mode_on_model(self, capsys, tmp_path):
        path = write_data(tmp_path / "v.json", veronese(1.0, 0.0))
        code, out, _ = run(capsys, "ddvv", "--input", path, "--no-timestamp")
        assert code == 0
        rep = json.loads(out)["reports"][0]
        npt.assert_allclose(rep["ratio"], 1.0, rtol=1e-12)
        assert rep["equality"] is True

    def test_maximize_recovers_the_structure_once(self, capsys, monkeypatch):
        calls = []
        equality_structures = ddvv.equality_structures

        def counted(t):
            calls.append(len(t))
            return equality_structures(t)

        monkeypatch.setattr(ddvv, "equality_structures", counted)
        code, out, _ = run(capsys, "ddvv", "--maximize", "3", "3", "32", "--no-timestamp")
        assert code == 0 and json.loads(out)["extremal_structure"] is not None
        assert calls == [1]

    def test_mode_flags_are_exclusive(self, capsys):
        code, _, _ = run(capsys, "ddvv", "--random", "2", "2", "5",
                         "--maximize", "2", "2", "5")
        assert code == 5


class TestModelCommand:
    def test_veronese_round_trip(self, capsys):
        code, out, _ = run(capsys, "model", "veronese", "--c", "1", "--H", "0")
        assert code == 0
        assert data_from_dict(json.loads(out)) == veronese(1.0, 0.0)

    def test_product_requires_split(self, capsys):
        code, _, err = run(capsys, "model", "product-of-spheres", "--n", "4")
        assert code == 3
        assert "error:" in err

    def test_unused_field_is_rejected(self, capsys, tmp_path):
        report = tmp_path / "model.json"
        code, out, err = run(capsys, "model", "veronese", "--n", "3", "--p", "7", "--k", "2",
                             "--out", str(report))
        assert code == 3 and out == "" and not report.exists()
        assert err == "error: veronese does not take n, p, k\n"

    # sizes numpy refuses before touching memory: 711 PiB, past the index range, 213 PiB
    @pytest.mark.parametrize("argv", [
        ("totally-geodesic", "--n", "100000000", "--p", "10"),
        ("totally-geodesic", "--n", "10000000000", "--p", "100000000"),
        ("umbilical-sphere", "--n", "100000000", "--p", "3", "--H", "1"),
    ])
    def test_absurd_sizes_are_usage_errors(self, capsys, tmp_path, argv):
        report = tmp_path / "model.json"
        code, out, err = run(capsys, "model", *argv, "--out", str(report))
        assert code == 5 and out == "" and not report.exists()
        assert err.startswith("error: --n: ") and err.count("\n") == 1

    def test_unknown_kind_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "model", "moebius")
        assert code == 5

    @pytest.mark.parametrize("kind", ["totally-geodesic", "umbilical-sphere"])
    @pytest.mark.parametrize("n,p", [("3", "0"), ("3", "-1"), ("-1", "2")])
    def test_sizes_below_one_are_labelled(self, capsys, kind, n, p):
        code, out, err = run(capsys, "model", kind, "--n", n, "--p", p,
                             *(["--H", "0.5"] if kind == "umbilical-sphere" else []))
        assert (code, out) == (3, "")
        assert err == f"error: need n >= 1 and p >= 1, got n={n}, p={p}\n"

    @pytest.mark.parametrize("H", ["inf", "-inf", "nan"])
    def test_non_finite_mean_curvature_is_labelled(self, capsys, tmp_path, H):
        # refused before H * I, whose RuntimeWarning the test configuration makes an error
        report = tmp_path / "model.json"
        code, out, err = run(capsys, "model", "umbilical-sphere", "--n", "3", "--p", "2",
                             f"--H={H}", "--out", str(report))
        assert (code, out, err) == (3, "", f"error: mean curvature H must be finite, got H={H}\n")
        assert not report.exists()

    def test_default_umbilical_sphere_is_checked(self, capsys, tmp_path):
        # the default --H 0 writes minimal data with no mean slot, which thm1 decides
        model = tmp_path / "umbilical0.json"
        assert run(capsys, "model", "umbilical-sphere", "--n", "3", "--p", "2",
                   "--out", str(model))[0] == 0
        assert json.loads(model.read_text())["mean_index"] is None
        code, out, err = run(capsys, "check", str(model), "--no-timestamp")
        assert (code, err) == (0, "")
        [v] = json.loads(out)["records"][0]["verdicts"]
        assert (v["theorem"], v["status"], v["label"]) == ("thm1", "strict", "TotallyGeodesic")


    # an H that verdict's zero-mean test finds zero gets no mean slot, so check decides the
    # file under thm1 instead of refusing thm2: the sphere is totally geodesic, and the
    # Veronese surface, written with its (zero) mean member at p = 3, sits below thm1's 3/8
    @pytest.mark.parametrize("argv,code,status,label", [
        (("umbilical-sphere", "--n", "3", "--p", "2"), 0, "strict", "TotallyGeodesic"),
        (("veronese",), 1, "fails", "Undetermined"),
    ], ids=["umbilical-sphere", "veronese"])
    def test_negligible_mean_is_checked_as_minimal(self, capsys, tmp_path, argv, code, status,
                                                   label):
        model = tmp_path / "model.json"
        assert run(capsys, "model", *argv, "--H", "1e-13", "--out", str(model))[0] == 0
        assert json.loads(model.read_text())["mean_index"] is None
        got, out, err = run(capsys, "check", str(model), "--no-timestamp")
        assert (got, err) == (code, "")
        [v] = json.loads(out)["records"][0]["verdicts"]
        assert (v["theorem"], v["status"], v["label"]) == ("thm1", status, label)


class TestImmersionCommand:
    def test_grid_samples_round_trip(self, capsys):
        code, out, _ = run(capsys, "immersion", "--builtin", "graph", "--grid", "2")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 4
        expected = sample_grid(builtin("graph"), 2)
        for obj, sample in zip(payload, expected):
            assert sample_from_dict(obj) == sample

    def test_unknown_builtin_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "immersion", "--builtin", "sphere")
        assert code == 5

    # the last two ask for a (grid^2, 2) points array past numpy's index range, which numpy
    # refuses before touching memory
    @pytest.mark.parametrize("argv,flag", [
        (("--grid", "0"), "--grid"),
        (("--grid", "-2"), "--grid"),
        (("--grid", "1000000000000"), "--grid: "),
        (("--grid", "100000000000000000000"), "--grid: "),
    ])
    def test_bad_arguments_are_usage_errors(self, capsys, argv, flag):
        code, out, err = run(capsys, "immersion", "--builtin", "graph", *argv)
        assert code == 5 and out == ""
        assert err.startswith("error: ") and flag in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("name", ["clifford", "veronese"])
    def test_readme_pipeline_at_default_tol(self, capsys, tmp_path, name):
        # exact jets put the trace of these minimal maps far below the 1e-8 gate
        out_file = tmp_path / "samples.json"
        code, _, _ = run(capsys, "immersion", "--builtin", name, "--grid", "16",
                         "--out", str(out_file))
        assert code == 0
        code, out, err = run(capsys, "check", str(out_file), "--no-timestamp")
        assert code == 0 and err == ""
        records = json.loads(out)["records"]
        assert len(records) == 256
        assert all("error" not in r for r in records)

    def test_report_memory_is_bounded(self, tmp_path):
        # the 3.3 MB report of 2,304 samples is built and encoded a sample at a time, never
        # whole: about 7 MiB here, where the whole string and its chunk list held 26 MiB
        tracemalloc.start()
        try:
            code = main(["immersion", "--builtin", "veronese", "--grid", "48",
                         "--out", str(tmp_path / "samples.json")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 16 * 2**20

    def test_check_report_memory_is_bounded(self, tmp_path):
        # check of the 2,304 grid-48 samples builds and encodes one record dict at a time,
        # and holds only the report's text: about 9.4 MiB here, where every record's dict
        # beside the encoded text took 14 MiB
        samples = tmp_path / "samples.json"
        assert main(["immersion", "--builtin", "veronese", "--grid", "48",
                     "--out", str(samples)]) == 0
        tracemalloc.start()
        try:
            code = main(["check", str(samples), "--out", str(tmp_path / "report.json")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 12 * 2**20

    def test_check_memory_does_not_grow_with_the_group(self, tmp_path):
        # one shape group of 400 n = 8 records: the bracket kernel builds their (n, n, n, n)
        # Gauss tensors a slice at a time: 2.4 MiB here, as one record at a time did, where
        # the whole group's tensors at once took 26 MiB
        rng = np.random.default_rng(64)
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([data_to_dict(FundamentalData(
            n=8, p=1, c=1.0, forms=0.3 * random_tuple(8, 1, rng, traceless=True)))
            for _ in range(400)]))
        tracemalloc.start()
        try:
            code = main(["check", str(batch), "--no-timestamp", "--out", str(tmp_path / "r.json")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code in (0, 1, 2)
        assert peak < 6 * 2**20

    def test_check_consumes_immersion_output(self, capsys, tmp_path):
        out_file = tmp_path / "samples.json"
        code, _, _ = run(capsys, "immersion", "--builtin", "clifford",
                         "--grid", "2", "--out", str(out_file))
        assert code == 0
        code, out, _ = run(capsys, "check", str(out_file), "--no-timestamp",
                           "--tol", "1e-6")
        assert code == 0
        records = json.loads(out)["records"]
        assert len(records) == 4
        assert all(r["input"].endswith(f"#{i}") for i, r in enumerate(records))


class TestPinchCommand:
    def test_table_cells_match_thresholds(self, capsys):
        code, out, _ = run(capsys, "pinch", "--table", "6", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,n,yau,itoh,thm1,thm2@c+H^2=1,generalized_i,generalized_ii"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 6 * 5  # p in 1..6, n in 2..6
        for cells in rows:
            p, n = int(cells[0]), int(cells[1])
            assert float(cells[2]) == threshold_yau(p)
            assert float(cells[3]) == threshold_itoh(n)
            assert float(cells[4]) == threshold_thm1(p)
            assert float(cells[5]) == threshold_thm2(p, 1.0, 0.0)
            assert float(cells[6]) == threshold_generalized(p, n, 1.0, 0.0)
            assert float(cells[7]) == threshold_generalized(p, n, 0.0, 1.0)
            if p >= 3:
                assert float(cells[4]) < float(cells[2])

    def test_frozen_rows(self, capsys):
        _, out, _ = run(capsys, "pinch", "--table", "4", "2")
        by_p = {line.split(",")[0]: line.split(",") for line in
                out.strip().splitlines()[1:]}
        assert by_p["2"][2] == "0.3333333333333333" == by_p["2"][4]
        assert by_p["4"][2] == "0.42857142857142855"
        assert by_p["4"][4] == "0.4"

    def test_out_file_holds_the_stdout_bytes(self, capsys, tmp_path):
        table = tmp_path / "table.csv"
        _, printed, _ = run(capsys, "pinch", "--table", "3", "4")
        code, out, err = run(capsys, "pinch", "--table", "3", "4", "--out", str(table))
        assert (code, out, err) == (0, "", "")
        assert table.read_bytes() == printed.encode()

    def test_bad_table_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "pinch", "--table", "0", "5")
        assert code == 5


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        (),
        ("frobnicate",),
        ("check",),
        ("check", "x.json", "--theorem", "thm9"),
        ("ddvv",),
        ("pinch",),
        ("ddvv", "--random", "2", "2", "5", "extra"),
        ("model", "torus"),
        ("immersion", "--builtin", "torus"),
    ])
    def test_exit_five(self, capsys, argv):
        # main parses with one subcommand's arguments; the bytes are the full parser's
        assert main(list(argv)) == 5
        err = capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(list(argv))
        assert exc.value.code == 5
        assert capsys.readouterr().err == err


class TestImportSets:
    """A subcommand imports only the package modules it runs (a fresh process each)."""

    @pytest.mark.parametrize("argv, runs", [
        (["ddvv", "--random", "3", "2", "10"], {"ddvv", "symmat"}),
        (["ddvv", "--maximize", "2", "2", "2", "--iters", "5"], {"ddvv", "symmat"}),
        (["check", "DATA"], {"curvature", "ddvv", "pinching", "symmat"}),
        (["immersion", "--builtin", "graph", "--grid", "1"], {"curvature", "immersion", "symmat"}),
        (["pinch", "--table", "1", "2"], {"pinching"}),
        (["check", "-h"], {"pinching"}),
    ])
    def test_subcommand_loads_only_what_it_runs(self, tmp_path, argv, runs):
        argv = [write_data(tmp_path / "v.json", veronese(1.0, 0.0)) if a == "DATA" else a
                for a in argv] + ["--out", str(tmp_path / "out")]
        script = ("import json, sys\nfrom rigidity import cli\n"
                  f"code = cli.main({argv!r})\n"
                  "print(json.dumps([code, sorted(m for m in sys.modules"
                  " if m.split('.')[0] == 'rigidity')]))")
        done = run_python(["-c", script], text=True, check=True)
        code, modules = json.loads(done.stdout.splitlines()[-1])
        assert code == 0
        assert set(modules) - {"rigidity", "rigidity.cli"} <= {f"rigidity.{m}" for m in runs}

    # numpy loads only in a handler that computes, after its argument checks
    @pytest.mark.parametrize("argv, code, runs", [
        (["pinch", "--table", "1", "2"], 0, {"pinching"}),
        (["check", "-h"], 0, {"pinching"}),
        (["ddvv", "-h"], 0, set()),
        (["check"], 5, {"pinching"}),
        (["check", "x.json", "--budget", "-1"], 5, {"pinching"}),
        (["ddvv", "--random", "0", "1", "1"], 5, set()),
        (["ddvv", "--maximize", "2", "2", "0"], 5, set()),
    ], ids=["pinch", "check-help", "ddvv-help", "check-no-input", "check-budget",
            "ddvv-random", "ddvv-maximize"])
    def test_no_numpy_without_compute(self, argv, code, runs):
        script = ("import json, sys\nfrom rigidity import cli\n"
                  f"code = cli.main({argv!r})\n"
                  "print(json.dumps([code, 'numpy' in sys.modules, sorted(m for m in"
                  " sys.modules if m.split('.')[0] == 'rigidity')]))")
        done = run_python(["-c", script], text=True, check=True)
        assert json.loads(done.stdout.splitlines()[-1]) == [
            code, False, sorted({"rigidity", "rigidity.cli"} | {f"rigidity.{m}" for m in runs})]

    def test_closed_brackets_draw_no_random_starts(self, tmp_path):
        # a hypersurface point with a simple bottom eigenvalue: its (8, 1) bracket closes in
        # closed form, so no random start is drawn and numpy.random is never imported
        data = FundamentalData(n=8, p=1, c=1.0, forms=0.3 * random_tuple(
            8, 1, np.random.default_rng(3), traceless=True))
        argv = ["check", write_data(tmp_path / "h.json", data), "--out", str(tmp_path / "out")]
        script = ("import json, sys\nfrom rigidity import cli\n"
                  f"code = cli.main({argv!r})\n"
                  "print(json.dumps([code, 'numpy.random' in sys.modules]))")
        done = run_python(["-c", script], text=True, check=True)
        assert json.loads(done.stdout.splitlines()[-1]) == [1, False]   # K_min < 0: fails

    @pytest.mark.parametrize("argv, searches", [
        (["check", 0], 1), (["check", 1], 1), (["ddvv", "--maximize", "3", "3", "32"], 0),
    ], ids=["n5", "n6", "ddvv-maximize"])
    def test_searching_check_loads_no_numpy_random(self, tmp_path, monkeypatch, argv,
                                                   searches):
        # the plane search and the ratio ascent draw their starts from the standard
        # library's random.Random, so not even an open bracket or a multistart ascent loads
        # numpy.random, secrets or OpenSSL's _hashlib
        argv = [write_data(tmp_path / "s.json", SEARCHING[a]) if isinstance(a, int) else a
                for a in argv]
        calls = counted_searches(monkeypatch)
        expected = main(argv + ["--out", str(tmp_path / "in-process")])
        assert len(calls) == searches
        argv += ["--out", str(tmp_path / "out")]
        script = ("import json, sys\nfrom rigidity import cli\n"
                  f"code = cli.main({argv!r})\n"
                  "print(json.dumps([code, sorted(m for m in ('numpy.random', 'secrets',"
                  " '_hashlib') if m in sys.modules)]))")
        done = run_python(["-c", script], text=True, check=True)
        assert json.loads(done.stdout.splitlines()[-1]) == [expected, []]


class TestProcessExit:
    """`python -m rigidity.cli` ends in entry's os._exit once stdout and stderr are flushed:
    its exit code, stdout, stderr and --out file are in-process main's, byte for byte.  A
    stdout that cannot be written exits 4 with one error line, as an unwritable --out does,
    and a raising main exits as Python's own teardown reports it."""

    @pytest.fixture
    def batch(self, tmp_path):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps([data_to_dict(d) for d in (
            veronese(1.0, 0.0), veronese(1.0, 0.6), FAILS_DATA, product_of_spheres(4, 2, 1.0),
            totally_geodesic(3, 2, 1.0))]))
        return str(path)

    @pytest.mark.parametrize("argv,code", [
        (["check", "BATCH", "--no-timestamp", "--out"], 1),
        (["check", "BATCH", "--no-timestamp", "--jobs", "3"], 1),
        (["check", "BATCH", "--theorem", "thm1", "--no-timestamp"], 3),   # an error record
        (["ddvv", "--input", "BATCH", "--no-timestamp", "--out"], 0),
        (["ddvv", "--random", "3", "2", "5000", "--seed", "7", "--no-timestamp"], 0),
        (["ddvv", "--maximize", "2", "2", "3", "--iters", "50", "--no-timestamp", "--out"], 0),
        (["model", "veronese"], 0),
        (["model", "product-of-spheres", "--n", "4", "--k", "1", "--out"], 0),
        (["immersion", "--builtin", "clifford", "--grid", "3", "--out"], 0),
        (["pinch", "--table", "4", "5"], 0),
        (["check", "BATCH", "--jobs", "0"], 5),
        (["check", "BATCH", "--tol"], 5),
        (["check", "MISSING"], 4),
    ], ids=["check-out", "check-jobs3", "check-error-record", "ddvv-input", "ddvv-random",
            "ddvv-maximize", "model", "model-out", "immersion-out", "pinch", "usage-jobs",
            "usage-argparse", "parse-missing-file"])
    def test_process_is_main(self, capsys, tmp_path, batch, argv, code):
        argv = [{"BATCH": batch, "MISSING": str(tmp_path / "missing.json")}.get(a, a)
                for a in argv]
        outs = [tmp_path / "main.out", tmp_path / "process.out"] if argv[-1] == "--out" else []
        assert main(argv + list(map(str, outs[:1]))) == code
        captured = capsys.readouterr()
        done = run_python(["-m", "rigidity.cli", *argv, *map(str, outs[1:])])
        assert (done.returncode, done.stdout.decode(), done.stderr.decode()) == (
            code, captured.out, captured.err)
        assert [out.read_bytes() for out in outs[1:]] == [out.read_bytes() for out in outs[:1]]

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_stdout_past_the_pipe_buffer(self, capsys, unbuffered):
        # about 207 KB, more than a 64 KiB pipe holds: every byte arrives, buffered or not
        argv = ["immersion", "--builtin", "veronese", "--grid", "12"]
        code = main(argv)
        out = capsys.readouterr().out
        done = run_python(["-m", "rigidity.cli", *argv], unbuffered=unbuffered)
        assert (done.returncode, done.stderr) == (code, b"")
        assert len(out) > 3 * 65536 and done.stdout.decode() == out

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_full_disk_exits_4(self, unbuffered):
        # unbuffered, main's own write fails; buffered, entry's final flush does
        with open("/dev/full", "w") as full:
            done = run_python(["-m", "rigidity.cli", "pinch", "--table", "2", "2"],
                              unbuffered=unbuffered, stdout=full)
        assert (done.returncode, done.stderr) == (
            4, b"error: <stdout>: No space left on device\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]], ids=["top", "check"])
    def test_help_to_a_full_disk_exits_4(self, argv, unbuffered):
        # unbuffered, argparse's own write fails, which it would pass over; buffered, the
        # final flush does
        with open("/dev/full", "w") as full:
            done = run_python(["-m", "rigidity.cli", *argv], unbuffered=unbuffered, stdout=full)
        assert (done.returncode, done.stderr) == (
            4, b"error: <stdout>: No space left on device\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv, code", [
        (["pinch", "--table", "2", "2"], 4),   # stdout is full too
        (["check"], 5),
        (["ddvv", "--random", "0", "1", "1"], 5),
    ], ids=["report", "usage-argparse", "usage-handler"])
    def test_full_stderr_keeps_the_exit_code(self, argv, code, unbuffered):
        # no error line can be written, but the code still says what went wrong
        with open("/dev/full", "w") as full:
            done = run_python(["-m", "rigidity.cli", *argv], unbuffered=unbuffered,
                              stdout=full if code == 4 else subprocess.PIPE, stderr=full)
        assert done.returncode == code

    def test_closed_reader_exits_4(self):
        read, write = os.pipe()
        os.close(read)
        try:
            done = run_python(["-m", "rigidity.cli", "pinch", "--table", "2", "2"], stdout=write)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (4, b"error: <stdout>: Broken pipe\n")

    def test_reader_that_stops_early_exits_4(self):
        # as `| head -c 100`: the report is past the pipe buffer, so a write of main's fails
        read, write = os.pipe()
        reader = threading.Thread(target=lambda: (os.read(read, 100), os.close(read)))
        reader.start()
        try:
            done = run_python(["-m", "rigidity.cli", "immersion", "--builtin", "veronese",
                               "--grid", "12"], stdout=write)
        finally:
            os.close(write)
            reader.join()
        assert (done.returncode, done.stderr) == (4, b"error: <stdout>: Broken pipe\n")

    def test_raising_main_prints_its_traceback(self):
        script = ("from rigidity import cli\n"
                  "def main():\n    print('partial')\n    raise RuntimeError('boom')\n"
                  "cli.main = main\ncli.entry()\n")
        done = run_python(["-c", script])
        assert (done.returncode, done.stdout) == (1, b"partial\n")
        assert done.stderr.startswith(b"Traceback (most recent call last):")
        assert done.stderr.endswith(b"\nRuntimeError: boom\n")


class TestSharedKernelsInCli:
    def test_batch_hypothesis_error_names_the_record(self, capsys, tmp_path):
        # the errored record becomes {"input", "error"}; its neighbours are still checked
        path = tmp_path / "batch.json"
        good = data_to_dict(veronese(1.0, 0.0))
        path.write_text(json.dumps([good, data_to_dict(veronese(1.0, 0.6)), good]))
        for jobs in ("1", "3"):
            code, out, err = run(capsys, "check", str(path), "--theorem", "thm1",
                                 "--no-timestamp", "--jobs", jobs)
            assert code == 3
            records = json.loads(out)["records"]
            assert [r["input"] for r in records] == [f"{path}#{i}" for i in range(3)]
            assert set(records[1]) == {"input", "error"}
            assert records[1]["error"].startswith("thm1 requires minimal data")
            assert records[0]["status"] == records[2]["status"] == "boundary"
            assert f"error: {path}#1: thm1 requires minimal data" in err
            assert "#0" not in err and "#2" not in err

    def test_error_record_bytes(self, capsys, tmp_path):
        path = write_data(tmp_path / "mean.json", veronese(1.0, 0.6))
        code, out, err = run(capsys, "check", path, "--theorem", "thm1", "--no-timestamp")
        message = "thm1 requires minimal data: some tr(H_a) is nonzero beyond tolerance"
        assert code == 3
        assert out == ('{\n  "records": [\n    {\n      "input": ' + json.dumps(path)
                       + ',\n      "error": "' + message + '"\n    }\n  ]\n}\n')
        assert err == f"error: {path}: {message}\n"

    def test_errored_record_is_the_worst_of_its_batch(self, capsys, tmp_path):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps([data_to_dict(FAILS_DATA),
                                    data_to_dict(veronese(1.0, 0.6))]))
        code, out, _ = run(capsys, "check", str(path), "--theorem", "thm1",
                           "--no-timestamp")
        assert code == 3
        records = json.loads(out)["records"]
        assert records[0]["status"] == "fails" and "error" in records[1]

    # On seeds 0 and 2 an einsum of the energy over all ordered pairs gives a max_ratio one
    # bit off the shared kernel's pairwise sum, so a second copy in the CLI shows.  The
    # trial counts around a batch (2,048 tuples at n = 4, m = 2; 91 at n = 12, m = 5)
    # hold the overlapped batches and the tail batch to one serial draw.
    @pytest.mark.parametrize("seed, n, m, trials", [
        (0, 3, 2, 50), (2, 3, 2, 50), (3, 3, 2, 50),
        (0, 3, 2, 1), (4, 4, 2, 2047), (5, 4, 2, 2048), (6, 4, 2, 2049), (7, 3, 3, 5000),
        (8, 1, 3, 300), (9, 3, 1, 300), (10, 12, 5, 300),
    ], ids=["0", "2", "3", "trials1", "trials2047", "trials2048", "trials2049", "trials5000",
            "n1", "m1", "n12m5"])
    def test_random_sweep_uses_the_shared_energy(self, capsys, seed, n, m, trials):
        code, out, _ = run(capsys, "ddvv", "--random", str(n), str(m), str(trials),
                           "--seed", str(seed), "--no-timestamp")
        assert code == 0
        loop = max(ddvv_evaluate(t).ratio for t in packed_tuples(seed, trials, m, n))
        assert json.loads(out)["max_ratio"] == loop

    def test_random_sweep_hands_every_batch_over_once(self, capsys, monkeypatch):
        # a slow evaluation and fast thread switching: a draw buffer reused too early
        # repeats or loses a batch
        seen = []

        def recorded(t):
            seen.append(t.copy())
            time.sleep(0.005)
            return ddvv_ratio_terms(t)

        monkeypatch.setattr(ddvv, "ratio_terms", recorded)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            code, out, _ = run(capsys, "ddvv", "--random", "4", "2", "10000", "--seed", "11",
                               "--no-timestamp")
        finally:
            sys.setswitchinterval(interval)
        assert code == 0
        tuples = packed_tuples(11, 10000, 2, 4)
        assert [len(t) for t in seen] == [2048] * 4 + [1808]
        npt.assert_array_equal(np.concatenate(seen), tuples)
        assert json.loads(out)["max_ratio"] == np.max(ddvv_ratio_terms(tuples)[2])

    def test_random_sweep_memory_is_bounded(self, capsys):
        # a batch fills a cli.SWEEP_BYTES buffer whatever the tuple size: 64 tuples here,
        # where 1,024 would hold 8 MiB in each of the three buffers
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, "ddvv", "--random", "16", "4", "1024", "--no-timestamp")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("stage", ["draw", "evaluate"])
    def test_random_sweep_failure_reaches_the_caller(self, capsys, monkeypatch, stage):
        # the helper thread's failure re-raises, and the helper is gone whichever side fails
        default_rng = np.random.default_rng

        class FailingSecondDraw:
            def __init__(self, seed):
                self.rng, self.calls = default_rng(seed), 0

            def standard_normal(self, *args, **kwargs):
                self.calls += 1
                if self.calls == 2:
                    raise RuntimeError("draw failed")
                return self.rng.standard_normal(*args, **kwargs)

        def failing(t):
            raise RuntimeError("evaluate failed")

        if stage == "draw":
            monkeypatch.setattr(np.random, "default_rng", FailingSecondDraw)
        else:
            monkeypatch.setattr(ddvv, "ratio_terms", failing)
        threads, failures = threading.active_count(), []

        def command():
            try:
                main(["ddvv", "--random", "3", "2", "5000", "--no-timestamp"])
            except RuntimeError as exc:
                failures.append(str(exc))

        runner = threading.Thread(target=command, daemon=True)
        runner.start()
        runner.join(timeout=30)
        assert not runner.is_alive()
        assert failures == [f"{stage} failed"]
        assert threading.active_count() == threads
        assert capsys.readouterr().out == ""

    # sizes whose arrays numpy refuses before touching memory: past the index range,
    # or 6.94 EiB, more than any address space maps
    @pytest.mark.parametrize("argv", [
        ("--random", "1000000", "1000000", "10"),
        ("--maximize", "1000000", "1000000", "10"),
        ("--maximize", "1000000", "1000000", "1"),
    ])
    def test_absurd_sizes_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, "ddvv", *argv, "--no-timestamp")
        assert code == 5 and out == ""
        assert err.startswith(f"error: {argv[0]}: ") and err.count("\n") == 1


class TestArrayPass:
    """`check` evaluates a file's records as shape groups; nothing in a report may show it."""

    RECORDS = [
        veronese(1.0, 0.0),                                                    # n = 2, p = 2
        totally_geodesic(3, 2, 1.0),                                           # n = 3
        FundamentalData(n=2, p=1, c=1.0, forms=[np.diag([0.4, -0.4])]),        # n = 2, p = 1
        FundamentalData(n=2, p=2, c=0.5, forms=veronese(1.0, 0.0).forms),     # same shape, c
        INDET_DATA,                                                            # n = 5
        veronese(1.0, 0.6),                                                    # mean-aligned
        FundamentalData(n=2, p=3, c=1.0, forms=random_tuple(2, 3, np.random.default_rng(9),
                                                            scale=0.3, traceless=True)),
        FundamentalData(n=2, p=1, c=1.0, forms=[np.eye(2)]),                   # thm1 error
        FAILS_DATA,                                                            # n = 2, p = 2
        totally_geodesic(3, 2, -0.0),                                          # c = -0.0
        totally_geodesic(3, 2, 0.0),
        FundamentalData(n=1, p=1, c=1.0, forms=[[[0.3]]]),                     # no bracket
        FundamentalData(n=3, p=2, c=1.0, forms=random_tuple(3, 2, np.random.default_rng(10),
                                                            scale=0.3, traceless=True)),
        totally_geodesic(4, 2, 1.0),                                           # n = 4 group
        FundamentalData(n=4, p=2, c=1.0, forms=random_tuple(4, 2, np.random.default_rng(11),
                                                            scale=0.3, traceless=True)),
        _turned(INDET_DATA, 65),                                               # INDET's group
    ]

    def _one_file_per_record(self, capsys, tmp_path, flags, labels):
        """(stdout, stderr, worst exit code) of one `check` per record, relabelled."""
        expected, errors, worst = [], [], 0
        for i, (data, label) in enumerate(zip(self.RECORDS, labels)):
            single = write_data(tmp_path / f"single{i}.json", data)
            code, out, err = run(capsys, "check", single, *flags)
            expected.append(dict(json.loads(out)["records"][0], input=label))
            errors.append(err.replace(single, label))
            worst = max(worst, code)
        return json.dumps({"records": expected}, indent=2) + "\n", "".join(errors), worst

    @pytest.mark.parametrize("jobs", ["1", "3"])
    def test_interleaved_file_equals_one_file_per_record(self, capsys, tmp_path, jobs):
        flags = ("--budget", "4", "--no-timestamp", "--jobs", jobs)
        batch = tmp_path / "batch.json"
        expected, errors, worst = self._one_file_per_record(
            capsys, tmp_path, flags, [f"{batch}#{i}" for i in range(len(self.RECORDS))])
        batch.write_text(json.dumps([data_to_dict(d) for d in self.RECORDS]))
        code, out, err = run(capsys, "check", str(batch), *flags)
        assert out == expected
        assert err == errors and err.count("error: ") == 5
        assert "#11: sectional curvature needs n >= 2\n" in err
        assert "#9: thm1 is stated in a unit sphere, got c = -0.0\n" in err  # not grouped with #10
        assert code == worst == 3

    def test_two_files_equal_one_file_per_record(self, capsys, tmp_path):
        # #0/#8 and #2/#7 share a shape group across the files: the array pass regroups them
        flags = ("--budget", "4", "--no-timestamp")
        halves = (tmp_path / "a.json", self.RECORDS[:6]), (tmp_path / "b.json", self.RECORDS[6:])
        expected, errors, worst = self._one_file_per_record(
            capsys, tmp_path, flags, [f"{path}#{i}" for path, part in halves
                                      for i in range(len(part))])
        for path, part in halves:
            path.write_text(json.dumps([data_to_dict(d) for d in part]))
        code, out, err = run(capsys, "check", *(str(path) for path, _ in halves), *flags)
        assert (out, err, code) == (expected, errors, worst)

    def test_ddvv_input_equals_one_file_per_record(self, capsys, tmp_path):
        expected = []
        for i, data in enumerate(self.RECORDS):
            single = write_data(tmp_path / f"single{i}.json", data)
            _, out, _ = run(capsys, "ddvv", "--input", single, "--no-timestamp")
            expected.append(dict(json.loads(out)["reports"][0],
                                 input=f"{tmp_path / 'batch.json'}#{i}"))
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([data_to_dict(d) for d in self.RECORDS]))
        code, out, _ = run(capsys, "ddvv", "--input", str(batch), "--no-timestamp")
        assert code == 0
        assert out == json.dumps({"mode": "input", "reports": expected, "timestamp": None},
                                 indent=2) + "\n"


class TestSearchArguments:
    """Out-of-range search counts are usage errors, as `--random` counts are."""

    @pytest.mark.parametrize("argv,flag", [
        (("--maximize", "3", "3", "0"), "--maximize"),
        (("--maximize", "0", "3", "4"), "--maximize"),
        (("--maximize", "3", "-1", "2"), "--maximize"),
        (("--maximize", "2", "2", "2", "--iters", "-1"), "--iters"),
    ])
    def test_maximize_rejects(self, capsys, argv, flag):
        code, out, err = run(capsys, "ddvv", *argv, "--no-timestamp")
        assert code == 5 and out == ""
        assert err.startswith("error: ") and flag in err
        assert len(err.strip().splitlines()) == 1

    def test_maximize_accepts_zero_iters(self, capsys):
        code, out, _ = run(capsys, "ddvv", "--maximize", "2", "2", "2", "--iters", "0",
                           "--no-timestamp")
        assert code == 0 and json.loads(out)["iterations"] == 0

    def test_check_rejects_negative_budget(self, capsys, tmp_path):
        path = write_data(tmp_path / "v.json", veronese(1.0, 0.0))
        code, out, err = run(capsys, "check", path, "--budget", "-3", "--no-timestamp")
        assert code == 5 and out == ""
        assert err == "error: --budget must be >= 0\n"

    # the seed reaches the plane search of the n = 5 record, never the n = 2 one
    @pytest.mark.parametrize("argv", [
        ("check", "MIXED"),
        ("ddvv", "--random", "2", "2", "10"),
        ("ddvv", "--maximize", "2", "2", "2"),
        ("ddvv", "--input", "MIXED"),
    ], ids=["check", "random", "maximize", "input"])
    def test_negative_seed_is_a_usage_error(self, capsys, tmp_path, argv):
        mixed = tmp_path / "mixed.json"
        mixed.write_text(json.dumps([data_to_dict(INDET_DATA),
                                     data_to_dict(veronese(1.0, 0.0))]))
        report = tmp_path / "report.json"
        argv = [str(mixed) if a == "MIXED" else a for a in argv]
        code, out, err = run(capsys, *argv, "--seed", "-1", "--out", str(report),
                             "--no-timestamp")
        assert (code, out, err) == (5, "", "error: --seed must be >= 0\n")
        assert not report.exists()

    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_check_rejects_bad_jobs(self, capsys, tmp_path, jobs):
        path = write_data(tmp_path / "v.json", veronese(1.0, 0.0))
        report = tmp_path / "report.json"
        code, out, err = run(capsys, "check", path, "--jobs", jobs, "--out", str(report),
                             "--no-timestamp")
        assert code == 5 and out == "" and not report.exists()
        assert err == "error: --jobs must be >= 1\n"

    # the doubled Veronese forms fail thm1 (K = -5/3 against 1/3); an infinite
    # --tol would certify them as boundary
    @pytest.mark.parametrize("tol", ["inf", "nan", "-1", "-inf"])
    def test_check_rejects_bad_tol(self, capsys, tmp_path, tol):
        path = write_data(tmp_path / "fails.json", FAILS_DATA)
        report = tmp_path / "report.json"
        code, out, err = run(capsys, "check", path, f"--tol={tol}", "--out", str(report),
                             "--no-timestamp")
        assert code == 5 and out == "" and not report.exists()
        assert err == "error: --tol must be a finite number >= 0\n"

    def test_n2_reports_ignore_budget_and_seed(self, capsys, tmp_path):
        rng = np.random.default_rng(12)
        batch = [data_to_dict(veronese(1.0, 0.0)), data_to_dict(veronese(1.0, 0.4))]
        batch += [data_to_dict(FundamentalData(
            n=2, p=p, c=1.0, forms=random_tuple(2, p, rng, scale=0.3, traceless=True)))
            for p in (1, 2, 3)]
        batch += [{"data": data_to_dict(s.data)} for s in sample_grid(builtin("clifford"), 2)]
        path = tmp_path / "n2.json"
        path.write_text(json.dumps(batch))
        outs = set()
        for extra in (["--budget", "0"], ["--budget", "64"], ["--seed", "1"], ["--seed", "9"]):
            code, out, _ = run(capsys, "check", str(path), "--no-timestamp", *extra)
            assert code in (0, 1, 2)
            assert len(json.loads(out)["records"]) == len(batch)
            outs.add(out)
        assert len(outs) == 1


class TestSettableValues:
    """Every flag is a configuration the tests must cover, so the set is pinned."""

    def test_option_strings_are_pinned(self):
        # adding a flag edits this literal, and CHANGES.md says what it buys
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        options = {name: {s for a in p._actions for s in a.option_strings}
                   for name, p in sub.choices.items()}
        helps = {"-h", "--help"}
        assert options == {
            "check": helps | {"--theorem", "--tol", "--budget", "--seed", "--jobs", "--out",
                              "--no-timestamp"},
            "ddvv": helps | {"--random", "--maximize", "--input", "--iters", "--seed", "--out",
                             "--no-timestamp"},
            "model": helps | {"--n", "--p", "--k", "--c", "--H", "--out"},
            "immersion": helps | {"--builtin", "--grid", "--out"},
            "pinch": helps | {"--table", "--out"},
        }

    def test_step_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "immersion", "--builtin", "graph", "--step", "1e-4")
        assert code == 5 and out == "" and "--step" in err

    def test_seed_environment_is_ignored(self, capsys, tmp_path, monkeypatch):
        # only --seed picks the seed (default 0), so the same argv gives the same bytes
        path = write_data(tmp_path / "indet.json", INDET_DATA)
        commands = [("ddvv", "--random", "3", "3", "50", "--no-timestamp"),
                    ("check", path, "--budget", "4", "--no-timestamp")]
        monkeypatch.delenv("RIGIDITY_SEED", raising=False)
        plain = [run(capsys, *argv) for argv in commands]
        monkeypatch.setenv("RIGIDITY_SEED", "11")
        assert [run(capsys, *argv) for argv in commands] == plain
        assert json.loads(plain[0][1])["seed"] == 0
