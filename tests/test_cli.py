"""End-to-end command line behavior, run in-process through main(argv).

Exit-code contract under test: 0 strict/boundary, 1 fails, 2 indeterminate,
3 hypothesis violation, 4 parse error, 5 usage error.  Reports are JSON on
stdout unless --out is given; determinism is byte-level once --no-timestamp
strips wall-clock fields.
"""

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from rigidity import cli, curvature, ddvv, pinching
from rigidity.cli import _dump, data_from_dict, data_to_dict, main
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
from rigidity.symmat import random_tuple


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
        kmin_bracket, surface_brackets = curvature.kmin_bracket, curvature.surface_brackets

        def counted(data, *args, **kwargs):
            calls.append(data)
            return kmin_bracket(data, *args, **kwargs)

        def counted_surfaces(forms, c):  # the n = 2 brackets of one array pass
            calls.extend(forms)
            return surface_brackets(forms, c)

        for module in (curvature, pinching):
            monkeypatch.setattr(module, "kmin_bracket", counted)
        monkeypatch.setattr(curvature, "surface_brackets", counted_surfaces)
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
    """The key order and the verdict summary of a `check` record, pinned."""

    RECORD_KEYS = ["input", "shape", "invariants", "kmin_bracket", "ddvv", "verdicts",
                   "status", "exit_hint", "timestamp", "elapsed_s"]
    VERDICT_KEYS = ["theorem", "threshold", "kmin_bracket", "status", "label", "notes"]
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
            assert list(record["ddvv"]) == ["lhs", "rhs", "ratio", "equality",
                                            "extremal_structure"]
            for v in record["verdicts"]:
                assert list(v) == self.VERDICT_KEYS
                assert list(v["kmin_bracket"]) == ["lo", "hi"]
        assert list(records[0]["ddvv"]["extremal_structure"]) == [
            "active", "mu", "normal_rotation", "tangent_rotation", "offplane_frac",
            "match_residual"]
        assert records[1]["ddvv"]["extremal_structure"] is None
        assert records[2] == {"input": f"{batch}#2", "error": self.MESSAGE}
        assert err == f"error: {batch}#2: {self.MESSAGE}\n"

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

    def test_reports_never_hold_nan(self):
        with pytest.raises(ValueError):
            _dump({"lo": float("nan")}, None)

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
        (["pinch", "--table", "1", "2"], {"curvature", "ddvv", "pinching", "symmat"}),
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


class TestProcessExit:
    """`python -m rigidity.cli` ends in entry's os._exit once stdout and stderr are flushed:
    its exit code, stdout, stderr and --out file are in-process main's, byte for byte, and
    a failing flush or a raising main exits as Python's own teardown reports it."""

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
    @pytest.mark.parametrize("unbuffered,code,tail", [
        (True, 1, "\nOSError: [Errno 28] No space left on device\n"),
        (False, 120, "Exception ignored in: <_io.TextIOWrapper name='<stdout>' mode='w' "
                     "encoding='utf-8'>\nOSError: [Errno 28] No space left on device\n"),
    ], ids=["unbuffered", "buffered"])
    def test_full_disk_exits_as_python_reports_it(self, unbuffered, code, tail):
        # unbuffered, main's own write raises; buffered, entry's flush does and sys.exit
        # leaves the report to the interpreter's teardown
        with open("/dev/full", "w") as full:
            done = run_python(["-m", "rigidity.cli", "pinch", "--table", "2", "2"],
                              unbuffered=unbuffered, stdout=full)
        assert done.returncode == code
        assert done.stderr.decode().endswith(tail)
        assert unbuffered == done.stderr.startswith(b"Traceback (most recent call last):")

    def test_closed_reader_exits_as_python_reports_it(self):
        read, write = os.pipe()
        os.close(read)
        try:
            done = run_python(["-m", "rigidity.cli", "pinch", "--table", "2", "2"], stdout=write)
        finally:
            os.close(write)
        assert done.returncode == 120
        assert done.stderr.decode() == (
            "Exception ignored in: <_io.TextIOWrapper name='<stdout>' mode='w' "
            "encoding='utf-8'>\nBrokenPipeError: [Errno 32] Broken pipe\n")

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

    # On seeds 0, 2 and 3 an einsum reduction of the energy differs from the shared
    # kernel's pairwise sum in the last bit, so a second copy in the CLI shows.  The
    # trial counts around cli.SWEEP_BATCH hold the overlapped batches and the tail
    # batch to one serial draw.
    @pytest.mark.parametrize("seed, n, m, trials", [
        (0, 3, 2, 50), (2, 3, 2, 50), (3, 3, 2, 50),
        (0, 3, 2, 1), (4, 3, 2, 2047), (5, 3, 2, 2048), (6, 3, 2, 2049), (7, 3, 3, 5000),
        (8, 1, 3, 300), (9, 3, 1, 300),
    ], ids=["0", "2", "3", "trials1", "trials2047", "trials2048", "trials2049", "trials5000",
            "n1", "m1"])
    def test_random_sweep_uses_the_shared_energy(self, capsys, seed, n, m, trials):
        code, out, _ = run(capsys, "ddvv", "--random", str(n), str(m), str(trials),
                           "--seed", str(seed), "--no-timestamp")
        assert code == 0
        g = np.random.default_rng(seed).normal(size=(trials, m, n, n))
        tuples = (g + np.transpose(g, (0, 1, 3, 2))) / 2.0
        loop = max(ddvv_evaluate(t).ratio for t in tuples)
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
            code, out, _ = run(capsys, "ddvv", "--random", "2", "2", "10000", "--seed", "11",
                               "--no-timestamp")
        finally:
            sys.setswitchinterval(interval)
        assert code == 0
        g = np.random.default_rng(11).normal(size=(10000, 2, 2, 2))
        tuples = (g + np.transpose(g, (0, 1, 3, 2))) / 2.0
        assert [len(t) for t in seen] == [2048] * 4 + [1808]
        npt.assert_array_equal(np.concatenate(seen), tuples)
        assert json.loads(out)["max_ratio"] == np.max(ddvv_ratio_terms(tuples)[2])

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
        assert err == errors and err.count("error: ") == 4
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
