"""End-to-end command line behavior, run in-process through main(argv).

Exit-code contract under test: 0 strict/boundary, 1 fails, 2 indeterminate,
3 hypothesis violation, 4 parse error, 5 usage error.  Reports are JSON on
stdout unless --out is given; determinism is byte-level once --no-timestamp
strips wall-clock fields.
"""

import json

import numpy as np
import numpy.testing as npt
import pytest

from rigidity import cli, curvature, pinching
from rigidity.cli import _dump, data_from_dict, data_to_dict, main, sample_from_dict
from rigidity.curvature import FundamentalData
from rigidity.ddvv import evaluate as ddvv_evaluate
from rigidity.immersion import builtin, sample_grid
from rigidity.models import totally_geodesic, veronese
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


def write_data(path, data):
    path.write_text(json.dumps(data_to_dict(data)))
    return str(path)


# frozen verdict fixtures (see the pinching tests for their derivation)
FAILS_DATA = FundamentalData(n=2, p=2, c=1.0, forms=2.0 * veronese(1.0, 0.0).forms)
INDET_DATA = FundamentalData(
    n=4, p=3, c=1.0,
    forms=0.290180 * random_tuple(4, 3, np.random.default_rng(0), traceless=True),
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

        def counted(data, *args, **kwargs):
            calls.append(data)
            return curvature.kmin_bracket(data, *args, **kwargs)

        for module in (cli, pinching):
            monkeypatch.setattr(module, "kmin_bracket", counted)
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([data_to_dict(veronese(1.0, 0.0)),
                                     data_to_dict(totally_geodesic(3, 2, 1.0))]))
        code, out, _ = run(capsys, "check", str(batch), "--theorem", "thm1",
                           "--theorem", "itoh", "--theorem", "yau",
                           "--no-timestamp", "--jobs", "1")
        assert code == 0
        assert len(json.loads(out)["records"]) == 2
        assert len(calls) == 2


class TestParseValidation:
    """Bad field values exit 4 with the record's path#i label."""

    # n and p cases use data whose true value is 1, the integer that true aliases
    @pytest.mark.parametrize("field,value,base", [
        ("n", True, FundamentalData(n=1, p=1, c=1.0, forms=np.ones((1, 1, 1)))),
        ("p", True, totally_geodesic(3, 1, 1.0)),
        ("mean_index", True, veronese(1.0, 0.6)),
        ("c", float("nan"), veronese(1.0, 0.6)),
        ("c", float("inf"), veronese(1.0, 0.6)),
        ("H_matrices", "nan-entry", veronese(1.0, 0.6)),
    ], ids=["n-bool", "p-bool", "mean_index-bool", "c-nan", "c-inf", "forms-nan"])
    def test_bad_field_exits_four(self, capsys, tmp_path, field, value, base):
        bad = data_to_dict(base)
        if value == "nan-entry":
            bad["H_matrices"][1][0][1] = float("nan")
        else:
            bad[field] = value
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([data_to_dict(veronese(1.0, 0.0)), bad]))
        code, out, err = run(capsys, "check", str(batch), "--no-timestamp")
        assert code == 4 and out == ""
        assert f"{batch}#1: " in err and field in err

    def test_reports_never_hold_nan(self):
        with pytest.raises(ValueError):
            _dump({"lo": float("nan")}, None)


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

    def test_mode_flags_are_exclusive(self, capsys):
        code, _, _ = run(capsys, "ddvv", "--random", "2", "2", "5",
                         "--maximize", "2", "2", "5")
        assert code == 5

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("RIGIDITY_SEED", "11")
        _, out, _ = run(capsys, "ddvv", "--random", "2", "2", "5", "--no-timestamp")
        assert json.loads(out)["seed"] == 11
        _, out2, _ = run(capsys, "ddvv", "--random", "2", "2", "5",
                         "--seed", "3", "--no-timestamp")
        assert json.loads(out2)["seed"] == 3


class TestModelCommand:
    def test_veronese_round_trip(self, capsys):
        code, out, _ = run(capsys, "model", "veronese", "--c", "1", "--H", "0")
        assert code == 0
        assert data_from_dict(json.loads(out)) == veronese(1.0, 0.0)

    def test_product_requires_split(self, capsys):
        code, _, err = run(capsys, "model", "product-of-spheres", "--n", "4")
        assert code == 3
        assert "error:" in err

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
    ])
    def test_exit_five(self, capsys, argv):
        assert main(list(argv)) == 5
        capsys.readouterr()


class TestSharedKernelsInCli:
    def test_batch_hypothesis_error_names_the_record(self, capsys, tmp_path):
        path = tmp_path / "batch.json"
        good = data_to_dict(veronese(1.0, 0.0))
        path.write_text(json.dumps([good, data_to_dict(veronese(1.0, 0.6)), good]))
        code, out, err = run(capsys, "check", str(path), "--theorem", "thm1",
                             "--no-timestamp", "--jobs", "1")
        assert code == 3 and out == ""
        assert f"error: {path}#1: thm1 requires minimal data" in err
        assert "#0" not in err and "#2" not in err

    # On these seeds an einsum reduction of the energy differs from the shared
    # kernel's pairwise sum in the last bit, so a second copy in the CLI shows.
    @pytest.mark.parametrize("seed", [0, 2, 3])
    def test_random_sweep_uses_the_shared_energy(self, capsys, seed):
        code, out, _ = run(capsys, "ddvv", "--random", "3", "2", "50", "--seed", str(seed),
                           "--no-timestamp")
        assert code == 0
        g = np.random.default_rng(seed).normal(size=(50, 2, 3, 3))
        tuples = (g + np.transpose(g, (0, 1, 3, 2))) / 2.0
        loop = max(ddvv_evaluate(t).ratio for t in tuples)
        assert json.loads(out)["max_ratio"] == loop
