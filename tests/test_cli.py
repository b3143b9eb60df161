"""Command-line front end: parsing, layering, formats, exit codes."""

import json

import pytest

from conewalks.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCount:
    def test_first_order_square(self, capsys):
        code, out = run(
            capsys, "count", "--lattice", "square", "--region",
            "three-quadrant", "--start", "0,0", "--n", "1", "--format", "json",
        )
        assert code == 0
        tables = json.loads(out)
        assert tables[1]["counts"] == [
            {"count": "1", "i": -1, "j": 0},
            {"count": "1", "i": 0, "j": -1},
            {"count": "1", "i": 0, "j": 1},
            {"count": "1", "i": 1, "j": 0},
        ]

    def test_n_zero(self, capsys):
        code, out = run(capsys, "count", "--n", "0", "--format", "json")
        assert code == 0
        tables = json.loads(out)
        assert tables == [
            {"n": 0, "counts": [{"count": "1", "i": 0, "j": 0}]}
        ]

    def test_endpoint(self, capsys):
        code, out = run(
            capsys, "count", "--lattice", "diagonal", "--region",
            "three-quadrant", "--start", "0,0", "--n", "2",
            "--endpoint", "0,0", "--format", "csv",
        )
        assert code == 0
        rows = out.splitlines()
        assert rows[0] == "n,i,j,count"
        assert rows[-1] == "2,0,0,3"


class TestSeries:
    def test_totals_csv(self, capsys):
        code, out = run(capsys, "series", "--order", "4", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["n,total", "0,1", "1,4", "2,14", "3,54"]

    def test_big_ints_are_strings(self, capsys):
        code, out = run(capsys, "series", "--order", "62", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert all(isinstance(v, str) for v in payload["totals"])
        assert int(payload["totals"][61]) > 2**64


class TestVerify:
    def test_base_suite_passes(self, capsys):
        code, out = run(
            capsys, "verify", "--suite", "base", "--order", "8",
            "--format", "json",
        )
        assert code == 0
        reports = json.loads(out)
        assert {r["id"] for r in reports} == {
            "base-T", "base-Z-hyper", "base-Y-square", "base-Y-diagonal"
        }
        assert all(r["verdict"] == "pass" for r in reports)

    def test_unknown_suite_is_usage_error(self, capsys):
        code = main(["verify", "--suite", "nonsense"])
        assert code == 2


class TestParam:
    def test_list(self, capsys):
        code, out = run(capsys, "param", "--list")
        assert code == 0
        assert "base-T" in out.split()

    def test_expand(self, capsys):
        code, out = run(capsys, "param", "--key", "base-T", "--order", "6")
        assert code == 0
        assert "t^2: 4" in out

    def test_missing_key(self, capsys):
        assert main(["param"]) == 2


class TestOeis:
    def test_agreement(self, capsys, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("# totals\n0 1\n1 4\n2 14\n3 54\n")
        code, out = run(
            capsys, "oeis", "--bfile", str(path), "--n", "10",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "agree"

    def test_corruption_detected(self, capsys, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("0 1\n1 4\n2 99\n")
        code, out = run(
            capsys, "oeis", "--bfile", str(path), "--n", "10",
            "--format", "json",
        )
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] == "mismatch" and report["n"] == 2

    def test_empty_file(self, capsys, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("")
        code, out = run(capsys, "oeis", "--bfile", str(path), "--n", "5",
                        "--format", "json")
        assert code == 0
        assert "warning" in json.loads(out)

    def test_parse_error_reports_line(self, capsys, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("0 1\nbroken line here\n")
        code, out = run(capsys, "oeis", "--bfile", str(path))
        assert code == 1
        assert "line 2" in out


class TestAsympt:
    def test_rows(self, capsys):
        code, out = run(capsys, "asympt", "--n", "16", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["n"] == 0
        assert rows[-1]["n"] == 16
        assert float(rows[-1]["target"]) == pytest.approx(1.5160, abs=1e-3)


class TestConfigLayering:
    def test_config_file_overrides_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"order": 3, "format": "csv"}))
        code, out = run(capsys, "series", "--config", str(cfg))
        assert code == 0
        assert out.splitlines() == ["n,total", "0,1", "1,4", "2,14"]

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"order": 3}))
        code, out = run(capsys, "series", "--config", str(cfg),
                        "--order", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["n,total", "0,1", "1,4"]

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert main(["series", "--config", str(cfg)]) == 2

    def test_bad_start_pair(self):
        assert main(["count", "--start", "1;2"]) == 2

    def test_negative_limit(self):
        assert main(["count", "--n", "-3"]) == 2

    def test_start_outside_region(self, capsys):
        code = main(["count", "--region", "quadrant", "--start=-1,0"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_verify_order_zero(self, capsys):
        assert main(["verify", "--order", "0"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("value", ["abc", 2.5])
    def test_non_integer_n_in_config(self, capsys, tmp_path, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": value}))
        assert main(["count", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, capsys):
        _, first = run(capsys, "count", "--n", "3", "--format", "json")
        _, second = run(capsys, "count", "--n", "3", "--format", "json")
        assert first == second


class TestOrderAndRangeErrors:
    """Inputs the computation cannot serve are usage errors, not tracebacks."""

    def assert_usage_error(self, capsys, *argv):
        assert main(list(argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        return err

    def test_param_order_too_low(self, capsys):
        err = self.assert_usage_error(
            capsys, "param", "--key", "sq-origin-axis-x", "--order", "4")
        assert "--order 4 is too low for sq-origin-axis-x" in err

    def test_param_order_too_low_shifted(self, capsys):
        err = self.assert_usage_error(
            capsys, "param", "--key", "sq-shift-left-axis-y", "--order", "8")
        assert "--order 8 is too low for sq-shift-left-axis-y" in err

    @pytest.mark.parametrize("order", range(1, 9))
    def test_verify_params_order_too_low(self, capsys, order):
        err = self.assert_usage_error(
            capsys, "verify", "--suite", "params", "--order", str(order))
        assert f"--order {order} is too low for" in err

    def test_asympt_n_beyond_float64(self, capsys):
        err = self.assert_usage_error(capsys, "asympt", "--n", "512")
        assert "float64" in err
