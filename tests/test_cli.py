"""Command-line front end: parsing, layering, formats, exit codes."""

import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conewalks.cli import COMMANDS, DEFAULTS, FLAGS, main


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

    def test_a_start_past_2_to_the_62_counts_right(self, capsys):
        """No walk of 3 steps from (2^63, 0) or (4, 0) reaches the axis
        i = 0, so both starts have the quadrant totals 1, 2, 8, 24."""
        code, out = run(capsys, "series", "--lattice", "diagonal",
                        "--region", "quadrant", "--start",
                        "9223372036854775808,0", "--order", "4",
                        "--format", "json")
        assert code == 0
        assert json.loads(out)["totals"] == ["1", "2", "8", "24"]


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

    def test_list_is_the_expandable_keys(self, capsys):
        from conewalks import engine, identities

        _, out = run(capsys, "param", "--list")
        keys = out.split()
        assert keys[:4] == ["base-T", "base-Z", "base-U", "base-V"]
        assert len(keys) == 4 + len(engine.param_keys()) + len(
            identities.catalog_checks("z_rationals"))
        for key in ("base-Z-hyper", "base-Y-square", "quartic-sq-S1",
                    "x-sq-0"):
            assert key not in keys
            assert main(["param", "--key", key]) == 2

    def test_every_listed_key_expands(self, capsys):
        _, out = run(capsys, "param", "--list")
        for key in out.split():
            code, series = run(capsys, "param", "--key", key, "--order", "12")
            assert code == 0 and "O(t^" in series, key

    def test_json_order_is_the_order_of_the_printed_series(self, capsys):
        """A catalog division may check fewer terms than --order asks for;
        the ``order`` of ``param --format json`` is that of its coeffs."""
        _, out = run(capsys, "param", "--list")
        for key in out.split():
            code, printed = run(capsys, "param", "--key", key, "--order",
                                "12", "--format", "json")
            payload = json.loads(printed)
            assert code == 0, key
            assert len(payload["coeffs"]) == payload["order"], key


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

    @pytest.mark.parametrize("model", [
        ["--region", "quadrant"],
        ["--start=-1,0"],
        ["--lattice", "diagonal", "--start", "1,1"],
        ["--start", "5,5"],  # more than --n steps from the origin
    ])
    def test_no_target_off_the_cone_from_the_origin(self, capsys, model):
        """The paper's constant is the limit only for the three-quadrant
        cone from (0, 0); any other model prints a blank target."""
        code, out = run(capsys, "asympt", "--n", "4", "--format", "json",
                        *model)
        assert code == 0
        assert {row["target"] for row in json.loads(out)} == {""}


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

    def test_config_that_is_not_utf8(self, capsys, tmp_path):
        """A config file that does not decode as UTF-8 is a usage error
        with no traceback, like one that cannot be opened or parsed."""
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(b'\xff\xfe{"n": 3}')
        assert main(["count", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config {cfg}: ")
        assert "Traceback" not in err

    def test_config_nested_too_deeply(self, capsys, tmp_path):
        """A config nested deeper than ``json.load`` can recurse is a usage
        error with no traceback."""
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 200_000 + "]" * 200_000)
        assert main(["count", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config {cfg}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [["series", "--lattice", "hex"],
                                      ["count", "--region", "moon"]],
                             ids=" ".join)
    def test_unknown_name_flag(self, capsys, argv):
        """``load_config`` checks a flag's lattice or region name as it
        checks a config file's."""
        _, flag, name = argv
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: unknown {flag[2:]} {name!r}\n")

    @pytest.mark.parametrize("argv", [["param", "--key", "base-T"],
                                      ["verify", "--order", "2"]],
                             ids=" ".join)
    def test_unknown_lattice_in_config(self, capsys, tmp_path, argv):
        """A command that builds no walk model still rejects a config that
        names an unknown lattice."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lattice": "hex"}))
        assert main([*argv, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: unknown lattice 'hex'\n")

    def test_defaults_name_a_lattice_and_a_region(self):
        """``load_config`` skips the name check (and the import of
        ``walks``) for the default lattice and region, so both must be
        names that ``walks`` knows."""
        from conewalks.walks import LATTICES, Region

        assert DEFAULTS["lattice"] in LATTICES
        assert DEFAULTS["region"] in {region.value for region in Region}

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


class TestReportsAndInputErrors:
    """One report shape for every suite; bad inputs end in an error line."""

    def assert_error(self, capsys, code, *argv):
        assert main(list(argv)) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        return captured

    def test_all_suites_share_one_report_shape(self, capsys):
        from conewalks.cli import suites

        code, out = run(capsys, "verify", "--suite", "all", "--order", "9",
                        "--format", "json")
        assert code == 0
        reports = json.loads(out)
        ids = [r["id"] for r in reports]
        assert len(ids) == len(set(ids))
        assert ids == [key for table in suites().values() for key in table]
        assert all(set(r) == {"id", "anchor", "order_checked", "verdict",
                              "first_failure"} for r in reports)

    @pytest.mark.parametrize("order", [1, 2])
    def test_negative_check_order_too_low(self, capsys, order):
        err = self.assert_error(capsys, 2, "verify", "--suite", "identities",
                                "--order", str(order)).err
        assert err.startswith(
            f"error: --order {order} is too low for no-kernel-factor-sq (")

    def test_negative_check_runs_from_order_3(self, capsys):
        code, out = run(capsys, "verify", "--suite", "identities",
                        "--order", "3")
        assert code == 0
        assert "pass  no-kernel-factor-sq" in out

    def test_non_ascii_bfile_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "b.txt"
        path.write_bytes(b"0 1\n1 4\n2 1\xe94\n")
        out = self.assert_error(capsys, 1, "oeis", "--bfile", str(path)).out
        assert out.startswith(f"parse error in {path}: line 3: non-ASCII")

    def test_series_endpoint_outside_region(self, capsys):
        err = self.assert_error(capsys, 2, "series", "--endpoint=-1,-1").err
        assert err.startswith("error: endpoint (-1, -1) outside region")

    def test_a_broken_catalog_entry_fails_its_check(self, capsys,
                                                     monkeypatch):
        """A numerator that its denominator does not divide (one entry's
        last coefficient raised by 1) fails that entry's check, while every
        other check still reports; ``param`` names the entry."""
        import copy

        from conewalks import engine

        key = "sq-origin-axis-x"
        data = copy.deepcopy(engine._param_data())
        data["bivariate"][key]["num"][-1][0] += 1
        monkeypatch.setattr(engine, "_param_data", lambda: data)
        out = self.assert_error(capsys, 1, "verify", "--suite", "params",
                                "--order", "16", "--format", "json").out
        reports = json.loads(out)
        assert len(reports) == len(engine.param_keys())
        failing = [r for r in reports if r["verdict"] != "pass"]
        assert [r["id"] for r in failing] == [key]
        assert failing[0]["first_failure"] == [
            "catalog division num/den: dividend valuation below divisor "
            "valuation"]
        err = self.assert_error(capsys, 1, "param", "--key", key,
                                "--order", "16").err
        assert err.startswith(f"error: {key}: catalog division num/den: ")

    def test_a_broken_catalog_entry_is_one_json_report(self, capsys,
                                                       monkeypatch):
        """Under --format json, ``param`` answers a catalog entry whose
        division fails with one JSON object on standard output, exit 1."""
        import copy

        from conewalks import engine

        key = "sq-origin-axis-x"
        data = copy.deepcopy(engine._param_data())
        data["bivariate"][key]["num"][-1][0] += 1
        monkeypatch.setattr(engine, "_param_data", lambda: data)
        captured = self.assert_error(capsys, 1, "param", "--key", key,
                                     "--order", "16", "--format", "json")
        assert captured.err == ""
        assert json.loads(captured.out) == {
            "error": "catalog division num/den: dividend valuation below "
                     "divisor valuation",
            "key": key,
            "verdict": "catalog error"}

    def test_a_non_integral_closed_form_fails_its_check(self, capsys,
                                                        monkeypatch):
        """A closed form whose value is not an integer (one entry's first
        coefficient scaled by 1001/1000) fails that entry's check with the
        message of ``ClosedForm.count``, while every other entry still
        reports."""
        from fractions import Fraction

        from conewalks import closedforms
        from conewalks.closedforms import ClosedForm, HypTerm

        key = "sq-origin-0-0"
        entries = dict(closedforms.catalog())
        entry = entries[key]
        first, *rest = entry.terms
        scaled = HypTerm(first.coeff * Fraction(1001, 1000), first.poly,
                         first.num, first.den)
        entries[key] = ClosedForm(entry.key, entry.anchor, entry.model,
                                  entry.end, (scaled, *rest))
        monkeypatch.setattr(closedforms, "catalog", lambda: entries)
        out = self.assert_error(capsys, 1, "verify", "--suite",
                                "closed-forms", "--order", "6",
                                "--format", "json").out
        reports = json.loads(out)
        assert sorted(r["id"] for r in reports) == sorted(entries)
        failing = [r for r in reports if r["verdict"] != "pass"]
        assert [r["id"] for r in failing] == [key]
        assert failing[0]["first_failure"] == [
            f"{key}: non-integral value at n=0: 3001/3000"]
        assert len(reports) - len(failing) == 10

    @pytest.mark.parametrize("cfg", [
        {"suite": [1]}, {"suite": 5}, {"lattice": ["square"]}, {"region": {}},
    ])
    def test_config_value_of_wrong_type(self, capsys, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        err = self.assert_error(capsys, 2, "verify", "--config",
                                str(path)).err
        assert err.startswith("error:")


class TestFlagsPerCommand:
    """Each subcommand accepts only the flags it reads."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--lattice", "diagonal"],
        ["count", "--order", "5"],
        ["param", "--n", "3"],
        ["asympt", "--endpoint", "0,0"],
    ])
    def test_unread_flag_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "all", "--order", "16", "--format", "json"],
        ["series", "--order", "62", "--lattice=diagonal", "--start=-2,0",
         "--format", "json"],
        ["oeis", "--bfile", "b.txt", "--n", "50", "--lattice=square",
         "--start=-1,0", "--format", "json"],
        ["param", "--key", "base-U", "--order", "32", "--format", "json"],
    ])
    def test_benchmark_command_lines_parse(self, argv):
        from conewalks.cli import build_parser

        assert build_parser().parse_args(argv).command == argv[0]


class TestFormatContract:
    """Only the table commands print CSV.  The others reject --format csv,
    from a flag or from a config file, as a usage error."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "base", "--order", "6"],
        ["param", "--key", "base-T", "--order", "6"],
        ["param", "--list"],
        ["oeis", "--n", "3"],
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_csv_is_a_usage_error(self, capsys, tmp_path, argv, source):
        bfile = tmp_path / "b.txt"
        bfile.write_text("0 1\n1 4\n2 14\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "csv"}))
        argv = argv + (["--bfile", str(bfile)] if argv[0] == "oeis" else [])
        argv += (["--format", "csv"] if source == "flag"
                 else ["--config", str(cfg)])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {argv[0]} has no csv output\n"

    @pytest.mark.parametrize("argv,head", [
        (["count", "--n", "2"], ["n,i,j,count"]),
        (["series", "--order", "3"], ["n,total"]),
        (["asympt", "--n", "4"], [
            "non-exact diagnostic (float64 values of exact counts)",
            "n,total_float,ratio,target"]),
    ])
    def test_table_commands_print_csv(self, capsys, argv, head):
        code, out = run(capsys, *argv, "--format", "csv")
        assert code == 0
        assert out.splitlines()[:len(head)] == head


# The conewalks modules each command loads, besides the package and cli.
# ``param`` runs the formula side alone: it loads no oracle module, and no
# walk DP either.
FORMULAS = {"engine", "series", "laurent"}
LOADS = {
    ("count", "--n", "3"): {"walks"},
    ("series", "--order", "5", "--endpoint", "0,0"): {"walks"},
    ("asympt", "--n", "4"): {"walks"},
    ("oeis", "--n", "3"): {"walks", "bfile"},
    ("param", "--key", "base-T", "--order", "4"): FORMULAS,
    ("param", "--key", "base-U", "--order", "4"): FORMULAS,
    ("param", "--key", "base-V", "--order", "4"): FORMULAS,
    ("param", "--key", "sq-origin-axis-x", "--order", "8"): FORMULAS,
    ("param", "--list"): FORMULAS,
    ("verify", "--suite", "base", "--order", "3"):
        FORMULAS | {"walks", "decompose", "closedforms", "identities"},
}

LOADED = """\
import contextlib, io, json, sys
from conewalks import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


@pytest.mark.parametrize("argv", sorted(LOADS), ids=" ".join)
def test_each_command_imports_only_what_it_runs(tmp_path, argv):
    """A fresh interpreter without site initialisation (-S: a site .pth
    may preload modules) runs one command; it must load exactly the
    package modules the command runs, and none loads dataclasses,
    importlib.resources or numpy."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import conewalks

    bfile = tmp_path / "b.txt"
    bfile.write_text("0 1\n1 4\n2 14\n")
    extra = ["--bfile", str(bfile)] if argv[0] == "oeis" else []
    env = dict(os.environ, PYTHONPATH=str(Path(conewalks.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-S", "-c", LOADED, *argv, *extra],
                          env=env, capture_output=True, text=True, check=True)
    code, modules = json.loads(done.stdout)
    assert code == 0
    assert {m for m in modules if m.startswith("conewalks")} == {
        "conewalks", "conewalks.cli",
        *(f"conewalks.{name}" for name in LOADS[argv])}
    assert not {"dataclasses", "importlib.resources", "numpy"} & set(modules)


def test_the_engine_loads_none_of_the_oracle():
    """The formula side reads nothing of the walk oracle: a fresh
    interpreter that imports ``conewalks.engine`` alone loads the engine,
    ``series`` and ``laurent``, and none of ``walks``, ``decompose``,
    ``closedforms``, ``identities`` or ``bfile``; one that imports the
    package alone loads no submodule."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import conewalks

    env = dict(os.environ, PYTHONPATH=str(Path(conewalks.__file__).parents[1]))
    for module, loaded in (("conewalks", set()),
                           ("conewalks.engine", FORMULAS)):
        done = subprocess.run(
            [sys.executable, "-S", "-c", f"import json, sys, {module}; "
             "print(json.dumps(sorted(sys.modules)))"],
            env=env, capture_output=True, text=True, check=True)
        assert {m for m in json.loads(done.stdout)
                if m.startswith("conewalks.")} == {
            f"conewalks.{name}" for name in loaded}, module


# Counts the benchmark's per-layer metrics read; each must stay traced.
TRACED = ("walks.sweeps", "series.mul.calls", "series.compose.calls",
          "laurent.mul.calls", "engine.solve.calls",
          "engine.kernel_root_Y.calls", "decompose.extract.calls",
          "closedforms.count.calls")


def test_tracer_still_hooks_every_layer():
    """perfbench/tracer.py wraps functions and classes by name; a renamed
    one drops out of the trace silently, so a full verify run under it must
    still record a verdict per report and every counted layer."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import conewalks

    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(Path(conewalks.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "tracer.py"), "verify",
         "--suite", "all", "--order", "10", "--format", "json"],
        env=env, capture_output=True, text=True, check=True)
    trace = json.loads(done.stdout)
    assert trace["exit"] == 0
    assert len(trace["verdict_s"]) == len(json.loads(trace["stdout"])) == 112
    assert [key for key in TRACED if not trace["counts"].get(key)] == []


def test_a_closed_pipe_exits_1_without_a_traceback():
    """``count --n 40 | head -1``: the output (about 660 KB) overflows the
    pipe buffer, so the reader closes the pipe while the command still
    writes. The command exits 1 and writes nothing to standard error."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import conewalks

    env = dict(os.environ, PYTHONPATH=str(Path(conewalks.__file__).parents[1]))
    child = subprocess.Popen(
        [sys.executable, "-m", "conewalks.cli", "count", "--n", "40"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert child.stdout.readline().startswith(b"n=0")
    child.stdout.close()
    err = child.stderr.read()
    assert child.wait(timeout=60) == 1
    assert b"Traceback" not in err
    assert err == b""


class TestEndpointAndSuiteRules:
    """An --endpoint outside the region is refused where the model is
    built; a suite selection names each suite once."""

    def assert_usage_error(self, capsys, *argv):
        assert main(list(argv)) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return err

    def test_count_endpoint_outside_region(self, capsys):
        err = self.assert_usage_error(capsys, "count", "--endpoint=-1,-1")
        assert err == ("error: endpoint (-1, -1) outside region "
                       "three-quadrant\n")

    def test_oeis_endpoint_outside_region(self, capsys, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("0 0\n1 0\n")
        err = self.assert_usage_error(capsys, "oeis", "--bfile", str(path),
                                      "--endpoint=-1,-1")
        assert err == ("error: endpoint (-1, -1) outside region "
                       "three-quadrant\n")

    def test_empty_suite_selection(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"suite": []}))
        err = self.assert_usage_error(capsys, "verify", "--config", str(path))
        assert err == "error: no suite selected\n"

    def test_repeated_suite_runs_once(self, capsys):
        from conewalks.identities import BASE_CHECKS

        code, out = run(capsys, "verify", "--suite", "base, base",
                        "--order", "3", "--format", "json")
        assert code == 0
        assert [r["id"] for r in json.loads(out)] == list(BASE_CHECKS)

    @pytest.mark.parametrize("selection", ["all,base", ["all"]])
    def test_all_expands_wherever_it_appears(self, capsys, tmp_path,
                                             selection):
        from conewalks.cli import suites

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"suite": selection}))
        code, out = run(capsys, "verify", "--config", str(path),
                        "--order", "9", "--format", "json")
        assert code == 0
        assert [r["id"] for r in json.loads(out)] == [
            key for table in suites().values() for key in table]

    def test_suite_names_keep_first_positions(self):
        from conewalks.cli import suite_names, suites

        rest = [name for name in suites() if name != "xseries"]
        assert suite_names(["xseries", "all", "base"]) == ["xseries", *rest]
        assert suite_names("base,all") == list(suites())

    @pytest.mark.parametrize("fmt,expected", [
        ("text", ""),
        ("csv", "n,total\n"),
        ("json", '{\n  "order": 0,\n  "totals": []\n}\n'),
    ])
    def test_series_order_zero_prints_no_coefficient(self, capsys, fmt,
                                                     expected):
        assert run(capsys, "series", "--order", "0", "--format", fmt) == (
            0, expected)

    @pytest.mark.parametrize("fmt,expected", [
        ("text", ""),
        ("json", '{\n  "coeffs": [],\n  "endpoint": [\n    0,\n    0\n  ],'
                 '\n  "order": 0\n}\n'),
    ])
    def test_series_order_zero_at_endpoint(self, capsys, fmt, expected):
        assert run(capsys, "series", "--order", "0", "--endpoint", "0,0",
                   "--format", fmt) == (0, expected)


# sha256 of `verify --suite all --order N --format json` at N = 12, at the
# benchmark's N = 16, and at N = 20 and 30.  A refactor keeps these bytes; a
# change that alters a verdict or an order on purpose re-pins.
VERIFY_ALL_SHA256 = {
    12: "89b9b395e147c7e4d7ff6269b3a10f9d62c49329336791b258acb7f857567b1b",
    16: "1efc1f517de39e280ff13a9dbcf321c2f451ab9f85e789ce5cd7ac7d17dda6cd",
    20: "ad6fa0b1cf8c8eabadf6bee04f84a04a7a3ddf33cad5ebcf7fde5509d23e1e2f",
    30: "171261602d8b290200ca190f4d3b82081360df45334aa1c5234e2a2d891bf395",
}

# sha256 of the two solver outputs, pinned the same way: T with scalar
# coefficients, U with coefficients in x.
PARAM_SHA256 = {
    ("base-T", "60", "json"):
        "81eb60b2dd69179064c7bbc6b0ea652041844f3f8e4be95518cb2cf2c3c3b9e8",
    ("base-U", "32", "text"):
        "fd50104d615f61ebbca649491e3bfc31a1f1133731900d4dfa222db2bba05740",
}


@pytest.mark.parametrize("order", sorted(VERIFY_ALL_SHA256))
def test_verify_all_bytes_are_pinned(capsys, order):
    code, out = run(capsys, "verify", "--suite", "all", "--order", str(order),
                    "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256[order]


# Run in a fresh interpreter, so that no memo holds a polynomial built
# before the patch: every LPoly and LPoly2 gets read-only terms.
READ_ONLY_TERMS = """
import contextlib, hashlib, io, sys
from types import MappingProxyType
from conewalks import cli, laurent

init, with_terms = laurent.LPoly.__init__, laurent.LPoly._with_terms

def frozen_init(self, terms=None):
    init(self, terms)
    self.terms = MappingProxyType(self.terms)

def frozen_with_terms(self, terms):
    return with_terms(self, MappingProxyType(terms))

laurent.LPoly.__init__ = frozen_init
laurent.LPoly._with_terms = frozen_with_terms
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(sys.argv[1:])
assert type((laurent.LPoly2.x() - 1).terms) is MappingProxyType
print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


def test_operations_that_return_an_operand_never_write_to_it():
    """Sums may return an operand and ``scale(1)`` returns self, so one
    polynomial is shared by many series.  With every ``terms`` read-only,
    an in-place write anywhere raises; verify must still give its bytes."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import conewalks

    env = dict(os.environ, PYTHONPATH=str(Path(conewalks.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", READ_ONLY_TERMS, "verify", "--suite", "all",
         "--order", "12", "--format", "json"],
        env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["0", VERIFY_ALL_SHA256[12]]


@pytest.mark.parametrize("order", range(1, 13))
def test_base_and_xseries_pass_at_low_orders(capsys, order):
    code, _ = run(capsys, "verify", "--suite", "base,xseries",
                  "--order", str(order))
    assert code == 0


@pytest.mark.parametrize("key,order,fmt", sorted(PARAM_SHA256))
def test_param_bytes_are_pinned(capsys, key, order, fmt):
    code, out = run(capsys, "param", "--key", key, "--order", order,
                    "--format", fmt)
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == PARAM_SHA256[(key, order, fmt)])


# sha256 of `asympt --lattice L --region R --start=S --n N --format F`,
# keyed "L R S N F".  They were computed with a float64 DP separate from
# the exact one (with the current text and csv header line), so they also
# pin how each exact total rounds to a float: at N = 10 in every format,
# for every region and the starts (0, 0), (-1, 1) ((1, 1) in the quadrant,
# which excludes (-1, 1)) and (12, 0), more than N steps from the origin;
# at N = 200 in JSON for the three-quadrant cones from the origin, which
# print the paper's constant as their target.
ASYMPT_SHA256 = {
    "square quadrant 0,0 10 json":
        "0d4f70cad8b71eb088231bdd4b712a6d03cd1f34105eb20a5ad8a4c3184f4175",
    "square quadrant 0,0 10 text":
        "7dfcd8bbc9fb89979f1dd0f602d98787ffebe85834e64397a984b2b46c3091e5",
    "square quadrant 0,0 10 csv":
        "94f09bf630adce12e32e315960d5736ce1a3f358c8a4a3b6a55eb6ed83c0af3f",
    "square quadrant 1,1 10 json":
        "bc1876c073e8c764af101d3d112519188408ffafce921aa6dff814fe9f02f737",
    "square quadrant 1,1 10 text":
        "3b1a382ec381ff1a90664a429173402751e757c52b8b73834ddb6adfe10fc13c",
    "square quadrant 1,1 10 csv":
        "3efd2ec03ac7313876ff6c813257dc63a28c56d7dca8d143dc795ab5b1bce5e3",
    "square quadrant 12,0 10 json":
        "04d7e3023466fa9953c5e293e8e5620185c5ff5034c184baebfba2f9c9a68c42",
    "square quadrant 12,0 10 text":
        "845fe2a124cddf16e23f597647dd8f7f65f8997dfe1f43212394c8f6c660255a",
    "square quadrant 12,0 10 csv":
        "681cb76022ec2111470cce5d2d8c4942f3c8bfd435b2808c76b02b560e0e9308",
    "square three-quadrant 0,0 10 json":
        "bad1dffe563ef6beffc78bc97847d551683c675526150b90b2ab20c768b628a8",
    "square three-quadrant 0,0 10 text":
        "b5bd90cbd713480bf873a8e7da9470c88a4c93e01d18b0d004475b8a886548b5",
    "square three-quadrant 0,0 10 csv":
        "3ed573c24d0fad59f60287159f862f347cd07d87a3d85523ba4c36aeea48c438",
    "square three-quadrant -1,1 10 json":
        "5f5948c8967006b8a36d1df682eff9ec1ce62bc967b95fa814260f7586af5dd8",
    "square three-quadrant -1,1 10 text":
        "37e1adfc8fe971a8efdad55d3a6d5f57a6b43f99e7e17f97dea85432830afd3c",
    "square three-quadrant -1,1 10 csv":
        "6b969764907e3d9d75be56ab6f25258c289c7bd541789862268126bfb0ba805c",
    "square three-quadrant 12,0 10 json":
        "4b2d6f20c7539261fc47eb14611f686dbaa0915ed83f7b5a4fa38e6234d7df2b",
    "square three-quadrant 12,0 10 text":
        "a0d28d714aba1aad335e10ac75023853db369000ba816761d9053fffb2ddc44a",
    "square three-quadrant 12,0 10 csv":
        "cd8aab2077b21dd0801fbac74fe37a6ab78d34f839fd3d98e15635f93e1eb760",
    "square wedge135 0,0 10 json":
        "e08a560519430afe0acb828b236d21c78dc5ec7d612b71e3aa1aa328260a03f2",
    "square wedge135 0,0 10 text":
        "8e373fed3a8ddb7dfcf110ac9dc10dab48dcdabbb55ea970add13a045fb91350",
    "square wedge135 0,0 10 csv":
        "8dd18ef281947f90fb7a836bb1032d3b928354df9618c5e966183794570570fd",
    "square wedge135 -1,1 10 json":
        "a486bb3d48453ffdbf3bdb28d4dd7a1417a23514468212e556198be334896914",
    "square wedge135 -1,1 10 text":
        "beefb264abf10a8322c2d1b0044cfea4a795554a4d056609648edb96f02dca8c",
    "square wedge135 -1,1 10 csv":
        "de5d92bb3aa1bd0db92a7051fd27ecf142e7f2e9739fbd4f5410b6b22c053b17",
    "square wedge135 12,0 10 json":
        "04d7e3023466fa9953c5e293e8e5620185c5ff5034c184baebfba2f9c9a68c42",
    "square wedge135 12,0 10 text":
        "845fe2a124cddf16e23f597647dd8f7f65f8997dfe1f43212394c8f6c660255a",
    "square wedge135 12,0 10 csv":
        "681cb76022ec2111470cce5d2d8c4942f3c8bfd435b2808c76b02b560e0e9308",
    "square half-plane 0,0 10 json":
        "305377b533eec9dd5a9f92388909aedca536dcb24809e2d724936adb8fe4907e",
    "square half-plane 0,0 10 text":
        "5bb2156fe87342989af39c8d3841263e8ca562f22b32c642d0d66ba0dc41bd3a",
    "square half-plane 0,0 10 csv":
        "b1af715c244fd9fb33c22c107d7cdf9a682588cad3d53a29d3b36fdf5537a596",
    "square half-plane -1,1 10 json":
        "305377b533eec9dd5a9f92388909aedca536dcb24809e2d724936adb8fe4907e",
    "square half-plane -1,1 10 text":
        "5bb2156fe87342989af39c8d3841263e8ca562f22b32c642d0d66ba0dc41bd3a",
    "square half-plane -1,1 10 csv":
        "b1af715c244fd9fb33c22c107d7cdf9a682588cad3d53a29d3b36fdf5537a596",
    "square half-plane 12,0 10 json":
        "4b2d6f20c7539261fc47eb14611f686dbaa0915ed83f7b5a4fa38e6234d7df2b",
    "square half-plane 12,0 10 text":
        "a0d28d714aba1aad335e10ac75023853db369000ba816761d9053fffb2ddc44a",
    "square half-plane 12,0 10 csv":
        "cd8aab2077b21dd0801fbac74fe37a6ab78d34f839fd3d98e15635f93e1eb760",
    "square full-plane 0,0 10 json":
        "4b2d6f20c7539261fc47eb14611f686dbaa0915ed83f7b5a4fa38e6234d7df2b",
    "square full-plane 0,0 10 text":
        "a0d28d714aba1aad335e10ac75023853db369000ba816761d9053fffb2ddc44a",
    "square full-plane 0,0 10 csv":
        "cd8aab2077b21dd0801fbac74fe37a6ab78d34f839fd3d98e15635f93e1eb760",
    "square full-plane -1,1 10 json":
        "4b2d6f20c7539261fc47eb14611f686dbaa0915ed83f7b5a4fa38e6234d7df2b",
    "square full-plane -1,1 10 text":
        "a0d28d714aba1aad335e10ac75023853db369000ba816761d9053fffb2ddc44a",
    "square full-plane -1,1 10 csv":
        "cd8aab2077b21dd0801fbac74fe37a6ab78d34f839fd3d98e15635f93e1eb760",
    "square full-plane 12,0 10 json":
        "4b2d6f20c7539261fc47eb14611f686dbaa0915ed83f7b5a4fa38e6234d7df2b",
    "square full-plane 12,0 10 text":
        "a0d28d714aba1aad335e10ac75023853db369000ba816761d9053fffb2ddc44a",
    "square full-plane 12,0 10 csv":
        "cd8aab2077b21dd0801fbac74fe37a6ab78d34f839fd3d98e15635f93e1eb760",
    "diagonal quadrant 0,0 10 json":
        "c82381ab3e18e7126f3f249fa9f944c4371ac3f753a7868a3d19eeea2b5a869b",
    "diagonal quadrant 0,0 10 text":
        "bb717acf0ee8351f3b00939b02f01aa7b80a673cfb39715b42df856e73aa15bd",
    "diagonal quadrant 0,0 10 csv":
        "27c34c6de963d47a38edbea7e0cf02b9e546d1e5e4911b63cb4bbe41f759e6a2",
    "diagonal quadrant 1,1 10 json":
        "aa0bba43c181f4889fe92d1872dda24ed906ac6a857482c80b06ff05fcc0cb6c",
    "diagonal quadrant 1,1 10 text":
        "95338f8a62bdfa53095ec188ae569d30181f650879daa379548315d74c648a76",
    "diagonal quadrant 1,1 10 csv":
        "9d9233aa509a2803362f4216982d59252f4875ada57b8c5a8e138406747774de",
    "diagonal quadrant 12,0 10 json":
        "305377b533eec9dd5a9f92388909aedca536dcb24809e2d724936adb8fe4907e",
    "diagonal quadrant 12,0 10 text":
        "5bb2156fe87342989af39c8d3841263e8ca562f22b32c642d0d66ba0dc41bd3a",
    "diagonal quadrant 12,0 10 csv":
        "b1af715c244fd9fb33c22c107d7cdf9a682588cad3d53a29d3b36fdf5537a596",
    "diagonal three-quadrant 0,0 10 json":
        "f97619a10d3488c08ca8412351658227f3466ae1b6576e1653b3ec43d187ea23",
    "diagonal three-quadrant 0,0 10 text":
        "d3059e973f31809f4b7dd36193d626d295fd238afe172742e976a31f9449de48",
    "diagonal three-quadrant 0,0 10 csv":
        "fd1edad586f8680b468576b5d6cb80d2af24911a0fd464b6fc21d3132b490b43",
    "diagonal three-quadrant -1,1 10 json":
        "43edca263651710b010303fc5bfb0de50c8dc7571f590a0d70619a864d4e8a50",
    "diagonal three-quadrant -1,1 10 text":
        "393f1275f78c14659ab32535664370a6f8708e359f019bf26994458b559d9fad",
    "diagonal three-quadrant -1,1 10 csv":
        "2b9929ca04040ea110c64fc4948b5d1a9b63f7b2c980b00e91f3bf1d21b4b2bb",
    "diagonal three-quadrant 12,0 10 json":
        "4b2d6f20c7539261fc47eb14611f686dbaa0915ed83f7b5a4fa38e6234d7df2b",
    "diagonal three-quadrant 12,0 10 text":
        "a0d28d714aba1aad335e10ac75023853db369000ba816761d9053fffb2ddc44a",
    "diagonal three-quadrant 12,0 10 csv":
        "cd8aab2077b21dd0801fbac74fe37a6ab78d34f839fd3d98e15635f93e1eb760",
    "diagonal wedge135 0,0 10 json":
        "e08a560519430afe0acb828b236d21c78dc5ec7d612b71e3aa1aa328260a03f2",
    "diagonal wedge135 0,0 10 text":
        "8e373fed3a8ddb7dfcf110ac9dc10dab48dcdabbb55ea970add13a045fb91350",
    "diagonal wedge135 0,0 10 csv":
        "8dd18ef281947f90fb7a836bb1032d3b928354df9618c5e966183794570570fd",
    "diagonal wedge135 -1,1 10 json":
        "87e72342a57d0c2d5033c2ec1be4b2d066b950e57564d75ffa382f322c643eec",
    "diagonal wedge135 -1,1 10 text":
        "02c6e0eb97563c5b87649e95e4a74d73c058f1f487b7212b003715f3279b9bec",
    "diagonal wedge135 -1,1 10 csv":
        "96157a2ebb2acb290c6367840e413c41116e7e1d72a3a67fd204f0bc1f9d2bf3",
    "diagonal wedge135 12,0 10 json":
        "305377b533eec9dd5a9f92388909aedca536dcb24809e2d724936adb8fe4907e",
    "diagonal wedge135 12,0 10 text":
        "5bb2156fe87342989af39c8d3841263e8ca562f22b32c642d0d66ba0dc41bd3a",
    "diagonal wedge135 12,0 10 csv":
        "b1af715c244fd9fb33c22c107d7cdf9a682588cad3d53a29d3b36fdf5537a596",
    "diagonal half-plane 0,0 10 json":
        "04d7e3023466fa9953c5e293e8e5620185c5ff5034c184baebfba2f9c9a68c42",
    "diagonal half-plane 0,0 10 text":
        "845fe2a124cddf16e23f597647dd8f7f65f8997dfe1f43212394c8f6c660255a",
    "diagonal half-plane 0,0 10 csv":
        "681cb76022ec2111470cce5d2d8c4942f3c8bfd435b2808c76b02b560e0e9308",
    "diagonal half-plane -1,1 10 json":
        "04d7e3023466fa9953c5e293e8e5620185c5ff5034c184baebfba2f9c9a68c42",
    "diagonal half-plane -1,1 10 text":
        "845fe2a124cddf16e23f597647dd8f7f65f8997dfe1f43212394c8f6c660255a",
    "diagonal half-plane -1,1 10 csv":
        "681cb76022ec2111470cce5d2d8c4942f3c8bfd435b2808c76b02b560e0e9308",
    "diagonal half-plane 12,0 10 json":
        "1921652914f05b5669ae39b88b4541ddc4dcd018f15254cc9a9805de5cd22e9e",
    "diagonal half-plane 12,0 10 text":
        "4f0b02b660251e2cb8391da87696c5358314338f890fd9eac620c24c8d1a38c9",
    "diagonal half-plane 12,0 10 csv":
        "3440586cce39f625516948e7c987699de86da6e60b6d31871450e807719387de",
    "diagonal full-plane 0,0 10 json":
        "4b2d6f20c7539261fc47eb14611f686dbaa0915ed83f7b5a4fa38e6234d7df2b",
    "diagonal full-plane 0,0 10 text":
        "a0d28d714aba1aad335e10ac75023853db369000ba816761d9053fffb2ddc44a",
    "diagonal full-plane 0,0 10 csv":
        "cd8aab2077b21dd0801fbac74fe37a6ab78d34f839fd3d98e15635f93e1eb760",
    "diagonal full-plane -1,1 10 json":
        "4b2d6f20c7539261fc47eb14611f686dbaa0915ed83f7b5a4fa38e6234d7df2b",
    "diagonal full-plane -1,1 10 text":
        "a0d28d714aba1aad335e10ac75023853db369000ba816761d9053fffb2ddc44a",
    "diagonal full-plane -1,1 10 csv":
        "cd8aab2077b21dd0801fbac74fe37a6ab78d34f839fd3d98e15635f93e1eb760",
    "diagonal full-plane 12,0 10 json":
        "4b2d6f20c7539261fc47eb14611f686dbaa0915ed83f7b5a4fa38e6234d7df2b",
    "diagonal full-plane 12,0 10 text":
        "a0d28d714aba1aad335e10ac75023853db369000ba816761d9053fffb2ddc44a",
    "diagonal full-plane 12,0 10 csv":
        "cd8aab2077b21dd0801fbac74fe37a6ab78d34f839fd3d98e15635f93e1eb760",
    "square three-quadrant 0,0 200 json":
        "e26349a849b84afd3d113478179e243cc6225bd68d1b865ff5fc85cbdd499db2",
    "diagonal three-quadrant 0,0 200 json":
        "04e4456db0d37d5b39224e89784d41ffd2c5f816a5ada0315d43012fe4695b2a",
}


@pytest.mark.parametrize("case", sorted(ASYMPT_SHA256))
def test_asympt_bytes_are_pinned(capsys, case):
    lattice, region, start, n, fmt = case.split()
    code, out = run(capsys, "asympt", "--lattice", lattice, "--region",
                    region, f"--start={start}", "--n", n, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ASYMPT_SHA256[case]


# sha256 of `param --key K --order 12 --format json` for every catalog key
# (the `params` and `endpoints` suites), pinned the same way.  Those suites
# check only that each residual vanishes; these pin the series themselves,
# each of which goes through a series division.
CATALOG_PARAM_SHA256 = {
    "diag-F0":
        "237900fd1eaf52c04cd70aa3ad455403d56dfb6ea800fdc61d047857422f2d06",
    "diag-R0":
        "67dc6842d8e987dbb00b1e11b184db2eeb8bb0692f6abb0aa83ea7f0d8635a14",
    "diag-S1":
        "00215073c411c3f0a012a42ee96ec5e690c7913f6c41aa1682fcd0165e76c54a",
    "diag-origin-axis-x":
        "3947da509807485720ef540546b6fa13d8f0ff209c95b022e5027c4b9028831e",
    "diag-origin-axis-y":
        "1f071250a321d5edda8689263394de24d96c79f23cfbd8ed58eee200f778b9b0",
    "diag-origin-end-0-0":
        "80618b413d880e82d6048efbe0a7cfe0ec3f7abc24e83e77480a52f3d4ffce0a",
    "diag-origin-end-m1-1":
        "cfba39e97c0e0b0202375062366b9584e6a5f0e564a2a2c704937b7a0b427999",
    "diag-origin-end-m2-0":
        "8dee3bfc7d7e97d40e9781fbc244a711b14bb696161ffb0e6b8466c321e3098a",
    "diag-shift-F0":
        "56de7e0c96bc4809704742463729d3a8008ddf2b528c6d45694d63b8cc0fc998",
    "diag-shift-S1":
        "289522039b9171701f5d457ae99925f5d55ae10d422ae0234b154cbd5c708e3d",
    "diag-shift-below-axis-x":
        "4fca4147b042748a25a8fa26eee07b9720a1ced9ad0d5d4b68d89b17a586d661",
    "diag-shift-below-axis-y":
        "1692acc070626d34935fe6a6b60aca47db197a9779b5e5e2e3af0a0b1022f0d1",
    "diag-shift-end-0-0":
        "aaf083dffcb56920c67bd75cc951c158a0299011920b4611d9c637ad9e8b12e2",
    "diag-shift-end-0-m2":
        "b457628539ab883abeb37ae569caf63a916c222ccaf984bf3f64ca68df6b5919",
    "diag-shift-end-1-m1":
        "b7bad0580f723ba74373a1bd0eadca3eea0b9b2ce9f777e00f59aa6c3d8832a2",
    "diag-shift-end-m1-1":
        "8dbb85af354973ea016371cf5b40463bc8ff91b04feffea3101e4fea7f9fe22f",
    "diag-shift-end-m1-3":
        "15ffec2fb676213a7f6c3bbd6b554eb1ed972f8fad6e2495a54689f1cece4381",
    "diag-shift-end-m2-0":
        "423c1b41dda51de255a908f3861237de95b6269c66dedfdca22384d1fd1ff9dc",
    "diag-shift-left-axis-x":
        "d6cc81980eb3f955abb787420a2479e077ce11b6750f1101992a3b749cb63db4",
    "diag-shift-left-axis-y":
        "56e518c31b0157ea0a225fe512a012717aed9dba7cc62efe39342788c1561e73",
    "sq-P0":
        "b437484c0fbace4fd32df61942e50323e0e6004ceb7fcb7311f71aeaa821644f",
    "sq-S1":
        "040f5d3aeee8dc4b57cf951e0090172e6cec9f57c375c90d780de6925731fd1d",
    "sq-origin-axis-x":
        "81ddbbc76766c010545a586c884b47a340ad71414820eec5aed5374216e6a1b5",
    "sq-origin-axis-y":
        "7968d5a2942759a34d360bdf1fa6cb969c42028e350cba17225dff68e043d50b",
    "sq-origin-end-0-0":
        "574c4377ab853a8144b7e6712d2fa546b5e8e1a5a56c8ce8fb1ced2a6ed47651",
    "sq-origin-end-m1-0":
        "628bbff992cd3cf6aecdd894e7f5b0bae47803a09b196a7dafdbc5abf02fa3d0",
    "sq-origin-end-m1-1":
        "560b97de02840e46e815e167f8acd46daa6d7ba8a1f3bd2bc04bd709c1e6a358",
    "sq-origin-end-m2-0":
        "e0427b4270ba39de03509a10f0a35c6394f3d989b591171459f7273eb7b99052",
    "sq-origin-m01":
        "bd8bfc7dd49c433975964d73924b0903905c182c32cd528447c5e64414e5052b",
    "sq-shift-below-axis-x":
        "71cd6812ef6ad2361ba7d032b226b6461094dd03bac3653d6ca27a0a924e5abf",
    "sq-shift-below-axis-y":
        "92b63460b2b89f342e1812050a047c3ae2da648ef8200d4e5147e8466f737fad",
    "sq-shift-end-0-0":
        "faae231d59414702b3622df81fcb7e0c669f1de63fc79b2e9cf63f99e95ce139",
    "sq-shift-end-0-m1":
        "1dc4f6f85e80565ba435741d4201e1385393617d1f28c261e1f9b4720579c203",
    "sq-shift-end-0-m2":
        "03abc843b71725fee70b1f50009dc503b29edc5f78876b97a2e81e903e525539",
    "sq-shift-end-m1-0":
        "ead29868da2853157286e7691bb4e6a354e856f7041e27275557b7f00d85b602",
    "sq-shift-end-m1-1":
        "5a1bf00106722468b7b1326fb85d024a620158e3985a4b1abffb7001e8c29f92",
    "sq-shift-end-m2-0":
        "a84b793d08ac8dafa63d11ba970c53fd82d8945fac4a303afd071c244a9c8b88",
    "sq-shift-left-axis-x":
        "c4299a1da0d379c5c2c6a81089e6cb8c498fb22e3d329578523b42f8169281f1",
    "sq-shift-left-axis-y":
        "a5d15fc42cb63d200588e2fd7adcb0e57dbcbb9a1bdcde120be9655b3eab20d3",
}


def test_every_catalog_key_is_pinned():
    from conewalks import engine, identities

    assert set(CATALOG_PARAM_SHA256) == {
        *engine.param_keys(), *identities.catalog_checks("z_rationals")}


@pytest.mark.parametrize("key", sorted(CATALOG_PARAM_SHA256))
def test_catalog_param_bytes_are_pinned(capsys, key):
    code, out = run(capsys, "param", "--key", key, "--order", "12",
                    "--format", "json")
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == CATALOG_PARAM_SHA256[key])


# sha256 of the walk-oracle commands, pinned the same way.  The six series
# runs are the benchmark's oracle-sweep inputs: both lattices in the
# three-quadrant cone from (0, 0), (-1, 0) and (-2, 0).  A change to the DP
# keeps these bytes.
ORACLE_SHA256 = {
    ("series", "--order", "62", "--lattice=square", "--start=0,0",
     "--format", "json"):
        "b4a74991649bf4cfeb0e2fba1ca7cec7705903fed6d1fba238c28d16ee418046",
    ("series", "--order", "62", "--lattice=square", "--start=-1,0",
     "--format", "json"):
        "3f598bdc2f619fa66f2492e641f35137e1fe94fdd3ddcd99e98c806a7c0d862d",
    ("series", "--order", "62", "--lattice=square", "--start=-2,0",
     "--format", "json"):
        "50678ea401e00f52a3a03bb307d827e87f4e2eede61e0cda31ec5572364767a3",
    ("series", "--order", "62", "--lattice=diagonal", "--start=0,0",
     "--format", "json"):
        "13b94dfeaf06a8fded1e9a060ab567f7effb20de447af5e8e8dc0b7906ac0465",
    ("series", "--order", "62", "--lattice=diagonal", "--start=-1,0",
     "--format", "json"):
        "3f598bdc2f619fa66f2492e641f35137e1fe94fdd3ddcd99e98c806a7c0d862d",
    ("series", "--order", "62", "--lattice=diagonal", "--start=-2,0",
     "--format", "json"):
        "430e8c599c3ec4ee274746191b5d43afcb94d48534320f294a6d01e6224bf77d",
    ("count", "--n", "8", "--format", "json"):
        "7fe99e797a649cbbd3f231cdb6f8d11ec6482e3bb2f41d9dc4ccca5765b5dd6c",
    ("count", "--n", "8", "--format", "json", "--endpoint", "0,0"):
        "ad7bb1c5792dd6ec35fe854ffa5acb040b208a17ce2ceece4227fa9a12b0c8d2",
    ("count", "--n", "8", "--format", "csv"):
        "9a5a2f9a970fa03bf0782b58103cb6f6da3c90ec81784b9925bcdec16a2bf759",
    ("count", "--n", "8", "--format", "csv", "--endpoint", "0,0"):
        "5c10b37ba20ccfa0e351ca136711c0eda67d99f63ee15b8df12c35ee309ea747",
    ("count", "--n", "8"):
        "97b32ca65433d81fcf9a50e3b972259c573a7e5892e0b21b76c8cb39148a666c",
    ("count", "--n", "6", "--lattice", "diagonal", "--region", "wedge135",
     "--start", "-1,1", "--format", "json"):
        "80649bccf887780c74aa1437ec9890b6675e1fea4e13db0b7ffd0ad39516331e",
}


@pytest.mark.parametrize("argv", sorted(ORACLE_SHA256))
def test_oracle_bytes_are_pinned(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_SHA256[argv]


def _readme_walk_commands():
    """The `conewalks count` and `conewalks series` lines of the README's
    Command line block."""
    from pathlib import Path

    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines()
            if line.split()[:2] in (["conewalks", "count"],
                                    ["conewalks", "series"])]


@pytest.mark.parametrize("line", _readme_walk_commands())
def test_readme_walk_commands_run(capsys, line):
    """Every count and series example of the README runs, including the
    shifted starts written in the spaced `--start -1,0` form."""
    import shlex

    code, _ = run(capsys, *shlex.split(line)[1:])
    assert code == 0


# Command lines with a point that begins with '-' after a space, and the
# exit code each gives: every command that takes --start or --endpoint,
# and a start outside the region.
SPACED_POINTS = {
    "count --n 4 --start -1,0": 0,
    "count --n 4 --start -1,0 --endpoint -1,1 --format json": 0,
    "count --n 4 --endpoint -1,0 --format csv": 0,
    "series --lattice diagonal --order 9 --start -2,0": 0,
    "series --order 9 --start -1,0 --endpoint -1,0 --format json": 0,
    "oeis --bfile BFILE --n 2 --start -1,0 --endpoint -1,0": 0,
    "asympt --n 16 --start -2,0": 0,
    "count --n 2 --start -1,-1": 2,
}


@pytest.mark.parametrize("line", sorted(SPACED_POINTS))
def test_spaced_point_gives_the_bytes_of_the_equals_form(capsys, tmp_path,
                                                        line):
    import re

    path = tmp_path / "b.txt"
    path.write_text("0 1\n")
    spaced = line.replace("BFILE", str(path))
    joined = re.sub(r"(--start|--endpoint) (-\d)", r"\1=\2", spaced)
    assert "=-" in joined
    outputs = []
    for argv in (spaced, joined):
        code = main(argv.split())
        outputs.append((code, *capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == SPACED_POINTS[line]


# -- the contract over generated command lines ------------------------------

def mostly(good, bad):
    """Values drawn from ``good`` four times in five, else from ``bad``."""
    return st.sampled_from([good] * 4 + [bad]).flatmap(lambda values: values)


# Values for each flag: good ones, capped small so each run is quick, and
# malformed ones.
POINT_VALUES = mostly(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
        lambda p: f"{p[0]},{p[1]}"),
    st.sampled_from(["1,", ",", "a,b", "1_0,0", "１,0", "10**11,0",
                     "100000000000,0", "0,0,0", ""]))
SIZE_VALUES = mostly(st.integers(-1, 8).map(str),
                     st.sampled_from(["x", "1.5", "", "٣"]))
FLAG_VALUES = {
    "lattice": mostly(st.sampled_from(["square", "diagonal"]),
                      st.sampled_from(["king", ""])),
    "region": mostly(st.sampled_from(["quadrant", "three-quadrant",
                                      "wedge135", "half-plane",
                                      "full-plane"]),
                     st.just("cone")),
    "start": POINT_VALUES,
    "n": SIZE_VALUES,
    "order": SIZE_VALUES,
    "endpoint": POINT_VALUES,
    "suite": mostly(st.sampled_from(["all", "base", "quartics", "xseries",
                                     "identities", "closed-forms",
                                     "endpoints", "params", "base,base"]),
                    st.sampled_from(["nonsense", "", ","])),
    "format": mostly(st.sampled_from(["text", "json", "csv"]),
                     st.just("xml")),
    "key": mostly(st.sampled_from(["base-T", "base-U", "base-Z", "base-V",
                                   "sq-origin-axis-x", "diag-end-0-0"]),
                  st.just("nonsense")),
    "bfile": mostly(st.sampled_from(["GOOD", "MISMATCH"]),
                    st.sampled_from(["MALFORMED", "NON_ASCII", "EMPTY",
                                     "MISSING"])),
    "config": st.just("CONFIG"),
}
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 8),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
    st.sampled_from(["square", "diagonal", "quadrant", "json", "csv",
                     "0,0", "-1,0", "all", "base"]),
    st.lists(st.sampled_from(["base", "quartics", "all", 1]), max_size=2),
    st.lists(st.integers(-2, 2), max_size=3))
CONFIG_TEXTS = st.one_of(
    st.dictionaries(st.sampled_from([*DEFAULTS, "colour"]), JSON_VALUES,
                    max_size=3).map(lambda cfg: json.dumps(cfg).encode()),
    st.sampled_from([b"{", b"[]", b"\xef\xbb\xbf{}", b"\xff{}",
                     b'{"n": 1, "n": 2}', b"", b"[" * 100_000]))
BFILES = {"GOOD": b"0 1\n1 4\n2 14\n", "MISMATCH": b"0 1\n1 5\n",
          "MALFORMED": b"0 1\n1 x\n", "NON_ASCII": b"0 1\n1 \xe94\n",
          "EMPTY": b""}


@st.composite
def command_lines(draw):
    """(argv, config file bytes): a subcommand with a few of its flags,
    now and then one it does not take, each with a good or bad value."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags = [*COMMANDS[command][1], "config"]
    chosen = draw(st.lists(st.sampled_from(flags), unique=True, max_size=4))
    if draw(st.sampled_from([False] * 9 + [True])):
        chosen.append(draw(st.sampled_from(sorted(set(FLAGS) - set(flags)))))
    argv = [command]
    for flag in chosen:
        argv.append(f"--{flag}")
        if flag != "list":
            argv.append(draw(FLAG_VALUES[flag]))
    return argv, draw(CONFIG_TEXTS)


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    paths = {"CONFIG": root / "config.json", "MISSING": root / "missing"}
    for name, data in BFILES.items():
        paths[name] = root / f"{name}.txt"
        paths[name].write_bytes(data)
    return paths


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command_lines())
@example((["count", "--config", "CONFIG"], b"[" * 100_000))
@example((["oeis", "--bfile", "MALFORMED", "--format", "json"], b"{}"))
@example((["asympt", "--n", "512", "--format", "json"], b"{}"))
def test_every_command_line_keeps_the_exit_contract(contract_files, case):
    """Exit 0, 1 or 2 and never a traceback; an exit 2 names its error (or
    prints argparse's usage); an exit 0 or 1 in JSON format prints JSON."""
    argv, config = case
    contract_files["CONFIG"].write_bytes(config)
    argv = [str(contract_files.get(arg, arg)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2) and "Traceback" not in out + err, (argv, err)
    if code == 2:
        assert err.startswith("error: ") or "usage: " in err, (argv, err)
        return
    fmt = "text"
    if "--config" in argv:
        fmt = json.loads(config).get("format", fmt)
    if "--format" in argv:
        fmt = argv[argv.index("--format") + 1]
    if fmt == "json":
        json.loads(out)
