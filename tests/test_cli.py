"""Command-line front end: parsing, layering, formats, exit codes."""

import hashlib
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

    def test_list_is_the_expandable_keys(self, capsys):
        from conewalks import engine

        _, out = run(capsys, "param", "--list")
        keys = out.split()
        assert keys[:4] == ["base-T", "base-Z", "base-U", "base-V"]
        assert len(keys) == 4 + len(engine.param_keys()) + len(
            engine.z_rational_keys())
        for key in ("base-Z-hyper", "base-Y-square", "quartic-sq-S1",
                    "x-sq-0"):
            assert key not in keys
            assert main(["param", "--key", key]) == 2

    def test_every_listed_key_expands(self, capsys):
        _, out = run(capsys, "param", "--list")
        for key in out.split():
            code, series = run(capsys, "param", "--key", key, "--order", "12")
            assert code == 0 and "O(t^" in series, key


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
        assert ids == [key for keys, _ in suites().values() for key in keys()]
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
            "non-exact diagnostic (float64 dynamic programming)",
            "n,total_float,ratio,target"]),
    ])
    def test_table_commands_print_csv(self, capsys, argv, head):
        code, out = run(capsys, *argv, "--format", "csv")
        assert code == 0
        assert out.splitlines()[:len(head)] == head


# The conewalks modules each command loads, besides the package and cli.
STACK = {"walks", "engine", "decompose", "closedforms", "laurent", "series"}
LOADS = {
    ("count", "--n", "3"): {"walks"},
    ("series", "--order", "5", "--endpoint", "0,0"): {"walks"},
    ("asympt", "--n", "4"): {"walks"},
    ("oeis", "--n", "3"): {"walks", "bfile"},
    ("param", "--key", "base-T", "--order", "4"): STACK,
    ("param", "--list"): STACK,
    ("verify", "--suite", "base", "--order", "3"): STACK | {"identities"},
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
    package modules the command runs, and no command but asympt loads
    dataclasses or importlib.resources."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import conewalks

    paths = [Path(conewalks.__file__).parents[1]]
    if argv[0] == "asympt":
        paths.append(Path(pytest.importorskip("numpy").__file__).parents[1])
    bfile = tmp_path / "b.txt"
    bfile.write_text("0 1\n1 4\n2 14\n")
    extra = ["--bfile", str(bfile)] if argv[0] == "oeis" else []
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    done = subprocess.run([sys.executable, "-S", "-c", LOADED, *argv, *extra],
                          env=env, capture_output=True, text=True, check=True)
    code, modules = json.loads(done.stdout)
    assert code == 0
    assert {m for m in modules if m.startswith("conewalks")} == {
        "conewalks", "conewalks.cli",
        *(f"conewalks.{name}" for name in LOADS[argv])}
    if argv[0] != "asympt":
        assert not {"dataclasses", "importlib.resources"} & set(modules)


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
        from conewalks.engine import BASE_KEYS

        code, out = run(capsys, "verify", "--suite", "base, base",
                        "--order", "3", "--format", "json")
        assert code == 0
        assert [r["id"] for r in json.loads(out)] == list(BASE_KEYS)

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
            key for keys, _ in suites().values() for key in keys()]

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
# benchmark's N = 16 and at N = 20.  A refactor keeps these bytes; a change
# that alters a verdict or an order on purpose re-pins.
VERIFY_ALL_SHA256 = {
    12: "89b9b395e147c7e4d7ff6269b3a10f9d62c49329336791b258acb7f857567b1b",
    16: "1efc1f517de39e280ff13a9dbcf321c2f451ab9f85e789ce5cd7ac7d17dda6cd",
    20: "ad6fa0b1cf8c8eabadf6bee04f84a04a7a3ddf33cad5ebcf7fde5509d23e1e2f",
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
        "36bfa9c90952adfcd4142b0f9c4b83be6feb4045c9d71f9c449221b920dca93c",
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
        "4a8ce99bf73e99e3c767964ddcf3655f307513634096f066b33022992a786e5f",
    "diag-shift-below-axis-y":
        "228e84ffec3ed4d038157cf1777b741db766d5eb90b7769c6d5ccee61bf3b9e5",
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
        "ef8b75a529379dc06d86657d888ce0ac1f769b6726ebb4d2628447abced9b3a8",
    "diag-shift-left-axis-y":
        "85c9d0279d36350ad1231b4d39a546030b3f60a2cb4266c58d5c8eb01df2bc4f",
    "sq-P0":
        "b437484c0fbace4fd32df61942e50323e0e6004ceb7fcb7311f71aeaa821644f",
    "sq-S1":
        "040f5d3aeee8dc4b57cf951e0090172e6cec9f57c375c90d780de6925731fd1d",
    "sq-origin-axis-x":
        "a0541dd1585e3a3dbe667267fc9e097fd529f445e1a7b706e90a3ca344e1015d",
    "sq-origin-axis-y":
        "bedffe1db7044fedb1732e747711835b618ad16e83bfdea5cbdf8f90d4a82f17",
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
        "451a3f7eeb2c9d795a2c714655ed71699d5828766f8491a765641ab7ee09f845",
    "sq-shift-below-axis-y":
        "69a3d15c4b1d49d07bc9d5990c783d45eecc7b37abebc374fd1770d72c8eb1ed",
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
        "8cca359b474a7ff524f894b1627314b81b9dd0981633ece45fc3c5edf4bdc28c",
    "sq-shift-left-axis-y":
        "5e8512a748aad508e84a68c2ca6c6b8d7e335b0c837f7f2bf6e4bdad85ddb9cf",
}


def test_every_catalog_key_is_pinned():
    from conewalks import engine

    assert set(CATALOG_PARAM_SHA256) == {*engine.param_keys(),
                                         *engine.z_rational_keys()}


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
}


@pytest.mark.parametrize("argv", sorted(ORACLE_SHA256))
def test_oracle_bytes_are_pinned(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_SHA256[argv]
