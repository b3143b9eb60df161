"""Command-line front end.

Subcommands: count, series, verify, param, oeis, asympt.  Configuration
is layered: command-line flags override a JSON config file, which
overrides built-in defaults.  All big integers are emitted as decimal
strings in JSON so no consumer needs 64-bit-safe parsing.  Output
ordering is fixed, so identical configurations give identical bytes.

``COMMANDS`` maps each subcommand to its handler and to the only flags
it takes; a config file may set any key.  Each command reads its walk
counts from one DP sweep (``oeis`` sweeps only to the last file index it
compares); ``build_model`` rejects a start or --endpoint outside the
region.  Each command imports only what it runs: ``count``, ``series``
and ``asympt`` need ``walks`` alone and ``oeis`` adds ``bfile``, while
``verify`` and ``param`` import ``engine`` (and ``verify`` ``identities``)
when called.  Only the table commands (``CSV_COMMANDS``) take --format csv.
``verify`` runs suites from the ``suites()`` table (suite -> its table):
'all' stands for every suite and a repeated suite runs once.
``engine.run_check`` turns each check row into its report; the closed
forms keep one loop (``_closed_forms``), which reads the endpoints of each
walk model from one sweep (``walks.endpoint_columns``), so its 11 entries
make 5 sweeps.  ``asympt`` reads the exact totals of one sweep and turns
them into floats only to print them.  --start and --endpoint take a value
that begins with '-' after a space, as after '='.

Exit codes: 0 success, 1 verification failure or data mismatch (including
a catalog entry whose numerator its denominator does not divide, and a
closed form with a non-integral value), 2 usage error (including an
--order too low for any check, such as a catalog entry whose denominator
is zero to that order, and an asympt --n beyond the float64 range).
A reader that closes standard output early (``| head``) ends the command
with exit 1 and nothing on standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .walks import (
    LATTICES,
    Region,
    WalkModel,
    count_sequence,
    count_walks_upto,
    endpoint_columns,
)

REGIONS = {region.value: region for region in Region}

DEFAULTS = {
    "lattice": "square",
    "region": "three-quadrant",
    "start": "0,0",
    "n": 10,
    "order": 12,
    "endpoint": None,
    "suite": "all",
    "format": "text",
}

# The growth-rate diagnostics: limit of total(n) * n^(1/3) / 4^n for the
# three-quadrant cone from the origin; other models print no target.
ASYMPT_CONSTANTS = {
    "square": 2**5 * math.sqrt(3) / (3**3 * math.gamma(2 / 3)),
    "diagonal": 2**3 * math.sqrt(3) / (3**2 * math.gamma(2 / 3)),
}

# Longest length whose 4.0**n stays inside the float64 range.
ASYMPT_MAX_N = 511


class UsageError(ValueError):
    pass


def _order_too_low(order: int, key: str, exc) -> UsageError:
    return UsageError(f"--order {order} is too low for {key} ({exc})")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_pair(value) -> tuple:
    """A point given as an 'i,j' string or a two-element list of ints."""
    parts = value
    if isinstance(value, str):
        try:
            parts = [int(part) for part in value.split(",")]
        except ValueError:
            raise UsageError(f"non-integer coordinate in {value!r}")
    if not (isinstance(parts, list) and len(parts) == 2
            and all(map(_is_int, parts))):
        raise UsageError(f"expected 'i,j', got {value!r}")
    return tuple(parts)


def load_config(args: argparse.Namespace) -> dict:
    """Merge defaults, config-file values, and explicit flags."""
    cfg = dict(DEFAULTS)
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError,
                RecursionError) as exc:
            raise UsageError(f"cannot read config {path}: {exc}")
        if not isinstance(file_cfg, dict):
            raise UsageError("config file must hold a JSON object")
        for key, value in file_cfg.items():
            if key not in DEFAULTS:
                raise UsageError(f"unknown config key {key!r}")
            cfg[key] = value
    for key in DEFAULTS:
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            cfg[key] = value
    for key in ("lattice", "region", "format"):
        if not isinstance(cfg[key], str):
            raise UsageError(f"{key} must be a string, got {cfg[key]!r}")
    suite = cfg["suite"]
    if not (isinstance(suite, str) or isinstance(suite, list)
            and all(isinstance(name, str) for name in suite)):
        raise UsageError(f"suite must be a string or a list of strings, "
                         f"got {suite!r}")
    if cfg["lattice"] not in LATTICES:
        raise UsageError(f"unknown lattice {cfg['lattice']!r}")
    if cfg["region"] not in REGIONS:
        raise UsageError(f"unknown region {cfg['region']!r}")
    if cfg["format"] not in ("json", "csv", "text"):
        raise UsageError(f"unknown format {cfg['format']!r}")
    for key in ("n", "order"):
        if not _is_int(cfg[key]):
            raise UsageError(f"{key} must be an integer, got {cfg[key]!r}")
    if cfg["n"] < 0 or cfg["order"] < 0:
        raise UsageError("limits must be non-negative")
    cfg["start"] = _parse_pair(cfg["start"])
    if cfg["endpoint"] is not None:
        cfg["endpoint"] = _parse_pair(cfg["endpoint"])
    return cfg


def build_model(cfg: dict) -> WalkModel:
    """The configured model; its start and any endpoint lie in its region."""
    try:
        model = WalkModel(
            LATTICES[cfg["lattice"]], REGIONS[cfg["region"]], cfg["start"]
        )
        if cfg["endpoint"] is not None:
            model.require_inside("endpoint", cfg["endpoint"])
    except ValueError as exc:
        raise UsageError(str(exc))
    return model


def _write_json(value, out) -> None:
    """The one JSON writer: indent 2, sorted keys, a trailing newline."""
    json.dump(value, out, indent=2, sort_keys=True)
    out.write("\n")


def _emit_rows(rows: list, header: list, fmt: str, out) -> None:
    """rows: list of dicts with keys from header, values already strings."""
    if fmt == "json":
        _write_json(rows, out)
    elif fmt == "csv":
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(str(row[k]) for k in header) + "\n")
    else:
        for row in rows:
            out.write("  ".join(f"{k}={row[k]}" for k in header) + "\n")


# -- count -----------------------------------------------------------------


def cmd_count(cfg: dict, args, out) -> int:
    model = build_model(cfg)
    limit = cfg["n"]
    endpoint = cfg["endpoint"]
    if endpoint is not None:
        rows = [
            {"n": n, "i": endpoint[0], "j": endpoint[1], "count": str(count)}
            for n, count in enumerate(count_sequence(model, limit, endpoint))
        ]
        _emit_rows(rows, ["n", "i", "j", "count"], cfg["format"], out)
        return 0
    tables = count_walks_upto(model, limit)
    if cfg["format"] == "json":
        _write_json([table.to_json() for table in tables], out)
    else:
        rows = [
            {"n": table.n, "i": i, "j": j, "count": str(table.counts[(i, j)])}
            for table in tables
            for (i, j) in sorted(table.counts)
        ]
        _emit_rows(rows, ["n", "i", "j", "count"], cfg["format"], out)
    return 0


# -- series ----------------------------------------------------------------


def cmd_series(cfg: dict, args, out) -> int:
    model = build_model(cfg)
    order = cfg["order"]
    endpoint = cfg["endpoint"]
    values = [str(c) for c in count_sequence(model, order - 1, endpoint)]
    payload, column = {"order": order, "totals": values}, "total"
    if endpoint is not None:
        payload, column = {"endpoint": list(endpoint), "order": order,
                           "coeffs": values}, "count"
    if cfg["format"] == "json":
        _write_json(payload, out)
    else:
        rows = [{"n": n, column: v} for n, v in enumerate(values)]
        _emit_rows(rows, ["n", column], cfg["format"], out)
    return 0


# -- verify ----------------------------------------------------------------


def suites() -> dict:
    """suite -> its table, in report order: id -> its row (anchor, check)
    for ``engine.run_check``, or to its ``ClosedForm`` for the closed
    forms."""
    from . import closedforms, engine, identities

    return {
        "base": engine.BASE_CHECKS,
        "params": engine.catalog_checks("bivariate"),
        "endpoints": engine.catalog_checks("z_rationals"),
        "quartics": engine.QUARTIC_CHECKS,
        "xseries": engine.XSERIES_CHECKS,
        "identities": identities.IDENTITIES,
        "closed-forms": dict(sorted(closedforms.catalog().items())),
    }


def suite_names(selection) -> list:
    """The suites named, in order: 'all' is every suite in ``suites()``
    order wherever it appears; a repeated suite keeps its first position."""
    names = selection.split(",") if isinstance(selection, str) else selection
    known = suites()
    chosen = {}
    for name in (name.strip() for name in names):
        if name != "all" and name not in known:
            raise UsageError(f"unknown suite {name!r}")
        chosen.update(dict.fromkeys(known if name == "all" else [name]))
    if not chosen:
        raise UsageError("no suite selected")
    return list(chosen)


def _closed_forms(entries: dict, order: int) -> list:
    """Compare each catalog closed form with its oracle counts for
    n = 0..order (walks of 2n steps).  The counts come from one sweep of
    each walk model and live only for this call.  A formula that gives a
    non-integral value fails there, with the message as its mismatch."""
    from . import engine

    ends = {}  # model -> the endpoints of its entries
    for entry in entries.values():
        ends.setdefault(entry.model, []).append(entry.end)
    columns = {model: endpoint_columns(model, 2 * order, points)
               for model, points in ends.items()}
    reports = []
    for key, entry in entries.items():
        found = []
        for n, count in enumerate(columns[entry.model][entry.end][::2]):
            try:
                expected = entry.count(n)
            except ArithmeticError as exc:
                found = [(str(exc),)]
                break
            if expected != count:
                found = [(n, str(expected), str(count))]
                break
        reports.append(engine.report(key, entry.anchor, found, order))
    return reports


def run_suite(suite: str, order: int) -> list:
    from . import engine
    from .series import OrderError

    table = suites()[suite]
    if suite == "closed-forms":
        return _closed_forms(table, order)
    reports = []
    for key in table:
        try:
            reports.append(engine.run_check(table, key, order))
        except OrderError as exc:
            raise _order_too_low(order, key, exc)
    return reports


def cmd_verify(cfg: dict, args, out) -> int:
    order = cfg["order"]
    if order < 1:
        raise UsageError("verify needs --order 1 or more")
    reports = [report for name in suite_names(cfg["suite"])
               for report in run_suite(name, order)]
    failures = [r for r in reports if r["verdict"] != "pass"]
    if cfg["format"] == "json":
        _write_json(reports, out)
    else:
        for r in reports:
            line = f"{r['verdict']:4s}  {r['id']}"
            if r["first_failure"] is not None:
                line += f"  first failure: {r['first_failure']}"
            out.write(line + "\n")
        out.write(f"{len(reports) - len(failures)}/{len(reports)} passed\n")
    return 1 if failures else 0


# -- param -----------------------------------------------------------------


def param_builders() -> dict:
    """param key -> its series builder; every catalog key expands as well."""
    from . import engine

    return {
        "base-T": engine.series_T,
        "base-Z": engine.series_Z,
        "base-U": engine.series_U,
        "base-V": engine.series_V,
    }


def param_series_keys() -> list:
    """Every key that ``param --key`` expands, in ``param --list`` order."""
    from . import engine

    return [*param_builders(), *engine.param_keys(),
            *engine.catalog_checks("z_rationals")]


def cmd_param(cfg: dict, args, out) -> int:
    if args.list_keys:
        keys = param_series_keys()
        if cfg["format"] == "json":
            _write_json(keys, out)
        else:
            for k in keys:
                out.write(k + "\n")
        return 0
    key = args.key
    if key is None:
        raise UsageError("param requires --key or --list")
    from . import engine
    from .series import OrderError

    order = cfg["order"]
    builders = param_builders()
    if key in builders:
        series = builders[key](order)
    elif key in param_series_keys():
        try:
            series = engine.catalog_series(key, order)
        except OrderError as exc:
            raise _order_too_low(order, key, exc)
        except engine.CatalogError as exc:
            print(f"error: {key}: {exc}", file=sys.stderr)
            return 1
    else:
        raise UsageError(f"unknown series key {key!r}")
    if cfg["format"] == "json":
        payload = {
            "key": key,
            "order": order,
            "coeffs": [
                {str(e): str(c) for e, c in sorted(p.terms.items())}
                for p in series.coeffs
            ],
        }
        _write_json(payload, out)
    else:
        out.write(series.render() + "\n")
    return 0


# -- oeis ------------------------------------------------------------------


def cmd_oeis(cfg: dict, args, out) -> int:
    path = args.bfile
    if path is None:
        raise UsageError("oeis requires --bfile <path>")
    from . import bfile

    try:
        data = bfile.read_bfile(path)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    except bfile.BFileError as exc:
        if cfg["format"] == "json":
            _write_json({"verdict": "parse error", "error": str(exc)}, out)
        else:
            out.write(f"parse error in {path}: {exc}\n")
        return 1
    model = build_model(cfg)
    last = max((n for n, _ in data if n <= cfg["n"]), default=-1)
    counts = count_sequence(model, last, cfg["endpoint"])
    report = bfile.compare(data, counts.__getitem__, max_n=cfg["n"])
    if cfg["format"] == "json":
        _write_json(report, out)
    else:
        out.write(f"verdict: {report['verdict']}\n")
        for k in sorted(report):
            if k != "verdict":
                out.write(f"{k}: {report[k]}\n")
    return 0 if report["verdict"] == "agree" else 1


# -- asympt ----------------------------------------------------------------


def asympt_rows(model: WalkModel, lattice: str, limit: int) -> list:
    """The growth-rate rows, read from one exact sweep; each exact total
    becomes a float only here, to be printed."""
    totals = count_sequence(model, limit)
    target = None
    if model.region is Region.THREE_QUADRANT and model.start == (0, 0):
        target = ASYMPT_CONSTANTS[lattice]
    rows = []
    points = sorted({limit, *range(0, limit + 1, max(1, limit // 8))})
    for n in points:
        total = float(totals[n])
        ratio = total * n ** (1 / 3) / 4.0**n if n else total
        rows.append(
            {
                "n": n,
                "total_float": f"{total:.6e}",
                "ratio": f"{ratio:.6f}",
                "target": "" if target is None else f"{target:.6f}",
            }
        )
    return rows


def cmd_asympt(cfg: dict, args, out) -> int:
    if cfg["n"] > ASYMPT_MAX_N:
        raise UsageError(f"asympt needs --n {ASYMPT_MAX_N} or less: 4^n "
                         "must stay inside the float64 range")
    rows = asympt_rows(build_model(cfg), cfg["lattice"], cfg["n"])
    if cfg["format"] != "json":
        out.write("non-exact diagnostic (float64 values of exact counts)\n")
    _emit_rows(rows, ["n", "total_float", "ratio", "target"], cfg["format"], out)
    return 0


# -- entry point -----------------------------------------------------------


# Every flag: each of the first eight sets the config key it names, which a
# config file may set for any subcommand; the last three are read by one
# subcommand each.
FLAGS = {
    "lattice": {"choices": sorted(LATTICES)},
    "region": {"choices": sorted(REGIONS)},
    "start": {"help": "start point as i,j"},
    "n": {"type": int, "help": "length limit"},
    "order": {"type": int, "help": "series truncation order"},
    "endpoint": {"help": "endpoint as i,j"},
    "suite": {"help": "comma-separated suite names or 'all'"},
    "format": {"choices": ["json", "csv", "text"]},
    "key": {"help": "series key to expand"},
    "list": {"action": "store_true", "dest": "list_keys",
             "help": "list available keys"},
    "bfile": {"help": "path to a sequence file"},
}
_MODEL = ("lattice", "region", "start")
# subcommand -> (its handler, called as handler(cfg, args, out); its flags).
COMMANDS = {
    "count": (cmd_count, (*_MODEL, "n", "endpoint", "format")),
    "series": (cmd_series, (*_MODEL, "order", "endpoint", "format")),
    "verify": (cmd_verify, ("order", "suite", "format")),
    "param": (cmd_param, ("order", "format", "key", "list")),
    "oeis": (cmd_oeis, (*_MODEL, "n", "endpoint", "format", "bfile")),
    "asympt": (cmd_asympt, (*_MODEL, "n", "format")),
}
# The subcommands that print a table; the others reject --format csv.
CSV_COMMANDS = ("count", "series", "asympt")
# The flags whose value is a point 'i,j'.  argparse reads a value such as
# -1,0 after a space as a flag, so ``main`` joins the two with '='.
POINT_FLAGS = ("--start", "--endpoint")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conewalks",
        description="Exact lattice-walk enumeration and verification tool",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        command = sub.add_parser(name)
        for flag in flags:
            command.add_argument(f"--{flag}", **FLAGS[flag])
        command.add_argument("--config", help="JSON config file")
    return parser


def _join_points(argv) -> list:
    """argv with each point flag and a following value that begins with '-'
    and a digit, such as -1,0, joined as 'flag=value'."""
    joined = []
    for arg in argv:
        if (joined and joined[-1] in POINT_FLAGS and arg[:1] == "-"
                and arg[1:2].isdigit()):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def main(argv=None) -> int:
    args = build_parser().parse_args(
        _join_points(sys.argv[1:] if argv is None else argv))
    handler, _ = COMMANDS[args.command]
    try:
        cfg = load_config(args)
        if cfg["format"] == "csv" and args.command not in CSV_COMMANDS:
            raise UsageError(f"{args.command} has no csv output")
        code = handler(cfg, args, sys.stdout)
        sys.stdout.flush()
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader left: what is still buffered goes to devnull at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
