"""Command-line front end.

Subcommands: count, series, verify, param, oeis, asympt.  Configuration
is layered: command-line flags override a JSON config file, which
overrides built-in defaults.  All big integers are emitted as decimal
strings in JSON so no consumer needs 64-bit-safe parsing.  Output
ordering is fixed, so identical configurations give identical bytes.

Exit codes: 0 success, 1 verification failure or data mismatch, 2 usage
error (including an --order too low for a catalog entry's denominator and
an asympt --n beyond the float64 range).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import bfile as bfile_mod
from . import closedforms, engine, identities
from .series import OrderError
from .walks import (
    DIAGONAL,
    SQUARE,
    Region,
    WalkModel,
    count_walks,
    endpoint_series,
    float_totals,
    total_count,
)

LATTICES = {"square": SQUARE, "diagonal": DIAGONAL}

REGIONS = {
    "quadrant": Region.QUADRANT,
    "three-quadrant": Region.THREE_QUADRANT,
    "wedge135": Region.WEDGE135,
    "half-plane": Region.HALF_PLANE,
    "full-plane": Region.FULL_PLANE,
}

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

SUITES = ("base", "params", "endpoints", "quartics", "xseries",
          "identities", "closed-forms")

# The growth-rate diagnostics: limit of total(n) * n^(1/3) / 4^n.
ASYMPT_CONSTANTS = {
    "square": 2**5 * math.sqrt(3) / (3**3 * math.gamma(2 / 3)),
    "diagonal": 2**3 * math.sqrt(3) / (3**2 * math.gamma(2 / 3)),
}

# Longest length whose 4.0**n stays inside the float64 range.
ASYMPT_MAX_N = 511


class UsageError(ValueError):
    pass


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
            with open(path) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
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
    try:
        return WalkModel(
            LATTICES[cfg["lattice"]], REGIONS[cfg["region"]], cfg["start"]
        )
    except ValueError as exc:
        raise UsageError(str(exc))


def _emit_rows(rows: list, header: list, fmt: str, out) -> None:
    """rows: list of dicts with keys from header, values already strings."""
    if fmt == "json":
        json.dump(rows, out, indent=2, sort_keys=True)
        out.write("\n")
    elif fmt == "csv":
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(str(row[k]) for k in header) + "\n")
    else:
        for row in rows:
            out.write("  ".join(f"{k}={row[k]}" for k in header) + "\n")


# -- count -----------------------------------------------------------------


def cmd_count(cfg: dict, out) -> int:
    model = build_model(cfg)
    limit = cfg["n"]
    endpoint = cfg["endpoint"]
    if endpoint is not None:
        rows = [
            {
                "n": n,
                "i": endpoint[0],
                "j": endpoint[1],
                "count": str(count_walks(model, n).get(*endpoint)),
            }
            for n in range(limit + 1)
        ]
        _emit_rows(rows, ["n", "i", "j", "count"], cfg["format"], out)
        return 0
    if cfg["format"] == "json":
        tables = [count_walks(model, n).to_json() for n in range(limit + 1)]
        json.dump(tables, out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        rows = []
        for n in range(limit + 1):
            table = count_walks(model, n)
            for (i, j) in sorted(table.counts):
                rows.append(
                    {"n": n, "i": i, "j": j, "count": str(table.counts[(i, j)])}
                )
        _emit_rows(rows, ["n", "i", "j", "count"], cfg["format"], out)
    return 0


# -- series ----------------------------------------------------------------


def cmd_series(cfg: dict, out) -> int:
    model = build_model(cfg)
    order = cfg["order"]
    endpoint = cfg["endpoint"]
    if endpoint is not None:
        series = endpoint_series(model, endpoint, order)
        values = [str(series.coeff(n).coeff(0)) for n in range(order)]
        if cfg["format"] == "json":
            json.dump(
                {"endpoint": list(endpoint), "order": order, "coeffs": values},
                out, indent=2, sort_keys=True,
            )
            out.write("\n")
        else:
            rows = [{"n": n, "count": v} for n, v in enumerate(values)]
            _emit_rows(rows, ["n", "count"], cfg["format"], out)
        return 0
    values = [str(total_count(model, n)) for n in range(order)]
    if cfg["format"] == "json":
        json.dump({"order": order, "totals": values}, out, indent=2,
                  sort_keys=True)
        out.write("\n")
    else:
        rows = [{"n": n, "total": v} for n, v in enumerate(values)]
        _emit_rows(rows, ["n", "total"], cfg["format"], out)
    return 0


# -- verify ----------------------------------------------------------------


def _closed_forms_reports(max_n: int) -> list:
    reports = []
    for key in sorted(closedforms.catalog()):
        entry = closedforms.catalog()[key]
        steps = LATTICES[entry.lattice]
        model = WalkModel(steps, REGIONS[entry.region], entry.start)
        first = None
        for n in range(max_n + 1):
            expected = entry.count(n)
            actual = count_walks(model, 2 * n).get(*entry.end)
            if expected != actual:
                first = [n, str(expected), str(actual)]
                break
        reports.append(
            {
                "id": key,
                "anchor": entry.anchor,
                "order_checked": max_n,
                "verdict": "pass" if first is None else "fail",
                "first_failure": first,
            }
        )
    return reports


def _at_order(build, key: str, order: int):
    """build(key, order), where a catalog denominator that is zero to this
    order is a usage error: the order is too low to divide by it."""
    try:
        return build(key, order)
    except OrderError as exc:
        raise UsageError(f"--order {order} is too low for {key} ({exc})")


def run_suite(suite: str, order: int) -> list:
    if suite == "base":
        return [engine.run_check(k, order) for k in engine.BASE_KEYS]
    if suite == "params":
        return [_at_order(engine.run_check, k, order)
                for k in engine.param_keys()]
    if suite == "endpoints":
        return [engine.run_check(k, order) for k in engine.z_rational_keys()]
    if suite == "quartics":
        return [engine.run_check(k, order) for k in engine.QUARTIC_KEYS]
    if suite == "xseries":
        return [engine.run_check(k, order) for k in engine.XSERIES_KEYS]
    if suite == "identities":
        return identities.run_all(order)
    if suite == "closed-forms":
        return _closed_forms_reports(order)
    raise UsageError(f"unknown suite {suite!r}")


def cmd_verify(cfg: dict, out) -> int:
    order = cfg["order"]
    if order < 1:
        raise UsageError("verify needs --order 1 or more")
    selection = cfg["suite"]
    if isinstance(selection, str):
        names = list(SUITES) if selection == "all" else selection.split(",")
    else:
        names = list(selection)
    reports = []
    for name in names:
        reports.extend(run_suite(name.strip(), order))
    failures = [r for r in reports if r["verdict"] != "pass"]
    if cfg["format"] == "json":
        json.dump(reports, out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        for r in reports:
            line = f"{r['verdict']:4s}  {r['id']}"
            if r["first_failure"] is not None:
                line += f"  first failure: {r['first_failure']}"
            out.write(line + "\n")
        out.write(f"{len(reports) - len(failures)}/{len(reports)} passed\n")
    return 1 if failures else 0


# -- param -----------------------------------------------------------------


def cmd_param(cfg: dict, out, key, list_keys: bool) -> int:
    if list_keys:
        keys = engine.all_check_keys()
        if cfg["format"] == "json":
            json.dump(keys, out, indent=2)
            out.write("\n")
        else:
            for k in keys:
                out.write(k + "\n")
        return 0
    if key is None:
        raise UsageError("param requires --key or --list")
    order = cfg["order"]
    builders = {
        "base-T": engine.series_T,
        "base-Z": engine.series_Z,
        "base-U": engine.series_U,
        "base-V": engine.series_V,
    }
    if key in builders:
        series = builders[key](order)
    elif key in engine.param_keys():
        series = _at_order(engine.param_series, key, order)
    elif key in engine.z_rational_keys():
        series = _at_order(engine.z_rational, key, order)
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
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        out.write(series.render() + "\n")
    return 0


# -- oeis ------------------------------------------------------------------


def cmd_oeis(cfg: dict, out, path) -> int:
    if path is None:
        raise UsageError("oeis requires --bfile <path>")
    try:
        data = bfile_mod.read_bfile(path)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    except bfile_mod.BFileError as exc:
        out.write(f"parse error in {path}: {exc}\n")
        return 1
    model = build_model(cfg)
    endpoint = cfg["endpoint"]
    if endpoint is not None:
        oracle = lambda n: count_walks(model, n).get(*endpoint)
    else:
        oracle = lambda n: total_count(model, n)
    report = bfile_mod.compare(data, oracle, max_n=cfg["n"])
    if cfg["format"] == "json":
        json.dump(report, out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        out.write(f"verdict: {report['verdict']}\n")
        for k in sorted(report):
            if k != "verdict":
                out.write(f"{k}: {report[k]}\n")
    return 0 if report["verdict"] == "agree" else 1


# -- asympt ----------------------------------------------------------------


def asympt_rows(model: WalkModel, lattice: str, limit: int) -> list:
    totals = float_totals(model, limit)
    target = ASYMPT_CONSTANTS.get(lattice)
    rows = []
    points = sorted({limit, *range(0, limit + 1, max(1, limit // 8))})
    for n in points:
        total = totals[n]
        ratio = total * n ** (1 / 3) / 4.0**n if n else float(total)
        rows.append(
            {
                "n": n,
                "total_float": f"{total:.6e}",
                "ratio": f"{ratio:.6f}",
                "target": "" if target is None else f"{target:.6f}",
            }
        )
    return rows


def cmd_asympt(cfg: dict, out) -> int:
    if cfg["n"] > ASYMPT_MAX_N:
        raise UsageError(f"asympt needs --n {ASYMPT_MAX_N} or less: 4^n "
                         "must stay inside the float64 range")
    rows = asympt_rows(build_model(cfg), cfg["lattice"], cfg["n"])
    if cfg["format"] != "json":
        out.write("non-exact diagnostic (float64 dynamic programming)\n")
    _emit_rows(rows, ["n", "total_float", "ratio", "target"], cfg["format"], out)
    return 0


# -- entry point -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conewalks",
        description="Exact lattice-walk enumeration and verification tool",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--lattice", choices=sorted(LATTICES))
        p.add_argument("--region", choices=sorted(REGIONS))
        p.add_argument("--start", help="start point as i,j")
        p.add_argument("--n", type=int, help="length limit")
        p.add_argument("--order", type=int, help="series truncation order")
        p.add_argument("--endpoint", help="endpoint as i,j")
        p.add_argument("--suite", help="comma-separated suite names or 'all'")
        p.add_argument("--format", choices=["json", "csv", "text"])
        p.add_argument("--config", help="JSON config file")

    for name in ("count", "series", "verify", "asympt"):
        common(sub.add_parser(name))
    p_param = sub.add_parser("param")
    common(p_param)
    p_param.add_argument("--key", help="series key to expand")
    p_param.add_argument("--list", action="store_true", dest="list_keys",
                         help="list available keys")
    p_oeis = sub.add_parser("oeis")
    common(p_oeis)
    p_oeis.add_argument("--bfile", help="path to a sequence file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        cfg = load_config(args)
        if args.command == "count":
            return cmd_count(cfg, out)
        if args.command == "series":
            return cmd_series(cfg, out)
        if args.command == "verify":
            return cmd_verify(cfg, out)
        if args.command == "param":
            return cmd_param(cfg, out, args.key, args.list_keys)
        if args.command == "oeis":
            return cmd_oeis(cfg, out, args.bfile)
        if args.command == "asympt":
            return cmd_asympt(cfg, out)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
