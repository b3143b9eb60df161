#!/usr/bin/env python3
"""Benchmark of the conewalks command-line tool.

Run from the root of a checkout; it needs nothing but ``src/`` and this
directory:

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads (the commands each repetition runs, one fresh interpreter per
command, one command at a time):

  verify-all    verify --suite all --order 16
                The product itself: 112 checks, every layer gets a share.
  oracle-sweep  series --order 62, then oeis --bfile <b-file> --n 50, on a
                three-quadrant model whose lattice and start the seed picks.
                All work is the walk DP; no series or solver code runs.
  param-solve   param --key base-T --order 60, then param --key base-U
                --order 32.  All work is the implicit solver and series
                arithmetic on scalar (T) and x-polynomial (U) coefficients;
                no walk DP runs.  The seed does not change these inputs.

With ``--trace 0`` the run times repetitions of the workload for about
``--seconds`` seconds (at least three), each command in a fresh
interpreter so that no ``lru_cache`` is warm.  Each repetition runs the
yardstick (``yardstick.py``, a fixed pure-Python computation in a fresh
interpreter) four times, shared out before its commands and each followed
by a set-up sample, and the run ends with one more yardstick run.  It reports the end-to-end metrics: the wall time and
CPU time of the repetitions divided by those of the yardstick runs, the
median peak RSS of a repetition's commands, and the median set-up time
of a fresh interpreter that imports the CLI and loads both data
catalogs.  The plain times of a repetition and of the yardstick are
printed as well.
CPU time and peak RSS come from ``os.wait4`` for each child, never from
``RUSAGE_CHILDREN``.

With ``--trace 1`` it runs the workload once untraced and twice under
``tracer.py`` (each command in its own process) and reports per-layer
metrics.  The traced outputs must equal the untraced ones, the exact
counts must repeat exactly, and the metrics the workload is designed to
leave untouched must read zero.

Every output is checked against ``reference.py`` or the recorded list of
check ids; a nonzero exit, a traceback or a wrong output is a failed
operation.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACER = HERE / "tracer.py"
YARDSTICK = HERE / "yardstick.py"

MIN_REPS = 3
YARDSTICKS_PER_REP = 4  # yardstick runs, shared out before its commands
SETUP_PER_YARDSTICK = 1  # set-up samples after each yardstick run
TRACED_REPS = 2
RUN_BUDGET_S = 170  # a run must end within 180 s

SETUP_CODE = (
    "import conewalks.cli\n"
    "from conewalks import closedforms, engine\n"
    "print(len(engine.param_keys()), len(closedforms.catalog()))\n"
)

END_TO_END = {
    "run_rel": "ratio",
    "cpu_rel": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Printed with the end-to-end metrics but not reported: plain times swing
# with the load of a shared machine, which the ratios above cancel.
PLAIN_TIMES = {
    "run_s": "s",
    "cpu_s": "s",
    "yardstick_s": "s",
}

# Per-layer metrics and their units.  Counts are exact and must repeat.
PER_LAYER = {
    "walks.sweeps": "count",
    "walks.layers": "count",
    "walks.useful_ratio": "ratio",
    "walks.s": "s",
    "engine.solve.calls": "count",
    "engine.solve.residual_evals": "count",
    "engine.solve.s": "s",
    "engine.kernel_root_Y.s": "s",
    "series.mul.calls": "count",
    "series.mul.s": "s",
    "series.divide.s": "s",
    "series.compose.s": "s",
    "series.sqrt.s": "s",
    "laurent.mul.calls": "count",
    "laurent.mul.term_products": "count",
    "laurent.s": "s",
    "gaussian.ops": "count",
    "gaussian.s": "s",
    "decompose.extract.calls": "count",
    "decompose.extract.s": "s",
    "closedforms.count.calls": "count",
    "closedforms.s": "s",
    "identities.s": "s",
    "bfile.s": "s",
    "cli.checks": "count",
    "cli.verdict_s.p50": "s",
    "cli.verdict_s.p90": "s",
    "cli.s": "s",
    "trace.overhead_s": "s",
}

# Layers whose mechanism a workload bypasses: every metric of theirs must
# read zero there, so a change to that layer shows as no change.
PREDICTED_ZERO = {
    "oracle-sweep": ("engine.", "series.", "laurent.", "gaussian.",
                     "decompose.", "closedforms."),
    "param-solve": ("walks.", "gaussian.", "decompose.", "closedforms."),
}


class Workload:
    """Commands of one repetition and a check of each command's output."""

    def __init__(self, name, commands, checks):
        self.name = name
        self.commands = commands
        self.checks = checks  # check(stdouts) -> error message or None
        self._verified = {}

    def errors(self, children) -> list:
        """One error message (or None) per command of a repetition."""
        stdouts = tuple(c.stdout for c in children)
        out = []
        for i, (child, check) in enumerate(zip(children, self.checks)):
            if child.exit != 0:
                out.append(f"exit code {child.exit}")
            elif "Traceback" in child.stderr:
                out.append("traceback on stderr")
            else:
                key = (i, stdouts)
                if key not in self._verified:
                    try:
                        self._verified[key] = check(stdouts)
                    except (ValueError, KeyError, TypeError, IndexError) as exc:
                        self._verified[key] = f"unreadable output: {exc!r}"
                out.append(self._verified[key])
        return out


def verify_all(seed: int) -> Workload:
    expected = set(json.loads((HERE / "verify_ids.json").read_text()))

    def check(stdouts):
        reports = json.loads(stdouts[0])
        ids = [r["id"] for r in reports]
        if len(ids) != len(set(ids)) or set(ids) != expected:
            return "check ids differ from the recorded set"
        failing = [r["id"] for r in reports if r["verdict"] != "pass"]
        return f"checks not passing: {failing}" if failing else None

    command = ["verify", "--suite", "all", "--order", "16", "--format", "json"]
    return Workload("verify-all", [command], [check])


def oracle_sweep(seed: int) -> Workload:
    rng = random.Random(seed)
    lattice = rng.choice(("square", "diagonal"))
    start = rng.choice(((0, 0), (-1, 0), (-2, 0)))
    order, oeis_n = 62, 50
    totals = reference.three_quadrant_totals(lattice, start, order - 1)
    bfile = WORK / f"{lattice}_{start[0]}_{start[1]}.txt"
    bfile.write_text("".join(f"{n} {totals[n]}\n" for n in range(oeis_n + 1)))
    model = [f"--lattice={lattice}", f"--start={start[0]},{start[1]}"]

    def check_series(stdouts):
        if json.loads(stdouts[0])["totals"] != [str(v) for v in totals]:
            return "series totals differ from the reference DP"
        return None

    def check_oeis(stdouts):
        report = json.loads(stdouts[1])
        if report["verdict"] != "agree" or report["entries_checked"] != oeis_n + 1:
            return f"oeis report {report}"
        return None

    return Workload("oracle-sweep", [
        ["series", "--order", str(order), *model, "--format", "json"],
        ["oeis", "--bfile", str(bfile.relative_to(ROOT)), "--n", str(oeis_n),
         *model, "--format", "json"],
    ], [check_series, check_oeis])


def param_solve(seed: int) -> Workload:
    def coeffs(stdout, key, order):
        payload = json.loads(stdout)
        if payload["key"] != key or len(payload["coeffs"]) != order:
            raise ValueError(f"expected {key} to order {order}")
        series = reference.parse_coeffs(payload["coeffs"])
        if series[0] != {0: 1}:
            raise ValueError(f"{key} has constant term {series[0]}")
        return series

    def check_T(stdouts):
        T = coeffs(stdouts[0], "base-T", 60)
        if any(e != 0 for row in T for e in row):
            return "T has non-scalar coefficients"
        if not reference.is_zero(reference.t_residual(T)):
            return "T does not solve its defining equation"
        return None

    def check_U(stdouts):
        T = coeffs(stdouts[0], "base-T", 60)
        U = coeffs(stdouts[1], "base-U", 32)
        if not reference.is_zero(reference.u_residual(U, T)):
            return "U does not solve its defining equation"
        return None

    return Workload("param-solve", [
        ["param", "--key", "base-T", "--order", "60", "--format", "json"],
        ["param", "--key", "base-U", "--order", "32", "--format", "json"],
    ], [check_T, check_U])


WORKLOADS = {
    "verify-all": verify_all,
    "oracle-sweep": oracle_sweep,
    "param-solve": param_solve,
}


# -- child processes ---------------------------------------------------------


@dataclass
class Child:
    """One finished child process."""

    wall: float     # seconds from start to reaping
    cpu: float      # user + system seconds
    rss_mb: float   # peak resident set size
    exit: int
    stdout: str
    stderr: str


class Runner:
    """Starts children one at a time, within the run's time budget."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0
        self.problems = []  # failed assertions about the trace

    def child(self, argv) -> Child:
        self.attempted += 1
        with tempfile.TemporaryFile(dir=WORK) as out, \
                tempfile.TemporaryFile(dir=WORK) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out,
                                    stderr=err, stdin=subprocess.DEVNULL)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Child(wall, usage.ru_utime + usage.ru_stime,
                         usage.ru_maxrss / 1024, proc.returncode,
                         out.read().decode(), err.read().decode())

    def cli(self, command) -> Child:
        return self.child([sys.executable, "-m", "conewalks.cli", *command])

    def traced(self, command) -> Child:
        return self.child([sys.executable, str(TRACER), *command])

    def left(self) -> float:
        return self.deadline - time.monotonic()

    def record(self, errors, label) -> None:
        """Count the failed operations among ``errors`` (None = passed)."""
        for error in errors:
            if error is not None:
                self.failed += 1
                print(f"FAILED {label}: {error}", file=sys.stderr)

    def problem(self, message) -> None:
        self.problems.append(message)
        print(f"FAILED trace check: {message}", file=sys.stderr)


# -- measurement -------------------------------------------------------------


def setup_wall(runner) -> float:
    child = runner.child([sys.executable, "-c", SETUP_CODE])
    sizes = child.stdout.split()
    ok = child.exit == 0 and len(sizes) == 2 and all(
        n.isdigit() and int(n) > 0 for n in sizes)
    runner.record([None if ok else "set-up failed"], "setup")
    return child.wall


def yardstick(runner, yards) -> None:
    child = runner.child([sys.executable, str(YARDSTICK)])
    ok = child.exit == 0 and child.stdout.strip() and (
        not yards or child.stdout == yards[0].stdout)
    runner.record([None if ok else "yardstick failed"], "yardstick")
    yards.append(child)


def end_to_end(runner, workload, seconds) -> dict:
    """Repetitions for about ``seconds`` seconds, at least MIN_REPS.

    Yardstick runs and set-up samples are interleaved with the
    repetitions, so that all three see the same machine load.  The
    repetitions' total time divided by the yardstick runs' total time is
    the workload's time in yardstick units: on the shared machine the
    benchmark was written on, every process ran up to half again as slow
    for minutes at a time, and the ratio cancels that."""
    setups, yards, reps = [], [], []
    t0 = time.monotonic()
    while True:
        rep = []
        for command in workload.commands:
            for _ in range(YARDSTICKS_PER_REP // len(workload.commands)):
                yardstick(runner, yards)
                setups.extend(setup_wall(runner) for _ in range(SETUP_PER_YARDSTICK))
            rep.append(runner.cli(command))
        runner.record(workload.errors(rep), workload.name)
        reps.append(rep)
        typical = (time.monotonic() - t0) / len(reps)
        if runner.left() < 2 * typical + 5:
            break
        if len(reps) >= MIN_REPS and time.monotonic() - t0 + typical > seconds:
            break
    yardstick(runner, yards)
    rep_wall = statistics.mean(sum(c.wall for c in r) for r in reps)
    rep_cpu = statistics.mean(sum(c.cpu for c in r) for r in reps)
    yard_wall = statistics.mean(y.wall for y in yards)
    yard_cpu = statistics.mean(y.cpu for y in yards)
    return {
        "run_rel": rep_wall / yard_wall,
        "cpu_rel": rep_cpu / yard_cpu,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(max(c.rss_mb for c in r) for r in reps),
        "run_s": statistics.median(sum(c.wall for c in r) for r in reps),
        "cpu_s": statistics.median(sum(c.cpu for c in r) for r in reps),
        "yardstick_s": statistics.median(y.wall for y in yards),
    }


def _quantile(values, q):
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))] if values else 0.0


def layer_metrics(trace) -> dict:
    counts, self_s, verdicts = trace["counts"], trace["self_s"], trace["verdict_s"]

    def count(key):
        return counts.get(key, 0)

    def self_time(layer, kind=None):
        if kind:
            return self_s.get(f"{layer}.{kind}", 0.0)
        return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

    layers = count("walks.layers")
    return {
        "walks.sweeps": count("walks.sweeps"),
        "walks.layers": layers,
        "walks.useful_ratio": count("walks.layers_needed") / layers if layers else 0.0,
        "walks.s": self_time("walks"),
        "engine.solve.calls": count("engine.solve.calls"),
        "engine.solve.residual_evals": count("engine.solve.residual_evals"),
        "engine.solve.s": self_time("engine", "solve"),
        "engine.kernel_root_Y.s": self_time("engine", "kernel_root_Y"),
        "series.mul.calls": count("series.mul.calls"),
        "series.mul.s": self_time("series", "mul"),
        "series.divide.s": self_time("series", "divide"),
        "series.compose.s": self_time("series", "compose"),
        "series.sqrt.s": self_time("series", "sqrt"),
        "laurent.mul.calls": count("laurent.mul.calls"),
        "laurent.mul.term_products": count("laurent.mul.term_products"),
        "laurent.s": self_time("laurent"),
        "gaussian.ops": sum(v for k, v in counts.items()
                            if k.startswith("gaussian.") and k.endswith(".calls")),
        "gaussian.s": self_time("gaussian"),
        "decompose.extract.calls": count("decompose.extract.calls"),
        "decompose.extract.s": self_time("decompose", "extract"),
        "closedforms.count.calls": count("closedforms.count.calls"),
        "closedforms.s": self_time("closedforms"),
        "identities.s": self_time("identities"),
        "bfile.s": self_time("bfile"),
        "cli.checks": len(verdicts),
        "cli.verdict_s.p50": _quantile(verdicts, 0.5),
        "cli.verdict_s.p90": _quantile(verdicts, 0.9),
        "cli.s": self_time("cli"),
    }


def merge_traces(traces) -> dict:
    """One repetition's trace: the sum over its commands."""
    merged = {"counts": {}, "self_s": {}, "verdict_s": []}
    for trace in traces:
        for part in ("counts", "self_s"):
            for key, value in trace[part].items():
                merged[part][key] = merged[part].get(key, 0) + value
        merged["verdict_s"].extend(trace["verdict_s"])
    return merged


def per_layer(runner, workload) -> dict:
    untraced = [runner.cli(c) for c in workload.commands]
    errors = workload.errors(untraced)
    runner.record(errors, workload.name)
    rep_metrics, rep_walls = [], []
    for _ in range(TRACED_REPS):
        traces, wall = [], 0.0
        for command, plain in zip(workload.commands, untraced):
            child = runner.traced(command)
            wall += child.wall
            try:
                trace = json.loads(child.stdout.splitlines()[-1])
            except (ValueError, IndexError):
                runner.record([f"tracer exit {child.exit}: {child.stderr[-500:]}"],
                              "trace")
                continue
            same = (trace["exit"], trace["stdout"]) == (plain.exit, plain.stdout)
            runner.record([None if same else "traced output differs from untraced"],
                          "trace")
            traces.append(trace)
        rep_metrics.append(layer_metrics(merge_traces(traces)))
        rep_walls.append(wall)
    first = rep_metrics[0]
    for key in first:
        values = {m[key] for m in rep_metrics}
        if PER_LAYER[key] != "s" and len(values) > 1:
            runner.problem(f"{key} varies between traced runs: {values}")
        if key.startswith(PREDICTED_ZERO.get(workload.name, ())) and first[key]:
            runner.problem(f"{key} is {first[key]}, predicted zero")
    reports = sum(len(json.loads(p.stdout)) for c, p, e in
                  zip(workload.commands, untraced, errors)
                  if c[0] == "verify" and e is None)
    if first["cli.checks"] != reports:
        runner.problem(f"cli.checks is {first['cli.checks']}, verify printed "
                       f"{reports} reports")
    metrics = {key: statistics.median(m[key] for m in rep_metrics)
               if PER_LAYER[key] == "s" else first[key] for key in first}
    metrics["trace.overhead_s"] = statistics.median(rep_walls) - sum(
        c.wall for c in untraced)
    return metrics


# -- entry point -------------------------------------------------------------


def context() -> dict:
    """Python version, processor count and CPU model of this machine."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu}


def run_workload(name, seed, seconds, trace, runner) -> dict:
    workload = WORKLOADS[name](seed)
    # Compile the bytecode once, so that no timed child pays for it.
    warm = runner.child([sys.executable, "-c", "import conewalks.cli"])
    runner.record([None if warm.exit == 0 else "import failed"], "warm-up")
    if trace:
        values, units = per_layer(runner, workload), PER_LAYER
    else:
        values, units = end_to_end(runner, workload, seconds), END_TO_END
    print(f"{name} (seed {seed}): " + "  ".join(" ".join(c) for c in workload.commands))
    for key, value in values.items():
        print(f"  {key:28s} {value:14.6g} {units.get(key) or PLAIN_TIMES[key]}")
    return {key: {"value": values[key], "unit": unit} for key, unit in units.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "conewalks" / "cli.py").is_file():
        print(f"error: no conewalks sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    print(", ".join(f"{k} {v}" for k, v in context().items()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, runners = {}, []
    for name in names:
        runner = Runner(time.monotonic() + RUN_BUDGET_S)
        result = run_workload(name, args.seed, args.seconds, args.trace, runner)
        print(f"  {'fail_share':28s} {runner.failed / runner.attempted:14.6g} "
              f"({runner.failed} of {runner.attempted} operations)")
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in result.items()})
        runners.append(runner)
    failed = sum(r.failed for r in runners)
    print(json.dumps({
        "correct": failed == 0 and not any(r.problems for r in runners),
        "attempted": sum(r.attempted for r in runners),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
