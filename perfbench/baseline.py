#!/usr/bin/env python3
"""Measure one set of baseline runs and add it to perfbench/baseline.json.

Runs ``run.py`` on every workload of ``BENCHMARK.json`` with seeds
1..10 (``--trace 0``, ``run_seconds`` each) and once with ``--trace 1``.
It appends the set (its end time, and for every end-to-end metric the
values, median, quartiles and spread, i.e. the distance between the
quartiles as a share of the median; and the wall time of each run, the
traced one last) to the sets already recorded, and replaces the machine
context, each workload's commands and reason, and the traced per-layer
numbers.  For each metric it prints how far the new median
lies from the previous set's, next to the metric's bound.

    python3 perfbench/baseline.py
"""

from __future__ import annotations

import datetime
import json
import statistics
import subprocess
import sys
import time

import run

BENCHMARK = run.ROOT / "BENCHMARK.json"
OUT = run.HERE / "baseline.json"
SEEDS = range(1, 11)


def run_once(workload, seed, seconds, trace) -> dict:
    """The run's result line, with the run's wall time added as ``wall_s``."""
    argv = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True,
                          check=True)
    return {**json.loads(proc.stdout.splitlines()[-1]),
            "wall_s": time.perf_counter() - t0}


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    bench = json.loads(BENCHMARK.read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    previous = json.loads(OUT.read_text()) if OUT.exists() else {}
    sets = previous.get("sets", [])
    run.WORK.mkdir(exist_ok=True)
    workloads, new_set = {}, {}
    for entry in bench["workloads"]:
        name = entry["name"]
        results = [run_once(name, seed, seconds, 0) for seed in SEEDS]
        traced = run_once(name, 1, seconds, 1)
        metrics = {key: spread([r["metrics"][key]["value"] for r in results])
                   for key in results[0]["metrics"]}
        last = sets[-1]["workloads"].get(name, {}) if sets else {}
        for key, stats in metrics.items():
            before = last.get("end_to_end", {}).get(key, {}).get("median")
            change = f"{stats['median'] / before - 1:+.4f}" if before else "    -  "
            print(f"{name:13s} {key:12s} median {stats['median']:9.4f}  "
                  f"spread {stats['spread']:.4f}  vs last set {change}  "
                  f"bound {bounds[key]}")
        workloads[name] = {
            "why": entry["why"],
            "commands": {seed: [" ".join(c) for c in run.WORKLOADS[name](seed).commands]
                         for seed in SEEDS},
            "per_layer_seed_1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        new_set[name] = {
            "correct": all(r["correct"] for r in results + [traced]),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "run_wall_s": [r["wall_s"] for r in results + [traced]],
            "end_to_end": metrics,
        }
    finished = datetime.datetime.now(datetime.timezone.utc)
    sets.append({"finished": finished.isoformat(timespec="seconds"),
                 "workloads": new_set})
    OUT.write_text(json.dumps({
        "context": {
            **run.context(),
            "run_seconds": seconds,
            "seeds": list(SEEDS),
            "seed_argument": "--seed n: oracle-sweep draws its lattice and "
                             "start from it; the other workloads ignore it",
        },
        "workloads": workloads,
        "sets": sets,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
