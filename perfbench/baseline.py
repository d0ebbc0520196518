#!/usr/bin/env python3
"""Measure the baseline that ``baseline.json`` records.

    python3 perfbench/baseline.py

For every workload it makes two sets of untraced runs, one run per seed
1..10 in each, back to back, and then one traced run on seed 1. Every run
is its own process through ``run.py`` and measures BENCHMARK.json's
``run_seconds``. For each end-to-end metric it records, with its unit,
direction and bound, the median and quartiles of all twenty runs, each
set's median and spread (quartile distance over median), and how much
worse the second set's median is than the first's. It also records the
traced layer shares, the exact counts and the environment. It exits
non-zero if any run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
SETS = 2


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}")
    return result


def spread(values) -> float:
    """Quartile distance over median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def environment() -> dict:
    env = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
           "blas_threads": BLAS_THREADS}
    probe = ("import json, numpy; c = numpy.show_config(mode='dicts'); "
             "b = c['Build Dependencies']['blas']; "
             "print(json.dumps([numpy.__version__, b['name'], b['version']]))")
    numpy_version, blas, blas_version = json.loads(
        subprocess.run([sys.executable, "-c", probe], stdout=subprocess.PIPE, text=True,
                       check=True).stdout)
    env.update(numpy=numpy_version, blas=f"{blas} {blas_version}")
    return env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    out = {"seeds": list(SEEDS), "sets": SETS, "seconds": seconds,
           "environment": environment(), "workloads": {}}
    for w in bench["workloads"]:
        name = w["name"]
        values = {m["name"]: [[] for _ in range(SETS)] for m in bench["end_to_end"]}
        for s in range(SETS):
            for seed in SEEDS:
                metrics = run(name, seed, seconds, 0)["metrics"]
                for key in values:
                    values[key][s].append(metrics[key]["value"])
                print(name, f"set {s + 1} seed {seed}",
                      {k: round(v[s][-1], 4) for k, v in values.items()}, flush=True)
        row = {}
        for m in bench["end_to_end"]:
            sets = values[m["name"]]
            q1, med, q3 = statistics.quantiles(sum(sets, []), n=4)
            medians = [statistics.median(v) for v in sets]
            change = medians[1] / medians[0] - 1
            row[m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "unit": m["unit"], "better": m["better"],
                "bound": m["bound"], "set_medians": medians,
                "set_spreads": [spread(v) for v in sets],
                "second_set_worse_by": change if m["better"] == "lower" else -change,
                "values": sets}
            print(name, m["name"], {k: row[m["name"]][k] for k in
                                    ("set_medians", "set_spreads", "second_set_worse_by")})
        run(name, 1, seconds, 1)
        summary = json.loads((ROOT / ".perfbench" / f"summary-{name}-seed1.json").read_text())
        out["workloads"][name] = {"end_to_end": row, "exact_counts": summary["exact_counts"],
                                  "layer_shares": summary["shares"], "role": summary["role"]}
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
