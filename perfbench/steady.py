#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how steady each metric is.

    python3 perfbench/steady.py --workload whatif_mixed --runs 10 [--first-seed 1]
        [--trace 0] [--seconds N]

For each metric: the median of the runs, and the quartile spread (Q3 - Q1
over the median, statistics.quantiles n=4) next to the bound in
BENCHMARK.json.  A steady end-to-end metric has a spread under a third of
its bound.  Exits non-zero if any run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import benchlib

HERE = Path(__file__).resolve().parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        got = subprocess.run(cmd, capture_output=True, text=True)
        lines = got.stdout.strip().splitlines()
        if got.returncode != 0 or not lines:
            sys.stderr.write(got.stdout + got.stderr)
            print("seed %d failed (exit %d)" % (seed, got.returncode))
            return 1
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (n, m["value"]) for n, m in result["metrics"].items()
            if n in bounds)), flush=True)

    print("%-36s %14s %8s %8s" % ("metric", "median", "spread", "bound"))
    for name, xs in values.items():
        med = statistics.median(xs)
        spread = benchlib.spread(xs) if len(xs) >= 2 and med else float("nan")
        bound = bounds.get(name)
        print("%-36s %14.6g %8.3f %8s" % (name, med, spread,
                                          "" if bound is None else bound))
    return 0


if __name__ == "__main__":
    sys.exit(main())
