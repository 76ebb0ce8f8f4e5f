"""Run one workload over several seeds and report each metric's median and spread.

Spread is (Q3 - Q1) / median with quartiles from ``statistics.quantiles(n=4)``,
the figure each end-to-end metric's ``bound`` in BENCHMARK.json is compared
against.  Run from the repository root::

    python3 perfbench/spread.py --workload validators --runs 10
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from measure import quartile_spread

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    seconds = args.seconds or benchmark["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = [
            sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ]
        output = subprocess.run(command, capture_output=True, text=True, check=True).stdout
        result = json.loads(output.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
    for name, series in values.items():
        spread = quartile_spread(series)
        flag = "ok" if spread < bounds[name] / 3 else ("within bound" if spread <= bounds[name] else "TOO NOISY")
        print(
            f"{args.workload:14s} {name:12s} median={statistics.median(series):.5g} "
            f"spread={spread:.4f} bound={bounds[name]} {flag}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
