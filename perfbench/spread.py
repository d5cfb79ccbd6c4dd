"""Run-to-run spread of the end-to-end metrics, judged against BENCHMARK.json.

    python3 perfbench/spread.py --workload solve-single --runs 10 [--first-seed 1]

Runs the benchmark once per seed (first-seed, first-seed+1, ...) and
prints, per end-to-end metric, the median and the quartile distance
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound.  A spread under a third of its bound is steady.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items()),
              flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    for metric in spec["end_to_end"]:
        data = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(data, n=4)
        spread = (q3 - q1) / median
        flag = "steady" if spread < metric["bound"] / 3 else "WIDE"
        print(f"{metric['name']:14s} median {median:12.6g} {metric['unit']:4s} "
              f"spread {spread:7.2%} bound {metric['bound']:.0%} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
