#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload storage_cc --seeds 1-10 [--trace 1]

For every metric it prints the median over the runs and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median: the number the benchmark's bounds are checked
against. Each run is a fresh process, as the benchmark is meant to be
run. Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload, seed, seconds, trace):
    cmd = json.load(open("BENCHMARK.json"))["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int,
                    default=json.load(open("BENCHMARK.json"))["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    values = {}
    for seed in parse_seeds(args.seeds):
        res = run(args.workload, seed, args.seconds, args.trace)
        if not res["correct"] or res["failed"]:
            print(f"seed {seed}: {res['failed']} of {res['attempted']} failed",
                  file=sys.stderr)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)

    print(f"\n{'metric':<28}{'median':>14}{'q1':>14}{'q3':>14}{'iqr/med':>10}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:<28}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{share:>10.4f}")


if __name__ == "__main__":
    main()
