#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py [--seed 1]

Runs every workload twice for one second: once as is, which must pass
every check, and once with `--corrupt 1`, which plants one wrong result
(a flipped GOAL byte, a shifted makespan, a dropped job) chosen by the
seed. The corrupted run must count at least one failure and report
`correct: false`. Exits 1 if any check misses. Run it from the
repository root.
"""

import argparse
import json
import subprocess
import sys

WORKLOADS = ["trace_replay", "storage_cc", "whatif_grid", "cluster_online"]


def run(workload, seed, corrupt):
    cmd = json.load(open("BENCHMARK.json"))["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", "0", "--corrupt", "1" if corrupt else "0",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    ok = True
    for w in WORKLOADS:
        clean = run(w, args.seed, False)
        bad = run(w, args.seed, True)
        caught = not bad["correct"] and bad["failed"] >= 1
        passed = clean["correct"] and clean["failed"] == 0
        print(f"{w:<16} clean: {clean['failed']}/{clean['attempted']} failed; "
              f"corrupted: {bad['failed']}/{bad['attempted']} failed -> "
              f"{'ok' if caught and passed else 'MISSED'}")
        ok &= caught and passed
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
