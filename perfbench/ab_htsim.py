#!/usr/bin/env python3
"""Interleaved A/B of the storage_cc clean cells between two builds.

    python3 perfbench/ab_htsim.py --base BASE/atlahs --head HEAD/atlahs \
        [--pairs 10] [--ops 20000] [--seed 1]

Both binaries run the same `atlahs sweep` grid: the Fig. 11 Direct Drive
OLTP trace on the 8:1 oversubscribed storage fat tree under MPRDMA, NDP
and DCTCP, fault-free, on one thread. Pairs alternate which side runs
first. Each side's wall time is taken around the whole process. The
verdict follows the rule in README.md ("A/B rule"): a difference is
claimed only when one side wins at least nine tenths of the pairs and
the medians differ by more than the base's own quartile distance.
"""

import argparse
import json
import os
import statistics
import subprocess
import tempfile
import time


def run(binary, ops, seed, out):
    cmd = [
        binary, "sweep",
        "--topos", "storage-fattree:44:8",
        "--workloads", f"storage:{ops}:50:12",
        "--ccs", "mprdma,ndp,dctcp",
        "--backends", "htsim",
        "--threads", "1",
        "--seed", str(seed),
        "--quiet", "--out", out,
    ]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - t0
    with open(out) as f:
        cells = json.load(f)["results"]
    return wall, [(c["key"], c.get("makespan_ns")) for c in cells]


def quartiles(v):
    q1, med, q3 = statistics.quantiles(v, n=4)
    return statistics.median(v), q1, q3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--base", required=True)
    ap.add_argument("--head", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--ops", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    walls = {"base": [], "head": []}
    cells = {}
    with tempfile.TemporaryDirectory(dir=os.path.dirname(os.path.abspath(__file__))) as tmp:
        for i in range(args.pairs):
            order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
            for side in order:
                wall, result = run(getattr(args, side), args.ops, args.seed,
                                   os.path.join(tmp, f"{side}.json"))
                walls[side].append(wall)
                cells[side] = result
            print(f"pair {i + 1}: base {walls['base'][-1]:.3f} s, "
                  f"head {walls['head'][-1]:.3f} s", flush=True)

    b_med, b_q1, b_q3 = quartiles(walls["base"])
    h_med, h_q1, h_q3 = quartiles(walls["head"])
    head_slower = sum(h > b for b, h in zip(walls["base"], walls["head"]))
    head_faster = sum(h < b for b, h in zip(walls["base"], walls["head"]))
    base_iqr = b_q3 - b_q1
    ratio = h_med / b_med
    need = 0.9 * args.pairs
    if head_slower >= need and h_med - b_med > base_iqr:
        verdict = "regression confirmed"
    elif head_faster >= need and b_med - h_med > base_iqr:
        verdict = "head faster"
    else:
        verdict = "unresolved"
    print(f"\nbase: median {b_med:.3f} s, quartiles {b_q1:.3f}-{b_q3:.3f}")
    print(f"head: median {h_med:.3f} s, quartiles {h_q1:.3f}-{h_q3:.3f}")
    print(f"head/base median ratio {ratio:.3f}; head slower in {head_slower} "
          f"of {args.pairs} pairs, faster in {head_faster}")
    ratios = [h / b for b, h in zip(walls["base"], walls["head"])]
    r_med, r_q1, r_q3 = quartiles(ratios)
    print(f"paired head/base ratio: median {r_med:.3f}, quartiles {r_q1:.3f}-{r_q3:.3f}")
    print(f"simulated results identical: {cells['base'] == cells['head']}")
    print(f"verdict: {verdict}")


if __name__ == "__main__":
    main()
