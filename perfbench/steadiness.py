#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

Runs one workload once per seed and prints, for each metric, the median,
the quartiles and the quartile spread as a share of the median, next to
the metric's bound in BENCHMARK.json. Run from the repository root:

    python3 perfbench/steadiness.py --workload sim --seeds 1-10

Each run uses BENCHMARK.json's command and run_seconds.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in seeds(args.seeds):
        out = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            check=True, capture_output=True, text=True).stdout
        lines = out.strip().splitlines()
        res = json.loads(lines[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: {res['failed']} of {res['attempted']} operations failed")
        line = " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items()))
        print(f"seed {seed}: {line}", flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])

    print(f"{'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for k, vs in sorted(values.items()):
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med
        print(f"{k:<14} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} {bounds.get(k, 0):6.2f}")


if __name__ == "__main__":
    main()
