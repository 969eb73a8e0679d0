#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
median and run-to-run spread: the distance between the first and third
quartile of its values (statistics.quantiles, n=4) as a share of their
median, next to the bound BENCHMARK.json fixes for it.

Run from the repository root:

    python3 auditbench/spread.py --workloads mnist-full --seeds 1 2 3 4 5

Each run is `cargo run --release` on this package, so the first one builds.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    cmd = ["cargo", "run", "--release", "--quiet", "--offline",
           "--manifest-path", "auditbench/Cargo.toml", "--",
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: output checks failed: {result}")
    return result["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        values = {}
        for seed in args.seeds:
            metrics = run(workload, seed, bench["run_seconds"], 0)
            for name, metric in metrics.items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{k}={m['value']:.4g}" for k, m in metrics.items()),
                  flush=True)
        for metric in bench["end_to_end"]:
            xs = values[metric["name"]]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            print(f"  {workload:18} {metric['name']:14} median {statistics.median(xs):.5g}"
                  f"  spread {(q3 - q1) / med:.4f}  bound {metric['bound']}", flush=True)


if __name__ == "__main__":
    main()
