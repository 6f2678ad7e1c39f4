#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Builds the benchmark once, then runs it several times per workload with
seeds 1..N at the run length `BENCHMARK.json` fixes, and prints for every metric the median, the first
and third quartiles and the spread (Q3 - Q1) / median, beside the bound
`BENCHMARK.json` fixes for it. Quartiles are those of
`statistics.quantiles(values, n=4)`.

Run from the repository root:

    python3 e2ebench/steadiness.py                  # seeds 1..10, every workload
    python3 e2ebench/steadiness.py --runs 5 --workloads online-churn
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", nargs="+", choices=names, default=names)
    p.add_argument("--verbose", action="store_true", help="print every run's value")
    opts = p.parse_args()

    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", "e2ebench/Cargo.toml"]
    subprocess.run(build, check=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in opts.workloads:
        values, failed = {}, []
        for seed in range(1, opts.runs + 1):
            result = run_once(bench["command"], workload, seed, bench["run_seconds"])
            failed.append(f"{result['failed']}/{result['attempted']}")
            if not result["correct"]:
                print(f"{workload} seed {seed}: result not correct", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{workload}: {opts.runs} runs, failed/attempted {' '.join(failed)}")
        print(f"  {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds[name]
            worst = max(worst, spread / bound)
            mark = "  over a third of the bound" if spread > bound / 3 else ""
            print(f"  {name:<28} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {bound:>6}{mark}")
            if opts.verbose:
                print("    " + " ".join(f"{x:.5g}" for x in v))
    print(f"\nlargest spread / bound: {worst:.3f}")


if __name__ == "__main__":
    main()
