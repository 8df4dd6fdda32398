#!/usr/bin/env python3
"""Runs the benchmark repeatedly and reports each metric's spread.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--workloads ingest,dashboard,durable]
        [--runs 10] [--first-seed 1] [--trace 0] [--out summary.json]

Each run uses the next seed. For every end-to-end metric it prints the
median, the quartiles (statistics.quantiles(values, n=4)), the spread
(Q3 - Q1) / median, and the bound from BENCHMARK.json; a spread above a
third of the bound is flagged "WIDE" (setup_s is exempt: only its median
is compared between runs). Metrics run.py prints as "unlisted" are
reported too, without a bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("run failed (%d): %s" % (done.returncode,
                                                    done.stderr[-2000:]))
    result = json.loads(lines[-1])
    # Also collect the metrics run.py prints without a bound.
    for line in lines[:-1]:
        if line.startswith("unlisted metric "):
            name, rest = line[len("unlisted metric "):].split(": ", 1)
            value, unit = rest.split(" ", 1)
            result["metrics"][name] = {"value": float(value), "unit": unit}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="ingest,dashboard")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            if not result["correct"] or result["failed"]:
                raise RuntimeError("%s seed %d failed a gate" % (workload, seed))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d done" % (workload, seed), file=sys.stderr,
                  flush=True)
        print("\n%s: %d runs" % (workload, args.runs))
        print("%-28s %14s %14s %14s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        summary[workload] = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "WIDE"
            print("%-28s %14.6g %14.6g %14.6g %8.3f %6s %s" %
                  (name, med, q1, q3, spread,
                   "" if bound is None else bound, flag))
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": spread, "values": vals}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=2)


if __name__ == "__main__":
    main()
