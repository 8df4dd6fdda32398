#!/usr/bin/env python3
"""Builds reqd and the benchmark driver, runs one workload, prints the result.

Usage (from the repository root):

    python3 perfbench/run.py --workload ingest|dashboard|durable \
        --seed N --seconds S --trace 0|1

The first run configures and builds into .bench_build/ (about a minute);
later runs only re-check the build. The driver's notes go to stdout and
its last line is one JSON object:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1); metrics the driver computes beyond those
are printed as "unlisted metric" lines before it. Exits non-zero,
without a result line, when the build or the run fails, and non-zero
after printing the result when a correctness gate failed.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds reqd and reqbench; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target", "reqd",
                  "reqbench"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build step failed: " + " ".join(step))
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in spec[key]]


def check_result(result, trace):
    """Problems with a result line (empty list when it is well formed)."""
    problems = []
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            problems.append("missing key " + key)
    if problems:
        return problems
    names = expected_metrics(trace)
    got = result["metrics"]
    for name in names:
        entry = got.get(name)
        if entry is None:
            problems.append("missing metric " + name)
        elif not isinstance(entry.get("value"), (int, float)) or \
                not math.isfinite(entry["value"]):
            problems.append("non-numeric metric " + name)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "dashboard", "durable"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        return 2
    work = os.path.join(BUILD, "work",
                        "%s-%d-%d" % (args.workload, args.seed, args.trace))
    cmd = [os.path.join(BUILD, "reqbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--reqd", os.path.join(BUILD, "reqd"),
           "--work-dir", work]
    # Own process group, so the daemons the driver spawns die with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 2
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.decode(errors="replace").splitlines()
    if not lines or not lines[-1].startswith("{"):
        print("\n".join(lines))
        log("perfbench: reqbench exited %d without a result" % proc.returncode)
        return 2
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        log("perfbench: unreadable result line: %s" % e)
        return 2
    # Metrics the driver computes but BENCHMARK.json does not list (wall
    # clock figures too noisy on the reference machine to carry a bound)
    # are printed by name and left out of the result.
    declared = set(expected_metrics(args.trace == 1))
    extra = {k: v for k, v in result.get("metrics", {}).items()
             if k not in declared}
    for name, m in extra.items():
        lines.insert(-1, "unlisted metric %s: %r %s" % (name, m["value"],
                                                       m["unit"]))
        del result["metrics"][name]
    problems = check_result(result, args.trace == 1)
    print("\n".join(lines[:-1]))
    if problems:
        log("perfbench: malformed result: " + "; ".join(problems))
        return 2
    print(json.dumps(result))
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        log("perfbench: correctness gate failed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
