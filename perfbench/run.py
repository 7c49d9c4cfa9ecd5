#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see BENCHMARK.json).

One run, from the root of the repository:

    python3 perfbench/run.py --workload acmpub-10k --seed 51 \
        --seconds 30 --trace 0

builds the `power` library and the driver (perfbench/driver.cc) in
.bench_build/perfbench, runs the workload, and passes the driver's output
through; its last line is the JSON result. The exit code is the driver's
(non-zero when an output check failed or the build failed).

Steadiness report:

    python3 perfbench/run.py --steadiness --runs 10 [--workload NAME ...]

runs each workload once per seed (--seed, --seed + 1, ...) and prints, for
every metric, the median, the quartiles and the quartile spread as a share of
the median, against the metric's bound in BENCHMARK.json. End-to-end metrics
whose spread exceeds their bound are flagged and make the exit code 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run_once(args):
    if not build():
        return 1
    trace_dir = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [
        BINARY,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--trace-out",
        os.path.join(trace_dir, "%s-seed%d.json" % (args.workload, args.seed)),
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def quartile_report(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / med if med else (0.0 if q3 == q1 else float("inf"))
    return med, q1, q3, spread


def steadiness(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload_list or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    flagged = []
    for workload in workloads:
        samples = {}
        walls = []
        for k in range(args.runs):
            seed = args.seed + k
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            start = time.monotonic()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            walls.append(time.monotonic() - start)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d: run failed (exit %d)" %
                      (workload, seed, proc.returncode))
                flagged.append((workload, "run failed"))
                continue
            result = json.loads(lines[-1])
            for name, metric in result["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
        print("\n%s: %d runs, wall per run median %.1f s (max %.1f s)" %
              (workload, len(walls), statistics.median(walls), max(walls)))
        print("%-32s %14s %14s %14s %8s %7s  %s" %
              ("metric", "median", "q1", "q3", "spread", "bound", "flag"))
        for name, values in samples.items():
            med, q1, q3, spread = quartile_report(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound:
                flag = "OVER BOUND"
                flagged.append((workload, name))
            elif bound is not None and spread > bound / 3:
                flag = "over bound/3"
            print("%-32s %14.6g %14.6g %14.6g %8.4f %7s  %s" %
                  (name, med, q1, q3, spread,
                   "-" if bound is None else "%.3f" % bound, flag))
    if flagged:
        print("\nflagged: " + ", ".join("%s/%s" % f for f in flagged))
        return 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", dest="workload_list")
    parser.add_argument("--seed", type=int, default=51)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    if args.steadiness:
        return steadiness(args)
    if not args.workload_list or len(args.workload_list) != 1:
        parser.error("exactly one --workload is required")
    args.workload = args.workload_list[0]
    if args.seconds is None:
        args.seconds = 30
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
