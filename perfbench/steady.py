#!/usr/bin/env python3
"""Steadiness check for the perfbench benchmark.

Runs every workload once per seed, in one or more batches, and prints for
each end-to-end metric its median, first and third quartile (Python's
statistics.quantiles(values, n=4)) and the quartile spread as a share of
the median, next to the metric's bound from BENCHMARK.json. With two
batches it also prints how far the second median moved from the first.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 10]
                                [--first-seed 1] [--batches 2]

Every run uses BENCHMARK.json's run_seconds and --trace 0, the runs whose
metrics have bounds. Run from the repository root; uses perfbench/run.py,
so the first call builds. Exits non-zero if a run fails, if the spread of
a metric other than setup_s exceeds a third of its bound, or (with two
batches) if any median, setup_s's too, moves by more than its bound.
setup_s's spread is printed but not gated, as in the acceptance rule the
benchmark is held to; its median shift is.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise RuntimeError("%s seed %d failed (exit %d)"
                           % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--batches", type=int, default=1)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        medians = []
        for batch in range(args.batches):
            runs = []
            for i in range(args.seeds):
                seed = args.first_seed + i
                result = run_once(workload, seed, bench["run_seconds"])
                if not result["correct"] or result["failed"]:
                    ok = False
                    print("%s seed %d: incorrect or failed operations"
                          % (workload, seed))
                runs.append(result["metrics"])
            print("\n%s, batch %d, %d seeds from %d:"
                  % (workload, batch + 1, args.seeds, args.first_seed))
            print("  %-28s %14s %14s %14s %8s %7s" %
                  ("metric", "q1", "median", "q3", "spread", "bound"))
            batch_medians = {}
            for name in runs[0]:
                values = [r[name]["value"] for r in runs]
                q1, q2, q3, spread = summarize(values)
                batch_medians[name] = q2
                bound = bounds.get(name)
                flag = ""
                if bound is not None and spread > bound / 3:
                    flag = "  <-- above bound/3"
                    if name != "setup_s":
                        ok = False
                print("  %-28s %14.6g %14.6g %14.6g %8.3f %7s%s" %
                      (name, q1, q2, q3, spread,
                       "" if bound is None else "%.2f" % bound, flag))
                print("      runs: " + " ".join("%.4g" % v for v in values))
            medians.append(batch_medians)
        if len(medians) >= 2:
            print("  median shift, batch 2 vs batch 1:")
            for name, first in medians[0].items():
                second = medians[1][name]
                shift = (second - first) / first if first else 0.0
                bound = bounds.get(name)
                flag = ""
                if bound is not None and abs(shift) > bound:
                    flag = "  <-- beyond bound"
                    ok = False
                print("  %-28s %+8.3f%s" % (name, shift, flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
