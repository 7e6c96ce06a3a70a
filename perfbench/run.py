#!/usr/bin/env python3
"""Builds and runs the perfbench end-to-end benchmark.

    python3 perfbench/run.py --workload plant_replay|fleet_restart
                             --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds perfbench/ (which
compiles the hod libraries from ../src) into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when that variable is unset, then runs one
workload. Build output goes to stderr; the benchmark's stdout is passed
through, so its last line is the result object. Scratch files (checkpoint
images, the span dump of a traced run) go to <build root>/perfbench-work.
Exits non-zero without a result when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    work_dir = os.path.join(build_root, "perfbench-work")
    if not build(build_dir):
        sys.stderr.write("perfbench: build failed\n")
        return 2
    os.makedirs(work_dir, exist_ok=True)
    sys.stdout.flush()
    return subprocess.call([
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--work-dir", work_dir,
    ])


if __name__ == "__main__":
    sys.exit(main())
