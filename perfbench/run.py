#!/usr/bin/env python3
"""Builds the SlimStore benchmark from source and runs one workload.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload sdb-backup --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/ in the checkout (CMake, Release); the
benchmark keeps its object stores in memory and writes no other file.
The last line of standard output is the result object printed by the
benchmark binary; build logs go to standard error.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("sdb-backup", "sdb-restore", "rdata-lifecycle", "cluster-mixed")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no SlimStore sources at %s/src" % ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    cmake_dir = os.path.join(BUILD_DIR, "cmake")
    jobs = str(min(4, os.cpu_count() or 1))
    # One build at a time per checkout.
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", cmake_dir, "--target", "slimbench",
                      "-j", jobs])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                sys.exit("run.py: build step failed: %s" % " ".join(cmd))
    return os.path.join(cmake_dir, "slimbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cmd = [build(), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        sys.exit("run.py: benchmark exited with %d" % done.returncode)
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
