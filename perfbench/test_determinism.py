#!/usr/bin/env python3
"""Checks that the benchmark's deterministic counts repeat exactly.

Runs each single-client workload twice with one seed and once with
another, with --seconds 0 so each run makes the workload's fixed
minimum of passes, and compares the `counts {...}` line the
benchmark prints before its result: OSS request counts and bytes, the
stored-bytes ratio and the dollar figure must be identical for the same
seed, and the generated inputs must differ for a different seed.

Usage (from the root of a source checkout):

    python3 perfbench/test_determinism.py [WORKLOAD ...]
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SINGLE_CLIENT = ("sdb-backup", "sdb-restore", "rdata-lifecycle")


def counts(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = [l for l in out.splitlines() if l.startswith("counts ")]
    if len(lines) != 1:
        raise AssertionError("%s: expected one counts line" % workload)
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise AssertionError("%s: outputs incorrect" % workload)
    return json.loads(lines[0][len("counts "):])


def main():
    failures = 0
    for workload in sys.argv[1:] or SINGLE_CLIENT:
        first, second, other = counts(workload, 3), counts(workload, 3), \
            counts(workload, 4)
        if first != second:
            failures += 1
            print("FAIL %s: counts differ for the same seed\n  %s\n  %s"
                  % (workload, first, second))
        elif first["input_digest"] == other["input_digest"]:
            failures += 1
            print("FAIL %s: a different seed generated the same inputs"
                  % workload)
        else:
            print("ok   %s: %d OSS requests, %s picodollars, repeated exactly"
                  % (workload, sum(c for c, _ in first["oss"].values()),
                     first["picodollars"]))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
