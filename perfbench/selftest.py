#!/usr/bin/env python3
"""Self-tests of the benchmark that need the daemon.

Usage, from the repository root:

    python3 perfbench/selftest.py [--seed N]

Runs the benchmark's Go unit tests (request bytes repeat for a seed and
change with it, names follow the name rule, BENCHMARK.json matches the
code, stage accounting adds up), then makes two traced runs with the
same seed on each workload that has exact counts and fails unless every
such count is identical in both. Exits non-zero on any failure.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

import run as bench


def traced(workload, seed):
    proc = subprocess.run([sys.executable, os.path.join(bench.HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "30", "--trace", "1"],
                          cwd=bench.ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        sys.exit("selftest: traced %s run failed:\n%s" % (workload, proc.stdout.decode(errors="replace")[-4000:]))
    path = os.path.join(bench.BUILD, "results", "%s-seed%d-trace1.json" % (workload, seed))
    with open(path) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    env = bench.go_env()
    if subprocess.run(["go", "test", "-count=1", "."], cwd=bench.HERE, env=env).returncode != 0:
        return 1
    if bench.build(env) is None:
        return 1
    failed = False
    for workload in ("rpc-large-binary", "jobs-extsort"):
        first, second = traced(workload, args.seed), traced(workload, args.seed)
        for name in first["extra"]["exact_counts"]:
            a = first["result"]["metrics"][name]["value"]
            b = second["result"]["metrics"][name]["value"]
            ok = a == b and a > 0
            failed |= not ok
            print("%-16s %-26s %14.1f %14.1f %s" % (workload, name, a, b, "same" if ok else "DIFFERENT"))
    print("exact counts: %s" % ("FAILED" if failed else "identical across two runs with the same seed"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
