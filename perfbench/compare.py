#!/usr/bin/env python3
"""Compare two sets of benchmark records, metric by metric.

Usage, from the repository root:

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Each directory holds record files as perfbench writes them under
.bench_build/results/ (copy them aside between commits). For every
workload and end-to-end metric it prints each side's median and
quartiles, the change of the medians and the bound from BENCHMARK.json. A median
worse by more than the bound is a regression. Where the base runs
spread wider than the bound, the pair is unresolved unless every head
run beats every base run.

It refuses to compare records whose machine shapes differ: a result is
comparable only with one taken on the same core count, Go version, CPU,
caches, connection count and daemon flags.
"""
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Fields of the shape that identify the code rather than the machine.
CODE_FIELDS = {"git_commit", "source_sha256"}


def load(directory):
    recs = []
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as f:
            recs.append(json.load(f))
    if not recs:
        sys.exit("compare: no -trace0 records in %s" % directory)
    return recs


def shape(rec):
    return {k: v for k, v in rec["shape"].items() if k not in CODE_FIELDS}


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, head = load(sys.argv[1]), load(sys.argv[2])
    ref = shape(base[0])
    for rec in base + head:
        if shape(rec) != ref:
            diff = {k: (ref.get(k), v) for k, v in shape(rec).items() if ref.get(k) != v}
            sys.exit("compare: refusing to compare records with different machine shapes: %s" % diff)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    regressed = False
    for w in spec["workloads"]:
        b = [r for r in base if r["workload"] == w["name"]]
        h = [r for r in head if r["workload"] == w["name"]]
        if not b or not h:
            continue
        print("%s (%d base runs, %d head runs)" % (w["name"], len(b), len(h)))
        for m in spec["end_to_end"]:
            bv = [r["result"]["metrics"][m["name"]]["value"] for r in b]
            hv = [r["result"]["metrics"][m["name"]]["value"] for r in h]
            bq, hq = spread(bv), spread(hv)
            sign = 1 if m["better"] == "lower" else -1
            change = (hq[1] - bq[1]) / bq[1] if bq[1] else float("inf")
            worse = sign * change
            wide = bq[1] and (bq[2] - bq[0]) / bq[1] > m["bound"]
            all_better = min(hv) > max(bv) if sign < 0 else max(hv) < min(bv)
            if wide:
                verdict = "better" if all_better else "unresolved (spread wider than the bound)"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
                regressed = True
            else:
                verdict = "ok"
            print("  %-15s base %12.4f [%.4f, %.4f]  head %12.4f [%.4f, %.4f]  change %+7.2f%%  bound %.0f%%  %s %s"
                  % (m["name"], bq[1], bq[0], bq[2], hq[1], hq[0], hq[2], 100 * change, 100 * m["bound"],
                     m["unit"], verdict))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
