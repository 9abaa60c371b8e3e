#!/usr/bin/env python3
"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the lines perfbench/run.py appends to
_perfbench/results.jsonl (one {"meta", "result"} object per run).
For every workload present in both, each end-to-end metric is printed
with its median and quartiles on both sides and the change against
the bound BENCHMARK.json fixes for it.  Results taken on machines
with different core counts (recommended_domain_count) are reported as
not comparable and are never compared.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    groups = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                meta = rec["meta"]
                if not meta["traced"]:
                    groups.setdefault(meta["workload"], []).append(rec)
    return groups


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base, new = load(sys.argv[1]), load(sys.argv[2])
    for wl in sorted(set(base) & set(new)):
        cores = ({r["meta"]["recommended_domain_count"] for r in base[wl]}
                 | {r["meta"]["recommended_domain_count"] for r in new[wl]})
        if len(cores) != 1:
            print("%s: not comparable (core counts %s)" % (wl, sorted(cores)))
            continue
        print("%s (%d vs %d runs, %d cores)"
              % (wl, len(base[wl]), len(new[wl]), cores.pop()))
        for name, m in spec.items():
            b = [r["result"]["metrics"][name]["value"] for r in base[wl]]
            n = [r["result"]["metrics"][name]["value"] for r in new[wl]]
            bq, nq = quartiles(b), quartiles(n)
            change = (nq[1] - bq[1]) / bq[1]
            worse = -change if m["better"] == "higher" else change
            spread = (bq[2] - bq[0]) / bq[1]
            if worse > m["bound"]:
                verdict = "WORSE beyond bound %.2f" % m["bound"]
            elif spread > m["bound"]:
                verdict = "unresolved (base spread %.3f)" % spread
            else:
                verdict = "within bound %.2f" % m["bound"]
            print("  %-20s %12.4g [%.4g, %.4g] -> %12.4g [%.4g, %.4g] %+7.2f%%  %s"
                  % (name, bq[1], bq[0], bq[2], nq[1], nq[0], nq[2],
                     100 * change, verdict))


if __name__ == "__main__":
    main()
