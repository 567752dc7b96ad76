#!/usr/bin/env python3
"""Steadiness check: two sets of runs, taken apart in time, must agree.

    python3 lcmbench/steady.py [--out FILE]

Runs every workload ten times with distinct seeds (set A: seeds 1..10),
then every workload again (set B: seeds 101..110), so the two sets are a
whole set's duration apart.  For each end-to-end metric it prints each
set's quartiles, its spread (interquartile range over median) and the drift
of B's median from A's in the metric's worse direction, and whether both
spreads and the drift stay within the metric's bound in BENCHMARK.json.
The share of failed operations must be the same in both sets.  Exits 1 if
anything disagrees.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         timeout=900).stdout.decode()
    lines = out.strip().splitlines()
    if not lines:
        sys.exit("no result from %s seed %d" % (workload, seed))
    return json.loads(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fmt(q):
    return " / ".join("%.4g" % v if abs(v) < 1e4 else "%.0f" % v for v in q)


def report(spec, workloads, results):
    """Prints the comparison of sets A and B; True if they agree."""
    ok = True
    print("%-15s %-16s %-24s %-24s %6s %6s %6s %5s  %s" %
          ("workload", "metric", "A: q1 / median / q3",
           "B: q1 / median / q3", "sprd A", "sprd B", "drift", "bound",
           "verdict"))
    for w in workloads:
        sets = results[w]
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            qa = quartiles([r["metrics"][name]["value"] for r in sets["A"]])
            qb = quartiles([r["metrics"][name]["value"] for r in sets["B"]])
            (a1, a2, a3), (b1, b2, b3) = qa, qb
            sa = (a3 - a1) / a2 if a2 else 0
            sb = (b3 - b1) / b2 if b2 else 0
            worse = (b2 - a2) if m["better"] == "lower" else (a2 - b2)
            drift = worse / a2 if a2 else 0
            good = drift <= bound and sa <= bound and sb <= bound
            ok &= good
            print("%-15s %-16s %-24s %-24s %6.3f %6.3f %6.3f %5.2f  %s" %
                  (w, name, fmt(qa), fmt(qb), sa, sb, drift, bound,
                   "ok" if good else "OUT OF BOUND"))
        share = {k: (sum(r["failed"] for r in v) /
                     sum(r["attempted"] for r in v))
                 for k, v in sets.items()}
        correct = all(r["correct"] for v in sets.values() for r in v)
        same = share["A"] == share["B"]
        ok &= same and correct
        print("%-15s failed share A %.6f B %.6f, all correct: %s  %s" %
              (w, share["A"], share["B"], correct,
               "ok" if same and correct else "DIFFERS"))
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="",
                    help="also write every run's result here (JSON)")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]

    results = {}
    for label, base in (("A", 1), ("B", 101)):
        for w in workloads:
            for i in range(RUNS):
                r = run_once(spec, w, base + i)
                results.setdefault(w, {}).setdefault(label, []).append(r)
                print("%s %-16s seed %3d correct=%s failed=%d/%d" %
                      (label, w, base + i, r["correct"], r["failed"],
                       r["attempted"]), file=sys.stderr, flush=True)

    ok = report(spec, workloads, results)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
