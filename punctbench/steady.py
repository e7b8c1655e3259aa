#!/usr/bin/env python3
"""Re-checks the benchmark's bounds against the spread of repeated runs.

    python3 punctbench/steady.py --runs 10 [--workloads a,b]

Runs the benchmark (run.py, untraced, BENCHMARK.json's run_seconds) in
two sets of `runs` runs per workload, each run on its own seed,
alternating the workload order from run to run and interleaving the
sets. `--workloads` defaults to BENCHMARK.json's workloads; name others
(server_fanout) to re-check them. For every workload and end-to-end
metric it prints per set the median, the first and third quartiles
(statistics.quantiles, n=4), the spread (Q3 - Q1) / median, that spread
as a share of the metric's bound, and for the second set the shift of
its median against the first's. A spread above a third of the bound is
flagged `wide`, one above the bound `OVER`, a shift worse than the
bound `SHIFT`. Exits non-zero when a run fails, a bound is exceeded or
the failed share differs between runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SETS = 2
SEED_BASE = 1000

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d)" % (workload, seed,
                                                           done.returncode))
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = bench["run_seconds"]

    results = {}  # (set, workload) -> list of result objects
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        sets = range(SETS) if r % 2 == 0 else reversed(range(SETS))
        for s in sets:
            for w in order:
                seed = SEED_BASE + 1000 * s + r
                res = run_once(w, seed, seconds)
                results.setdefault((s, w), []).append(res)
                print("set %d run %d %-15s seed %d correct=%s failed=%d/%d" %
                      (s, r, w, seed, res["correct"], res["failed"],
                       res["attempted"]), flush=True)

    ok = True
    print()
    print("%-15s %-24s %3s %13s %13s %13s %7s %6s %7s" %
          ("workload", "metric", "set", "median", "q1", "q3", "spread",
           "/bound", "shift"))
    for w in workloads:
        for name, bound in bounds.items():
            medians = []
            for s in range(SETS):
                runs = results[(s, w)]
                if not all(x["correct"] for x in runs):
                    ok = False
                values = [x["metrics"][name]["value"] for x in runs]
                med, q1, q3, spr = spread(values)
                medians.append(med)
                flag = ""
                if spr > bound:
                    flag, ok = "OVER", False
                elif spr > bound / 3:
                    flag = "wide"
                shift = ""
                if s == 1:
                    better = next(m["better"] for m in bench["end_to_end"]
                                  if m["name"] == name)
                    worse = (medians[1] - medians[0]) / medians[0] if medians[0] else 0
                    if better == "higher":
                        worse = -worse
                    shift = "%+.3f" % worse
                    if worse > bound:
                        flag, ok = (flag + " SHIFT").strip(), False
                print("%-15s %-24s %3d %13.6g %13.6g %13.6g %7.3f %6.2f %7s %s" %
                      (w, name, s, med, q1, q3, spr, spr / bound, shift, flag))
        share = {x["failed"] / x["attempted"]
                 for s in range(SETS) for x in results[(s, w)]}
        if len(share) != 1:
            ok = False
        print("%-15s failed share: %s" % (w, sorted(share)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
