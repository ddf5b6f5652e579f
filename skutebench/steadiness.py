#!/usr/bin/env python3
"""Steadiness check for the skute benchmark: two interleaved sets of runs.

    python3 skutebench/steadiness.py [--runs 10] [--workloads cold_10k,...]
                                     [--traced 1]

Run from the repository root. For every workload it makes --runs runs in
each of two sets, alternating A and B, each run with its own seed. Per
end-to-end metric it prints each set's median and quartiles, the spread
(interquartile distance over the median, as statistics.quantiles(n=4)
gives the quartiles) next to the metric's bound from BENCHMARK.json, and
how far set B's median moved from set A's. With --traced N it also makes
N traced runs per workload and prints the tracing overhead: the traced
epoch_ms_p50 against the untraced median. Exit code 1 when a spread
(except setup_s) or a median shift exceeds its bound, or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return q1, median, q3, (q3 - q1) / abs(median)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--traced", type=int, default=0)
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        shares = set()
        for i in range(args.runs):
            for name, base in (("A", 1), ("B", 1001)):
                result = run_once(workload, base + i, args.seconds, 0)
                if not result["correct"]:
                    ok = False
                shares.add(result["failed"] / result["attempted"])
                sets[name].append(result["metrics"])
                print("%s %s seed %d done" % (workload, name, base + i),
                      file=sys.stderr)
        print("\n== %s: %d runs per set, failed share %s" %
              (workload, args.runs, sorted(shares)))
        if len(shares) != 1:
            ok = False
        print("%-16s %-6s %12s %12s %12s %8s %8s %8s" %
              ("metric", "set", "q1", "median", "q3", "spread", "bound",
               "shift"))
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = {}
            for set_name in ("A", "B", "all"):
                runs = (sets["A"] + sets["B"] if set_name == "all"
                        else sets[set_name])
                values = [m[name]["value"] for m in runs]
                q1, med, q3, sp = spread(values)
                medians[set_name] = med
                shift = ""
                if set_name == "B":
                    worse = (med - medians["A"]) / abs(medians["A"])
                    if metric["better"] == "higher":
                        worse = -worse
                    shift = "%+.3f" % worse
                    if worse > bound:
                        ok = False
                if sp > bound and name != "setup_s":
                    ok = False
                print("%-16s %-6s %12.5g %12.5g %12.5g %8.3f %8.2f %8s" %
                      (name, set_name, q1, med, q3, sp, bound, shift))
        if args.traced > 0:
            untraced = statistics.median(
                m["epoch_ms_p50"]["value"] for m in sets["A"] + sets["B"])
            traced = [run_once(workload, 1 + i, args.seconds, 1)["metrics"]
                      for i in range(args.traced)]
            t = statistics.median(m["trace.epoch_ms_p50"]["value"]
                                  for m in traced)
            est = statistics.median(m["trace.overhead_pct"]["value"]
                                    for m in traced)
            print("tracing overhead: epoch_ms_p50 %.4g traced vs %.4g "
                  "untraced (%+.1f%%); span-cost estimate %.2f%%" %
                  (t, untraced, (t / untraced - 1) * 100, est))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
