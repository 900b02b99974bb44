#!/usr/bin/env python3
"""Steadiness command: runs every workload repeatedly and prints, for each
metric, the median, the quartiles and the spread (Q3 - Q1) / median.

Usage (from the repository root):

    python3 e2ebench/steady.py [--runs 10] [--first-seed 1] [--trace-runs 3]
                               [--workloads a,b] [--seconds S]

Each iteration runs every workload once with its own seed; the order of
the workloads alternates between iterations (forward, then reversed), so
a slow drift of the machine does not land on one workload. Quartiles are
Python's statistics.quantiles(values, n=4). The spread of every
end-to-end metric except setup_s is compared with a third of its bound in
BENCHMARK.json ("ok" / "WIDE"). With --trace-runs, that many traced runs
per workload follow, and the tracing overhead 1 - trace.stmt_per_s /
stmt_per_s (medians) is printed. Exit status 1 if any run is incorrect,
fails an operation, or does not finish.
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
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {w: [] for w in workloads}
    bad = False
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            r = run_once(w, args.first_seed + i, args.seconds, 0)
            if r is None or not r["correct"] or r["failed"]:
                print(f"{w} seed {args.first_seed + i}: BAD RUN {r}", flush=True)
                bad = True
                continue
            results[w].append(r)
            print(f"{w} seed {args.first_seed + i}: attempted {r['attempted']}",
                  flush=True)

    for w in workloads:
        runs = results[w]
        if len(runs) < 2:
            continue
        print(f"\n== {w} ({len(runs)} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1})")
        print(f"{'metric':24} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}  bound/3")
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3, sp = spread(vals)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                verdict = f"{bound / 3:.3f} {'ok' if sp <= bound / 3 else 'WIDE'}"
            print(f"{name:24} {med:14.6g} {q1:14.6g} {q3:14.6g} {sp:8.3f}  {verdict}")

        if args.trace_runs:
            traced = [run_once(w, args.first_seed + j, args.seconds, 1)
                      for j in range(args.trace_runs)]
            if any(t is None or not t["correct"] or t["failed"] for t in traced):
                print(f"{w}: BAD TRACED RUN")
                bad = True
                continue
            untraced = statistics.median(r["metrics"]["stmt_per_s"]["value"] for r in runs)
            traced_rate = statistics.median(
                t["metrics"]["trace.stmt_per_s"]["value"] for t in traced)
            print(f"tracing overhead: {1 - traced_rate / untraced:+.3f} "
                  f"(stmt_per_s {untraced:.6g} untraced, {traced_rate:.6g} traced)")
            for name in traced[0]["metrics"]:
                vals = [t["metrics"][name]["value"] for t in traced]
                print(f"  {name:34} {statistics.median(vals):14.6g} "
                      f"{traced[0]['metrics'][name]['unit']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
