#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

Usage (from the repository root):

    python3 e2ebench/test_bench.py

1. The check self-test (e2ebench_selftest): every output check accepts a
   correct answer and rejects a planted wrong one (perturbed probability,
   dropped row, file truncated after saving).
2. Every workload run.py offers (BENCHMARK.json's, and ingest_refresh),
   untraced and traced with the same seed: both runs are
   correct, fail no operation, pass exactly the same checks, and print
   exactly the metrics BENCHMARK.json lists for their mode.
3. Without the source tree beside it, the benchmark exits non-zero and
   prints no result.
Exit status 0 iff all pass.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as bench_run  # noqa: E402

failures = []


def expect(what, holds, detail=""):
    print(f"{what:72} {'ok' if holds else 'FAILED'}", flush=True)
    if not holds:
        failures.append(what)
        if detail:
            print(f"    {detail}")


def run_workload(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    checks = next((l for l in lines if l.startswith("checks:")), None)
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return result, checks, proc.stderr


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    build_dir = bench_run.build(ROOT, bench_run.build_dir_for(ROOT),
                                ["e2ebench", "e2ebench_selftest"])

    selftest = subprocess.run(
        [os.path.join(build_dir, "e2ebench_selftest"), ".e2ebench_tmp/selftest"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    print(selftest.stdout, end="")
    expect("check self-test: planted wrong answers are rejected",
           selftest.returncode == 0)

    names = {0: sorted(m["name"] for m in bench["end_to_end"]),
             1: sorted(m["name"] for m in bench["per_layer"])}
    # Every workload run.py knows, also one BENCHMARK.json does not list.
    for workload in bench_run.WORKLOADS:
        runs = {}
        for trace in (0, 1):
            result, checks, stderr = run_workload(workload, trace)
            runs[trace] = checks
            label = f"{workload} trace={trace}"
            expect(f"{label}: finishes with a result", result is not None, stderr[-2000:])
            if result is None:
                continue
            expect(f"{label}: correct, no failed operation",
                   result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{checks}\n{stderr[-2000:]}")
            expect(f"{label}: prints exactly the listed metrics",
                   sorted(result["metrics"]) == names[trace])
        expect(f"{workload}: traced run passes exactly the untraced run's checks",
               runs[0] is not None and runs[0] == runs[1], f"{runs[0]}\n{runs[1]}")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "e2ebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "e2ebench/run.py", "--workload", "tpch_conf", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=180)
        expect("without the source tree: non-zero exit, no result",
               proc.returncode != 0 and "{" not in proc.stdout)

    print("all benchmark tests pass" if not failures else f"{len(failures)} FAILED")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
