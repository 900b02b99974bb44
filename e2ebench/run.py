#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Usage (from the repository root):

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: tpch_conf, ingest_refresh, server_sessions (see e2ebench/README.md).
The engine and the benchmark are built in Release mode with CMake into the
directory named by $CARGO_TARGET_DIR (default: .bench_build); an existing
build is reused incrementally. The last line of standard output is the
run's JSON result. Build logs go to standard error. Temporary database
and socket files live under .e2ebench_tmp/ and are removed after the run.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("tpch_conf", "ingest_refresh", "server_sessions")
RUN_TIMEOUT_S = 170


def build(root, build_dir, targets):
    """Configures (once) and builds `targets`; returns the build directory."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "e2ebench"), "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4", "--target", *targets],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir


def source_tree_present(root):
    return (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(root, "src", "engine", "database.h")))


def build_dir_for(root):
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return build_dir if os.path.isabs(build_dir) else os.path.join(root, build_dir)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not source_tree_present(root):
        print("e2ebench: no MayBMS source tree (CMakeLists.txt, src/) beside "
              "the benchmark directory", file=sys.stderr)
        return 2
    try:
        build_dir = build(root, build_dir_for(root), ["e2ebench"])
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 2

    # Relative to the repository root (the run's working directory), which
    # keeps the server's AF_UNIX socket path short.
    tmp_dir = os.path.join(".e2ebench_tmp", f"{args.workload}-{os.getpid()}")
    command = [os.path.join(build_dir, "e2ebench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--tmp-dir", tmp_dir]
    try:
        proc = subprocess.run(command, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(os.path.join(root, tmp_dir), ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, ".e2ebench_tmp"))
        except OSError:
            pass  # still in use by a concurrent run
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
