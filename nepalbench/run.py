#!/usr/bin/env python3
"""Builds the Nepal benchmark from source and runs one workload.

Usage (from the repository root):

    python3 nepalbench/run.py --workload lookup --seed 1 --seconds 10 --trace 0
    python3 nepalbench/run.py --selftest

The benchmark is compiled into .bench_build/ (RelWithDebInfo) on first use and
rebuilt incrementally afterwards. The last line of standard output is the
result object {"correct", "attempted", "failed", "metrics"}; the line before
it stamps the configuration the numbers were measured at. Build output and
progress go to standard error.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
PACKAGE = "nepalbench"
BUILD_DIR = ".bench_build"
WORKLOADS = ("lookup", "deep")


def fail(message):
    print("nepalbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no Nepal sources under ./src; run from the repository root")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", PACKAGE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs]
    if subprocess.call(cmd, stdout=sys.stderr) != 0:
        fail("build of " + target + " failed")
    return os.path.join(BUILD_DIR, target)


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        binary = os.path.abspath(build("nepalbench_selftest"))
        sys.exit(subprocess.call([binary], cwd=BUILD_DIR))
    if args.workload is None or args.seed is None or args.seconds is None:
        fail("--workload, --seed and --seconds are required")

    binary = build("nepalbench")
    work_dir = os.path.join(BUILD_DIR, "run-%d" % os.getpid())
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--git-sha", git_sha()]
    if args.trace:
        # The traced run's spans, kept for inspection after the run.
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        code = subprocess.call(cmd)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
