#!/usr/bin/env python3
"""Builds the punctsafe benchmark from source and runs it.

    python3 punctbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1> [--smoke]

Run from the repository root. The first run configures and builds the
library (../src) and the benchmark binary into .bench_build/ (optimized,
no tests); later runs only rebuild what changed. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result. Exits
non-zero, without a result, when the build fails (for instance when the
library sources are missing) or the benchmark fails its output checks.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "punctbench")
BINARY = os.path.join(BUILD, "punctbench")
# Workloads that `--workload all` runs.
ALL_WORKLOADS = 3


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("punctbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def run_timeout(argv):
    """Seconds after which a hung benchmark is stopped: each workload it
    runs gets twice its measuring time (the traced run adds replays)
    plus a minute for trace generation, warm-up and the last round."""
    ap = argparse.ArgumentParser(add_help=False)
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seconds", type=float, default=10)
    known, _ = ap.parse_known_args(argv)
    workloads = ALL_WORKLOADS if known.workload == "all" else 1
    return workloads * (2 * known.seconds + 60)


def main():
    if not build():
        return 1
    sys.stdout.flush()
    timeout = run_timeout(sys.argv[1:])
    try:
        done = subprocess.run([BINARY] + sys.argv[1:], timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.stderr.write("punctbench: run exceeded %.0f s\n" % timeout)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
