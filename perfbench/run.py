#!/usr/bin/env python3
"""Runs the repo benchmark.

    python3 perfbench/run.py --workload scan|reduce|parallel --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout. It builds the benchmark binary and the
spvfuzz libraries from source with CMake into .bench_build/ (the first run
compiles everything), then runs the binary, which prints its report and, as
the last line of standard output, one JSON object with the keys correct,
attempted, failed and metrics. Build output goes to standard error. A failed
build or a bad argument exits non-zero without printing a result.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["scan", "reduce", "parallel"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    # For the benchmark's own tests: an alternative digest file and the
    # tiny input scale.
    parser.add_argument("--expected", help=argparse.SUPPRESS)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    return args


def build():
    """Configures (once) and builds the binary; True on success."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr)
    return result.returncode == 0


def main(argv):
    args = parse_args(argv)
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", args.scale,
               "--work-dir", os.path.join(ROOT, ".bench_work")]
    if args.expected:
        command += ["--expected", os.path.abspath(args.expected)]
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=args.seconds + 150).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
