#!/usr/bin/env python3
"""Builds dpz_bench from this checkout and runs one workload.

usage: python3 dpz_bench/run.py --workload <name> --seed <n>
                                --seconds <s> --trace <0|1>

Every run configures and builds the DPZ library, dpz_bench and its smoke
test under .bench_build/ at the repository root (RelWithDebInfo, 4 jobs);
after the first run this only confirms the build is current (under a
second).
Build output goes to stderr. dpz_bench's output passes through unchanged:
one line per metric, then the JSON result as the last line. The exit code
is dpz_bench's; a failed build exits non-zero without a result.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def build():
    cmake_dir = os.path.join(BUILD, "cmake")
    subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   check=True, stdout=sys.stderr)
    # bench_smoke is built too, so its ctest can run after any benchmark run.
    subprocess.run(["cmake", "--build", cmake_dir, "--target", "dpz_bench",
                    "bench_smoke", "-j", "4"], check=True, stdout=sys.stderr)
    return os.path.join(cmake_dir, "dpz_bench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    command = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}",
               f"--workdir={os.path.join(BUILD, 'work')}"]
    if args.trace:
        command.append(f"--trace={os.path.join(BUILD, 'trace')}")
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
