#!/usr/bin/env python3
"""Service benchmark of standoff_server.

    python3 perfbench/run.py --workload <point_read|scan_read|mixed_rw>
        --seed N --seconds S --trace <0|1> [--ladder R1,R2,... --p99-limit-ms X]

Run from the repository root. Configures and builds perfbench/ (which
builds the repository's library and standoff_server unchanged) in
Release under .bench_build/, then runs the load generator. Build output
goes to stderr; the last line of stdout is the result JSON object.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configures (once) and builds; returns the tool path or None."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        print("perfbench: no repository sources next to perfbench/",
              file=sys.stderr)
        return None
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(BUILD, "perfbench_tool")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ladder", default="")
    parser.add_argument("--p99-limit-ms", type=float, default=0)
    args = parser.parse_args()

    tool = build()
    if tool is None:
        return 1
    data = os.path.join(ROOT, ".bench_build", "perfbench-data")
    os.makedirs(data, exist_ok=True)
    cmd = [tool, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--data=" + data]
    if args.ladder:
        cmd += ["--ladder=" + args.ladder,
                "--p99-limit-ms=%g" % args.p99_limit_ms]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
