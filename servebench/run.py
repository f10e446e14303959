#!/usr/bin/env python3
"""Build and run the MelServer serving benchmark.

Usage (from the repository root):

    python3 servebench/run.py --workload mixed_4k --seed 1 --seconds 30 --trace 0

Builds servebench/ (and the library sources under src/ it links) with
CMake into the directory named by CARGO_TARGET_DIR (default
.bench_build), then runs one workload. Build output goes to stderr; the
benchmark's report goes to stdout, and its last line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import shlex
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configures (once) and incrementally builds the benchmark binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("servebench: library sources (src/) not found next to "
              "servebench/; run from a full checkout", file=sys.stderr)
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "servebench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            print("servebench: build step failed: " + shlex.join(step),
                  file=sys.stderr)
            return None
    return os.path.join(build_dir, "servebench")


def workload_why(name):
    """The workload's recorded rationale from BENCHMARK.json, if present."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
            for workload in json.load(spec)["workloads"]:
                if workload["name"] == name:
                    return workload["why"]
    except (OSError, ValueError, KeyError):
        pass
    return "(no rationale recorded)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "servebench")
    binary = build(build_dir)
    if binary is None:
        return 2

    print("command: " + shlex.join(["python3"] + sys.argv))
    print("workload %s: %s" % (args.workload, workload_why(args.workload)),
          flush=True)
    return subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
