#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first run configures and builds the
toolkit libraries and the benchmark binary (perfbench/CMakeLists.txt, Release)
under $CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
rebuild what changed.  Build output goes to stderr, so the binary's stdout is
passed through untouched and its last line is the JSON result.  The traced
run writes its spans under <build dir>/trace.

Exit status is the binary's (0 all checks passed, 1 a check failed, 2 bad
usage), or 3 when the build fails or the binary times out.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target)


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    cmake_dir = os.path.join(build_dir(), "perfbench-cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "Makefile")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "perfbench", "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if result.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step), file=sys.stderr)
            return None
    return os.path.join(cmake_dir, "perfbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True, check=False)
    return result.stdout.strip() if result.returncode == 0 else "none"


def main(argv):
    binary = build()
    if binary is None:
        return 3
    trace_dir = os.path.join(build_dir(), "trace")
    os.makedirs(trace_dir, exist_ok=True)
    command = [binary] + argv + ["--trace-dir", trace_dir, "--git-sha", git_sha()]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: binary exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return result.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
