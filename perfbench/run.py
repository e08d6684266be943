#!/usr/bin/env python3
"""Builds the benchmark program from the source tree and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR (default `.bench_build`) inside the
checkout, as does the on-disk trace cache and, for traced runs, the span
log. Build output goes to stderr, so the last line of stdout is the
program's JSON result. Exits non-zero, printing no result, when the build
or any output check fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=log, stderr=log)
        if r.returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    r = subprocess.run(["cmake", "--build", build_dir, "--target",
                        "clic_perfbench", "-j", jobs], stdout=log, stderr=log)
    return r.returncode == 0


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(build_dir, "clic_perfbench")
    # Relative to the checkout root (the working directory), so printed
    # paths do not depend on where the checkout lives.
    rel = os.path.relpath(build_dir)
    cmd = [exe, "--cache-dir", os.path.join(rel, "trace_cache"),
           "--span-dir", os.path.join(rel, "spans")] + sys.argv[1:]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
