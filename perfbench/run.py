#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload search_plus --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build goes to .bench_build/perfbench
and the run's scratch files (the WAL of mixed_rw, trace files) to
.bench_run/; both stay inside the checkout. Build output goes to stderr,
so the last line of stdout is the benchmark's JSON result. The exit code
is the benchmark binary's (non-zero when the build fails).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench"],
    ]
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(step))
            return False
    return True


def main():
    if not build():
        return 2
    binary = os.path.join(BUILD_DIR, "perfbench")
    run_dir = os.path.join(ROOT, ".bench_run")
    os.makedirs(run_dir, exist_ok=True)
    sys.stdout.flush()
    done = subprocess.run([binary, "--run_dir", run_dir] + sys.argv[1:], cwd=ROOT)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
