#!/usr/bin/env python3
"""Build the benchmark from this checkout and run one workload.

    python3 lcmbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 lcmbench/run.py --self-test

Builds lcmbench/CMakeLists.txt (the repo's own CMake tree, unmodified, plus
the benchmark binaries) into .bench_build/, then runs `lcmbench` (--trace 0,
end-to-end metrics) or `lcmbench_traced` (--trace 1, per-layer metrics).
The last line of standard output is the result document.  Exits non-zero,
without a result, when the checkout holds no program to build.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("batch-large", "serve-fresh", "serve-edit", "serve-validated")
TARGETS = ("lcmbench", "lcmbench_traced", "lcm_serve")


def fail(message, code=1):
    print("lcmbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "w") as log:
        try:
            return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            return -1


def build():
    for needed in ("CMakeLists.txt",
                   os.path.join("src", "driver", "Pipeline.h"),
                   os.path.join("tools", "lcm_serve.cpp")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no program to build: %s is missing" % needed, 2)
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        code = run_logged(["cmake", "-S", HERE, "-B", BUILD],
                          os.path.join(BUILD, "configure.log"), 300)
        if code != 0:
            fail("configure failed; see .bench_build/configure.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    code = run_logged(["cmake", "--build", BUILD, "-j", jobs, "--target"] +
                      list(TARGETS), os.path.join(BUILD, "build.log"), 840)
    if code != 0:
        fail("build failed; see .bench_build/build.log")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="show that each output check rejects a corrupted "
                         "output")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    build()
    binary = os.path.join(BUILD, "lcmbench_traced" if args.trace else
                          "lcmbench")
    if args.self_test:
        code = subprocess.run([binary, "--self-test"], timeout=170).returncode
        sys.exit(code)

    rel_build = os.path.relpath(BUILD, ROOT)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--serve-bin", os.path.join(BUILD, "lcm", "tools", "lcm_serve"),
           "--run-dir", rel_build,
           "--untraced-bin", os.path.join(rel_build, "lcmbench")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=175)
    except subprocess.TimeoutExpired:
        fail("workload did not finish in time")
    out = proc.stdout.decode()
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0 or not out.strip().splitlines()[-1:]:
        fail("workload exited with %d" % proc.returncode)


if __name__ == "__main__":
    main()
