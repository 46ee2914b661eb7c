#!/usr/bin/env python3
"""End-to-end benchmark of the AJR engine.

Usage (from the repository root):

    python3 perfbench/run.py --workload <paper_mix|wide_mix|engine_dop2> \
        --seed <n> --seconds <s> --trace <0|1> [--variant <v>]
    python3 perfbench/run.py --selftest

Builds the engine and the benchmark binary from source into .bench_build/
(Release; the first build takes one to two minutes), then runs one workload. The
binary's last stdout line is the JSON result; build output goes to stderr.
Span files and a copy of each result land in perfbench/out/. --selftest
builds and runs the result checker's own test instead. See
perfbench/README.md for the workloads and metrics.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(HERE, "out")
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no engine sources next to perfbench/ "
                         "(src/CMakeLists.txt is missing); nothing to build\n")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target",
                   "ajr_perfbench", "perfbench_checker_test"]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def main():
    if not build():
        sys.stderr.write("perfbench: build failed\n")
        return 1
    if sys.argv[1:] == ["--selftest"]:
        test = os.path.join(BUILD, "perfbench_checker_test")
        return subprocess.run([test], cwd=ROOT).returncode
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "ajr_perfbench")] + sys.argv[1:] + ["--out", OUT]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
