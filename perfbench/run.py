#!/usr/bin/env python3
"""Builds and runs the served-GenAlg benchmark.

    python3 perfbench/run.py --workload lookup|similarity|refresh \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
benchmark (and the GenAlg library from ../src) in Release mode under
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild only what
changed. Build output goes to stderr; the last line of stdout is the
benchmark's JSON report. Exits non-zero, printing no report, when the
build or the run fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no GenAlg sources at src/ next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)


def main():
    os.chdir(ROOT)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.abspath(target)
    build_dir = os.path.join(target, "perfbench")
    out_dir = os.path.join(target, "perfbench-out")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as error:
        sys.exit("perfbench: build failed: %s" % error)
    os.makedirs(out_dir, exist_ok=True)
    command = [os.path.join(build_dir, "perfbench")] + sys.argv[1:] + [
        "--out-dir", out_dir]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(result.stdout.decode())
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
