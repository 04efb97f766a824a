#!/usr/bin/env python3
"""Build the search benchmark from the checkout it sits in, then run it.

Usage (from the repository root):

    python3 gevobench/run.py --workload adept-pool --seed 1 --seconds 20 --trace 0
    python3 gevobench/run.py --self-test

Every argument is passed to the benchmark binary unchanged; see
gevobench/README.md for the workloads and metrics. Build output goes to
stderr, so the last line of stdout stays the benchmark's JSON result. The
build directory is $CARGO_TARGET_DIR/gevobench (default .bench_build), so
repeated runs reuse one incremental build.
"""

import os
import shutil
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, build_root, "gevobench")

    configure = ["cmake", "-S", here, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "Makefile")):
        configure += ["-G", "Ninja"]
    # The program reads GEVO_* variables (reference paths, fault
    # injection); the benchmark measures the default path only. Compiler
    # temporaries stay inside the checkout.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GEVO_")}
    env["TMPDIR"] = os.path.join(root, build_root, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = [configure, ["cmake", "--build", build_dir, "-j", "4"]]
    for step in steps:
        built = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                               env=env)
        if built.returncode != 0:
            print("gevobench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return 2

    binary = os.path.join(build_dir, "gevobench")
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
