#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload pathvector --seed 42 --seconds 10 --trace 0

The benchmark executable (perfbench/bench.ml) is built with dune into
.bench_build/; build output goes to stderr, so
the last line of standard output is the benchmark's JSON result. With
--trace 1 the traced run's spans are written to perfbench/out/.
"""

import os
import subprocess
import sys


def main() -> int:
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            print(f"perfbench: {needed} not found; run from the repository root",
                  file=sys.stderr)
            return 2
    build_dir = ".bench_build"
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir,
         "./perfbench/bench.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(build_dir, "default", "perfbench", "bench.exe")
    spans_dir = os.path.join("perfbench", "out")
    os.makedirs(spans_dir, exist_ok=True)
    run = subprocess.run([exe, *sys.argv[1:], "--spans-dir", spans_dir])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
