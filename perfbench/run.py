#!/usr/bin/env python3
"""Build the life-cycle benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --print-fingerprints > perfbench/fingerprints.txt
    python3 perfbench/run.py --klu --workload NAME

Run from the root of a checkout. The build tree is .bench_build/perfbench
(Release); traces go to .bench_out/. The last line of standard output is the
benchmark's JSON result. Exits non-zero, printing no result, when the
library sources are missing or the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "lifecycle")


def build():
    """Configure once, then build incrementally; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources at src/ (run from a full checkout)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "lifecycle"],
                   stdout=sys.stderr, check=True)


def main():
    args = sys.argv[1:]
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if "--print-fingerprints" not in args and "--klu" not in args:
        os.makedirs(OUT, exist_ok=True)
        args += ["--fingerprints", os.path.join(HERE, "fingerprints.txt"), "--out", OUT]
    sys.stdout.flush()
    return subprocess.run([BINARY] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
