#!/usr/bin/env python3
"""Build bench_e2e from this checkout, then run it.

    python3 bench_e2e/run.py --workload card_mm --seed 1 --seconds 10 --trace 0

Every argument goes to the bench_e2e binary (see bench_e2e.cc). The build
tree is $CARGO_TARGET_DIR, or .bench_build when that is unset; disk-backend
files go to .bench_data. Both paths are relative to the current directory.
Build logs go to standard error, so the last line of standard output is
the benchmark's JSON result. The exit code is the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_or_exit(cmd):
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit(result.returncode if result.returncode > 0 else 1)


def git_sha():
    # Only a checkout's own .git counts; never search parent directories.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main():
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                            ".bench_build")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        run_or_exit(["cmake", "-S", HERE, "-B", build,
                     "-DCMAKE_BUILD_TYPE=Release"])
    run_or_exit(["cmake", "--build", build, "--parallel", jobs,
                 "--target", "bench_e2e"])
    cmd = [os.path.join(build, "bench_e2e"), "--git-sha", git_sha()]
    result = subprocess.run(cmd + sys.argv[1:])
    sys.exit(result.returncode if result.returncode >= 0 else 1)


if __name__ == "__main__":
    main()
