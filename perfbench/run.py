#!/usr/bin/env python3
"""The repository benchmark: one workload against a freshly built disc_serve.

Usage, from the repository root:

  python3 perfbench/run.py --workload cold-sessions --seed 1 --seconds 10 --trace 0

Builds disc_serve and perfbench_loadgen from source (CMake, the project's
default build type) into $CARGO_TARGET_DIR, or .bench_build when unset, then
runs the load generator, which prints report lines and, as its last line, one
JSON object with the metrics. The exit code is the load generator's: 0 only
when every response matched its direct-engine replica.

Workloads: cold-sessions and open-churn, the two BENCHMARK.json lists, and
hot-adapt, which runs the same way but is left out of BENCHMARK.json: its
figures spread between runs past any bound the file may carry (see
perfbench/workloads.h).
Seeds: 1 is the default; 7919 is held out for confirming later claims.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SEED = 1


def build(build_dir):
    """Configures once, then builds; all build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      build_dir])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "perfbench_loadgen", "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))


def git_sha():
    # The ceiling keeps git from searching directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    build(build_dir)
    loadgen = os.path.join(build_dir, "perfbench_loadgen")
    result = subprocess.run([
        loadgen, "--workload=" + args.workload, "--seed=" + str(args.seed),
        "--seconds=" + str(args.seconds), "--trace=" + str(args.trace),
        "--out=" + build_dir, "--git-sha=" + git_sha()])
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
