#!/usr/bin/env python3
"""Builds and runs the XBench repository benchmark.

    python3 perfbench/run.py --workload paper_cold|warm_mpl4|load_update \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark is built from source with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), its
self-tests run, and then the perfbench binary runs the workload. Build and
self-test output goes to standard error; the binary's standard output is
passed through, and its last line is the JSON result. With --trace 1 the
spans are written to <build dir>/traces/<workload>-<seed>.json.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_cold", "warm_mpl4", "load_update")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    here = Path(__file__).resolve().parent
    root = here.parent
    build = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build.is_absolute():
        build = root / build
    build = build / "perfbench"

    def step(cmd):
        # Build and self-test chatter must not reach stdout, whose last line
        # is the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: {' '.join(map(str, cmd))} failed")

    if not (build / "CMakeCache.txt").exists():
        step(["cmake", "-S", str(here), "-B", str(build),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    step(["cmake", "--build", str(build), "-j", str(os.cpu_count() or 1),
          "--target", "perfbench", "perfbench_selftest"])
    step([str(build / "perfbench_selftest"), "--gtest_brief=1"])

    # The library's XBENCH_* hooks (tracer, reports, seeds, worker counts)
    # must not reach the measured process.
    env = {k: v for k, v in os.environ.items() if not k.startswith("XBENCH_")}
    cmd = [str(build / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        traces = build / "traces"
        traces.mkdir(exist_ok=True)
        trace = traces / f"{args.workload}-{args.seed}.json"
        cmd += ["--trace-out", str(trace)]
    sys.stdout.flush()
    done = subprocess.run(cmd, env=env)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
