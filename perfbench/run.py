#!/usr/bin/env python3
"""Builds and runs the end-to-end QueryEngine benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds the library and the benchmark binary
(Release) under $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later calls rebuild incrementally. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Spans of traced runs are
written under the build directory. The exit code is the benchmark's.
"""
import argparse
import os
import pathlib
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    bench_dir = pathlib.Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no library sources under {root / 'src'}")
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    trace_dir = build_dir / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)

    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs],
    ):
        done = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")

    done = subprocess.run(
        [str(build_dir / "perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", args.trace, "--out", str(trace_dir)],
        timeout=RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
