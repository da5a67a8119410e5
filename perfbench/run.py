#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <tiny-closed|edge-open|insitu-train>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root.  The first call configures and builds the
library from ../src plus the benchmark (Release) into .bench_build (or
$CARGO_TARGET_DIR); later calls only re-check the build.  Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result.
Spans of traced runs are written to <build dir>/traces.
"""
import argparse
import os
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# A run must end within 180 s; the benchmark itself is bounded by --seconds.
RUN_TIMEOUT_S = 170


def build_dir() -> pathlib.Path:
    configured = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = pathlib.Path(configured)
    return path if path.is_absolute() else ROOT / path


def build(out: pathlib.Path) -> bool:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "-j", jobs, "--target", "perfbench",
         "perfbench_selftest"],
    ]
    if (out / "CMakeCache.txt").exists():
        steps = steps[1:]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the tests of the benchmark's own helpers")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    out = build_dir()
    if not build(out):
        return 1
    if args.selftest:
        return subprocess.run([str(out / "perfbench_selftest")]).returncode

    traces = out / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-dir", str(traces)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
