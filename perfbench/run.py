#!/usr/bin/env python3
"""Build the foscil benchmark from source and run one workload.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 30 --trace 0

Run from the repository root.  The first call configures and builds
perfbench/ (CMake, Release) into .bench_build/; later calls only rebuild
what changed.  Build output goes to stderr, so the last line on stdout is
the benchmark's JSON result.  With --trace 1 the span log is written to
.bench_build/trace-<workload>-<seed>.jsonl.  See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("serve-hot", "serve-connect")
RUN_TIMEOUT_S = 175


def build(here, build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", here, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "foscil_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("error: foscil sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    build_dir = os.path.join(root, ".bench_build")
    try:
        build(here, build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"error: build failed: {error}", file=sys.stderr)
        return 2

    command = [os.path.join(build_dir, "foscil_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", os.path.join(
            build_dir, f"trace-{args.workload}-{args.seed}.jsonl")]
    try:
        return subprocess.run(command, cwd=root,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
