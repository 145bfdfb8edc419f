#!/usr/bin/env python3
"""Builds vr_bench from this checkout and runs one workload.

    python3 vrbench/run.py --workload image_cold|id_warm|ingest_mixed \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The build (CMake, Release) goes to
$CARGO_TARGET_DIR/cmake, default .bench_build/cmake; the first run
compiles the library from src/, later runs only re-check it. The
workload's store lives in .bench_build/work/ and is deleted when the
run ends; a traced run leaves its client spans in .bench_build/traces/.
The last line of standard output is the benchmark's JSON result; build
output goes to standard error. The exit code is vr_bench's, or 2 when
the build fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# A run must end within 180 s; stop a stuck one before that.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build(build_dir):
    """Configures (once) and builds vr_bench; returns the binary path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "vr_bench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            return None
    return os.path.join(build_dir, "vr_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    binary = build(os.path.join(out_dir, "cmake"))
    if binary is None:
        print("vrbench: build failed", file=sys.stderr)
        return 2

    workdir = os.path.join(out_dir, "work", "%s-%d" % (args.workload,
                                                       os.getpid()))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--workdir", workdir]
    if args.trace == "1":
        command += ["--spans", os.path.join(
            out_dir, "traces", "%s-seed%d.jsonl" % (args.workload, args.seed))]
    proc = subprocess.Popen(command)

    def stop(signum, _frame):
        # Take the benchmark down with this script.
        proc.kill()
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("vrbench: run exceeded %d s, killed" % RUN_TIMEOUT_S,
              file=sys.stderr)
        code = 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
