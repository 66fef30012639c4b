#!/usr/bin/env python3
"""Builds bench_e2e from this checkout, checks its arithmetic, runs it.

    python3 bench_e2e/run.py --workload churn|queries|crowd --seed N \
        --seconds S --trace 0|1
    python3 bench_e2e/run.py --workload all --seed N --seconds S

Run from the root of a checkout.  The build goes to $CARGO_TARGET_DIR
(default .bench_build) under bench_e2e/, traced runs write their spans to
bench_e2e/traces/ there.  Build output goes to stderr; the last line of
stdout is the benchmark's JSON result.  `--workload all` runs every
workload untraced and traced, one after another.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("churn", "queries", "crowd")
# A run measures for --seconds plus a few seconds of set-up; one that takes
# longer than this has hung.
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    targets = ["--target", "bench_e2e", "--target", "bench_e2e_stats_test"]
    if subprocess.run(["cmake", "--build", build_dir, "-j", "4"] + targets,
                      stdout=sys.stderr).returncode != 0:
        return False
    # The benchmark's own arithmetic (percentiles, self time, ledger sums,
    # per-op normalisation) must hold before any number is reported.
    test = os.path.join(build_dir, "bench_e2e_stats_test")
    return subprocess.run([test, "--gtest_brief=1"], stdout=sys.stderr).returncode == 0


def run(binary, workload, seed, seconds, trace, out_dir, ledger):
    command = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
               str(seconds), "--trace", str(trace), "--out-dir", out_dir,
               "--extra-ledger", ledger]
    # Own process group, so a run that overstays is stopped together with
    # the server process it forked.
    proc = subprocess.Popen(command, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"bench_e2e: {workload} did not finish within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "bench_e2e"))
    if not build(build_dir):
        print("bench_e2e: build or self-test failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "bench_e2e")
    out_dir = os.path.join(build_dir, "traces")
    # Seconds by which runs of this build have extended themselves on a busy
    # host; the benchmark caps the total (README.md "Run-to-run spread").
    ledger = os.path.join(build_dir, "extra_seconds")
    sys.stdout.flush()
    if args.workload != "all":
        return run(binary, args.workload, args.seed, args.seconds, args.trace, out_dir, ledger)
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            status |= run(binary, workload, args.seed, args.seconds, trace, out_dir, ledger)
            sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
