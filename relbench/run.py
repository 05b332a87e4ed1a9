#!/usr/bin/env python3
"""Runs one relbench workload from the root of a relcont checkout.

    python3 relbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                            [--corrupt-key]

Builds `relcont` and the relbench runner (release, offline) into
$CARGO_TARGET_DIR (default .bench_build), then runs the workload in a fresh
process and relays its output. The last stdout line is the JSON result; a
failed run exits non-zero without one. Scratch files go to .bench_work/.
Workloads and metrics are listed in BENCHMARK.json; relbench/DESIGN.json
records how each workload is built and why.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("cold_check", "serve_distinct", "serve_hot_churn", "certain_eval")
BUILD_TIMEOUT_S = 350  # per build; two builds plus a run stay under 900 s
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"relbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(cmd, env):
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"build timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"build failed ({done.returncode}): {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--corrupt-key", action="store_true",
                    help="flip the key of the first timed question; the run must fail")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")
            and os.path.isfile(os.path.join("relbench", "Cargo.toml"))):
        fail("run from the root of a relcont checkout (Cargo.toml, crates/ and relbench/ needed)")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(["cargo", "build", "--release", "--offline", "--quiet", "--bin", "relcont"], env)
    build(["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join("relbench", "Cargo.toml")], env)

    work = os.path.abspath(".bench_work")
    os.makedirs(work, exist_ok=True)
    cmd = [
        os.path.join(target, "release", "relbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--relcont", os.path.join(target, "release", "relcont"),
        "--work-dir", work,
    ]
    if args.corrupt_key:
        cmd.append("--corrupt-key")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        # Diagnostics only: a failed run prints no result line.
        sys.stderr.write(out)
        fail(f"{args.workload} failed with exit code {proc.returncode}", 1)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
