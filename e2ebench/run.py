#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout and runs one workload.

    python3 e2ebench/run.py --workload <serve-job|plan-stats|ingest-aeolus>
                            --seed <n> --seconds <n> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
repository's libraries plus the e2ebench program under .bench_build (or
$CARGO_TARGET_DIR); later runs rebuild incrementally. Its output
is relayed, and its last line is one JSON object with the keys correct,
attempted, failed and metrics. Build output goes to stderr. Exits non-zero,
without a result line, when the build or the run fails.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-job", "plan-stats", "ingest-aeolus")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(build_dir):
    """Configures (once) and builds e2ebench; returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                        "--target", "e2ebench"],
                       stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "e2ebench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # an exported checkout, not a clone
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)
            and isinstance(result["metrics"], dict) and result["metrics"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = target_dir()
    try:
        binary = build(os.path.join(target, "e2ebench-" + BUILD_TYPE.lower()))
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1

    env = dict(os.environ)
    env.setdefault("BYTECARD_THREADS", str(os.cpu_count() or 1))
    env.setdefault("BYTECARD_GIT_SHA", git_sha())
    work_dir = os.path.join(target, "runs")
    os.makedirs(work_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", work_dir]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not valid_result(lines[-1]):
        sys.stderr.write(run.stdout)
        print(f"run.py: {args.workload} failed (exit {run.returncode})",
              file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
