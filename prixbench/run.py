#!/usr/bin/env python3
"""PRIX benchmark runner.

Builds the benchmark (and with it the PRIX library, from ../src with the
repository's own CMake) into .bench_build/ of the checkout, then runs one
workload in one process:

    python3 prixbench/run.py --workload paper-cold --seed 1 --seconds 10 --trace 0

The last line of standard output is the workload's JSON result. Build output
and diagnostics go to standard error.

    python3 prixbench/run.py --selftest

runs every workload once per answer check with that check's expected value
perturbed, and fails unless each perturbed check is reported as failing.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "prixbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "prixbench")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("paper-cold", "serve-warm", "ingest-mixed")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# Every answer and model check of each workload (see src/workloads.cc).
CHECKS = {
    "paper-cold": ["paper_counts", "engine_answers", "pages_exact"],
    "serve-warm": ["serve_answers", "two_paths"],
    "ingest-mixed": ["ingest_reads", "live_count", "docids_agree",
                     "derived_final"],
}


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD, "--target", "prixbench", "-j", jobs]]
    # Configure once; later builds re-run CMake themselves when needed.
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", SOURCE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            sys.exit("build failed: " + " ".join(cmd))


def run(args, capture):
    # The child keeps its databases here. It removes them itself when it
    # returns; this removes them also after a crash, an abort or a timeout
    # (subprocess.run kills and reaps the child before raising).
    workdir = os.path.join(WORK, "run-%d" % os.getpid())
    cmd = [BINARY] + args + ["--workdir", workdir]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              check=False,
                              stdout=subprocess.PIPE if capture else None,
                              stderr=subprocess.PIPE if capture else None,
                              text=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)  # only if no other run is using it
        except OSError:
            pass


def selftest(seconds):
    ok = True
    for workload, checks in CHECKS.items():
        for check in checks:
            proc = run(["--workload", workload, "--seed", "7", "--seconds",
                        str(seconds), "--trace", "0", "--perturb", check],
                       capture=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            caught = ("CHECK FAIL %s:" % check) in proc.stderr
            detected = proc.returncode == 0 and caught and \
                result.get("correct") is False
            ok &= detected
            print("%-13s %-15s %s" % (workload, check,
                                      "fails as it should" if detected
                                      else "NOT DETECTED"), flush=True)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required")

    build()
    if args.selftest:
        return selftest(seconds=1)
    proc = run(["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", args.trace],
               capture=False)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
