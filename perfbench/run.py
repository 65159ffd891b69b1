#!/usr/bin/env python3
"""End-to-end benchmark of serelin: builds perfbench/ and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload rand6k|table1-small|examples-batch \
        --seed N --seconds S --trace 0|1

The benchmark program (perfbench/perfbench.cpp) is compiled with the library
sources into .bench_build/perfbench (Release, counters compiled in). After
each fresh build the package's self-test (ctest) runs once before any
measurement. The last line of standard output is the result object:
{"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer split. Lines starting with
"job " are the per-job records; at a workload's default seed they are
compared against perfbench/baseline.json and every changed record is named
on standard error (a changed trajectory is reported, not refused).
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
BINARY = os.path.join(BUILD, "perfbench")
SELFTEST_STAMP = os.path.join(BUILD, "selftest.ok")
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; raises on failure."""
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                   check=True, timeout=timeout)


def build():
    os.makedirs(BUILD, exist_ok=True)
    lock_path = os.path.join(ROOT, ".bench_build", "perfbench.lock")
    with open(lock_path, "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            run_logged(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"], 300)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        run_logged(["cmake", "--build", BUILD, "-j", jobs], 800)
        if (not os.path.exists(SELFTEST_STAMP) or
                os.path.getmtime(SELFTEST_STAMP) < os.path.getmtime(BINARY)):
            run_logged(["ctest", "--test-dir", BUILD, "--output-on-failure"],
                       300)
            with open(SELFTEST_STAMP, "w") as stamp:
                stamp.write("ok\n")


def compare_with_baseline(workload, seed, stdout):
    """Names every per-job record that differs from the baseline's."""
    try:
        with open(os.path.join(HERE, "baseline.json")) as f:
            base = json.load(f)["workloads"].get(workload)
    except (OSError, ValueError, KeyError):
        return
    if not base or base.get("default_seed") != seed:
        return
    jobs = [json.loads(line[4:]) for line in stdout.splitlines()
            if line.startswith("job ")]
    want = base.get("jobs", [])
    if len(jobs) != len(want):
        log("baseline: %d jobs, baseline has %d" % (len(jobs), len(want)))
    for got, ref in zip(jobs, want):
        changed = sorted(k for k in set(got) | set(ref)
                         if got.get(k) != ref.get(k))
        if changed:
            log("baseline: %s (%s) changed: %s" % (
                got.get("circuit"), got.get("format"),
                ", ".join("%s %s -> %s" % (k, ref.get(k), got.get(k))
                          for k in changed)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "flow", "pipeline.hpp")):
        log("serelin sources not found under %s/src; run from a full "
            "checkout" % ROOT)
        return 2
    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        log("build or self-test failed: %s" % e)
        return 2

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", WORK, "--examples",
           os.path.join(ROOT, "examples", "circuits")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode == 0:
        compare_with_baseline(args.workload, args.seed, proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
