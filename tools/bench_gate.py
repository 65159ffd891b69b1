#!/usr/bin/env python3
"""Bench-regression gate: compare a fresh serve_bench JSON to a baseline.

    tools/bench_gate.py --baseline BENCH_serve.json \
                        --current serve_bench_run.json
                        [--tolerance 3.0] [--min-ms 5.0]

Two kinds of check, matching what is actually stable across machines:

* Hard determinism gates (always enforced): every kernel of the current
  report must have `bit_identical_across_threads` and
  `counters_identical_across_threads` true, and the named-counter totals
  must equal the baseline *exactly*. serve_bench counts jobs and cache
  hits as constants of the workload shape, not of timing, so any drift is
  a real behavioural change (a cache regression or an unintended workload
  change), never noise.

* Soft wall-clock gate: per (kernel, threads) cell, current wall time must
  stay under `tolerance` x the baseline. CI runners are noisy shared
  machines, so the default tolerance is deliberately loose (3x) and cells
  faster than `--min-ms` in the baseline are skipped entirely — they sit
  below scheduler jitter.

Exit codes: 0 pass, 1 regression found, 64 usage/IO error.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_gate: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(64)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--current", required=True)
    ap.add_argument("--tolerance", type=float, default=3.0,
                    help="max allowed wall-time ratio current/baseline")
    ap.add_argument("--min-ms", type=float, default=5.0,
                    help="skip cells whose baseline wall time is below this")
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)
    base_kernels = {k["kernel"]: k for k in base.get("kernels", [])}
    cur_kernels = {k["kernel"]: k for k in cur.get("kernels", [])}

    failures = []
    checked = 0

    for name, bk in sorted(base_kernels.items()):
        ck = cur_kernels.get(name)
        if ck is None:
            failures.append(f"{name}: kernel missing from current report")
            continue

        if not ck.get("bit_identical_across_threads", False):
            failures.append(f"{name}: results differ across thread counts")
        if not ck.get("counters_identical_across_threads", False):
            failures.append(f"{name}: counter totals differ across threads")

        bc = bk.get("counters", {})
        cc = ck.get("counters", {})
        for key in sorted(set(bc) | set(cc)):
            if bc.get(key, 0) != cc.get(key, 0):
                failures.append(
                    f"{name}: counter {key} drifted "
                    f"{bc.get(key, 0)} -> {cc.get(key, 0)}")

        base_cells = {c["threads"]: c for c in bk.get("results", [])}
        cur_cells = {c["threads"]: c for c in ck.get("results", [])}
        for threads, bcell in sorted(base_cells.items()):
            ccell = cur_cells.get(threads)
            if ccell is None:
                failures.append(f"{name}@{threads}: cell missing")
                continue
            if bcell["wall_ms"] < args.min_ms:
                continue  # below jitter, not gateable
            ratio = ccell["wall_ms"] / bcell["wall_ms"]
            checked += 1
            status = "ok"
            if ratio > args.tolerance:
                status = "REGRESSION"
                failures.append(
                    f"{name}@{threads}: {ccell['wall_ms']:.1f} ms vs "
                    f"baseline {bcell['wall_ms']:.1f} ms "
                    f"(x{ratio:.2f} > x{args.tolerance:g})")
            print(f"bench_gate: {name}@{threads}: "
                  f"{bcell['wall_ms']:.1f} -> {ccell['wall_ms']:.1f} ms "
                  f"(x{ratio:.2f}) {status}")

    if failures:
        print(f"bench_gate: {len(failures)} failure(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"bench_gate: PASS ({len(base_kernels)} kernels, "
          f"{checked} timed cells within x{args.tolerance:g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
