#!/usr/bin/env python3
"""Gate PRs on ratio-style benchmark records.

Compares a fresh micro-benchmark JSON (bench_common.hpp JsonRecords
format: a JSON array of {"bench", "metric", "value"}) against the
checked-in baseline under results/. Only machine-independent metrics
participate:

  *speedup*  -- higher is better (e.g. mask_vs_copy_speedup_512)
  *ratio*    -- lower is better  (e.g. cancel_heavy_vs_schedule_ratio_1024)

Both sides of such a metric come from the same process on the same
machine, so host speed cancels out and shared CI runners can't flip the
verdict with ordinary noise. Wall-clock records (_wall_seconds,
_per_second, counters) are ignored here -- they are uploaded as
artifacts for trajectory tracking, not gated.

The gate is deliberately loose: it fails only when a metric regresses by
more than --factor (default 2x), i.e. a structural slowdown such as an
O(n) path turning O(n^2), not a few-percent drift.

Usage: check_perf_gate.py BASELINE CURRENT [--factor 2.0]
Exit status: 0 all gated metrics within bounds, 1 otherwise.
"""

import argparse
import json
import sys


def direction(metric: str) -> str | None:
    """'higher'/'lower' for gated metrics, None for artifact-only ones."""
    if "speedup" in metric:
        return "higher"
    if "ratio" in metric:
        return "lower"
    return None


def load(path: str) -> dict[str, float]:
    with open(path) as f:
        records = json.load(f)
    return {r["metric"]: float(r["value"]) for r in records}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="checked-in results/BENCH_*.json")
    parser.add_argument("current", help="freshly generated records")
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="maximum tolerated regression factor (default 2.0)",
    )
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)

    failures = []
    checked = 0
    for metric in sorted(baseline):
        sense = direction(metric)
        if sense is None:
            continue
        base = baseline[metric]
        if base <= 0.0:
            continue  # degenerate baseline; nothing meaningful to gate
        if metric not in current:
            failures.append(f"{metric}: missing from {args.current}")
            continue
        cur = current[metric]
        checked += 1
        if sense == "higher":
            ok = cur >= base / args.factor
            verdict = f"{cur:9.3f} vs baseline {base:9.3f} (min {base / args.factor:.3f})"
        else:
            ok = cur <= base * args.factor
            verdict = f"{cur:9.3f} vs baseline {base:9.3f} (max {base * args.factor:.3f})"
        tag = "ok  " if ok else "FAIL"
        print(f"  [{tag}] {metric:45s} {verdict}")
        if not ok:
            failures.append(f"{metric}: {verdict}")

    if checked == 0:
        print(f"error: no gated (speedup/ratio) metrics in {args.baseline}")
        return 1
    if failures:
        print(f"\nperf gate FAILED ({len(failures)} metric(s) regressed >"
              f" {args.factor}x):")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"\nperf gate passed: {checked} metric(s) within {args.factor}x "
          "of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
