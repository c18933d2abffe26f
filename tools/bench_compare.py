#!/usr/bin/env python3
"""Diff two BENCH_perf.json files from bench/perf_report.

Usage:
    bench_compare.py BASELINE CURRENT [--threshold 0.10]
                     [--min-ff-speedup X]

Exits non-zero when any benchmark present in both files regressed by
more than THRESHOLD (default 10%), or when --min-ff-speedup is given
and the current report's derived.ff_speedup_miss_heavy is below X.

Raw items/sec values only compare meaningfully on the same machine
and build type (the report embeds a machine fingerprint; a mismatch
is reported as a warning, not a failure, so CI can still apply a
generous threshold across runner generations). The derived ratio is
a same-machine A/B comparison and is machine-independent.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"bench_compare: cannot read {path}: {e}")


def main():
    ap = argparse.ArgumentParser(
        description="Compare two BENCH_perf.json files.")
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="max tolerated fractional slowdown per "
                         "benchmark (default 0.10 = 10%%)")
    ap.add_argument("--min-ff-speedup", type=float, default=None,
                    help="fail unless the current report's "
                         "ff_speedup_miss_heavy is at least this")
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)

    bmachine = base.get("machine", {})
    cmachine = cur.get("machine", {})
    for key in ("os", "arch", "build", "audits"):
        if bmachine.get(key) != cmachine.get(key):
            print(f"warning: machine fingerprint differs on '{key}': "
                  f"{bmachine.get(key)!r} vs {cmachine.get(key)!r} — "
                  f"raw items/sec comparison is approximate",
                  file=sys.stderr)

    bbench = {b["name"]: b for b in base.get("benchmarks", [])}
    cbench = {b["name"]: b for b in cur.get("benchmarks", [])}

    failed = False
    for name in sorted(set(bbench) | set(cbench)):
        if name not in bbench:
            print(f"  {name}: new benchmark (no baseline)")
            continue
        if name not in cbench:
            print(f"warning: {name}: present in baseline only",
                  file=sys.stderr)
            continue
        old = bbench[name].get("items_per_sec", 0)
        new = cbench[name].get("items_per_sec", 0)
        if old <= 0:
            print(f"  {name}: baseline has no rate, skipped")
            continue
        ratio = new / old
        verdict = "ok"
        if ratio < 1.0 - args.threshold:
            verdict = "REGRESSION"
            failed = True
        print(f"  {name}: {old} -> {new} items/sec "
              f"({ratio:.2f}x) {verdict}")

    def check_min(key, minimum):
        """Gate one derived ratio; returns True when it fails."""
        if minimum is None:
            return False
        value = cur.get("derived", {}).get(key)
        if value is None:
            print(f"FAIL: current report has no derived.{key}",
                  file=sys.stderr)
            return True
        ok = value >= minimum
        print(f"  {key}: {value:.2f}x "
              f"(required >= {minimum:g}x) {'ok' if ok else 'FAIL'}")
        return not ok

    failed |= check_min("ff_speedup_miss_heavy", args.min_ff_speedup)

    if failed:
        print("bench_compare: FAILED", file=sys.stderr)
        return 1
    print("bench_compare: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
