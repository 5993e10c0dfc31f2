#!/usr/bin/env python
"""Guard against performance regressions in the tracked scenarios.

Re-runs the headline benchmark scenarios and compares each *speedup*
ratio against the committed ``BENCH_perf.json`` baseline.  Ratios —
optimized-vs-naive within one process on one machine — are what the
repository actually promises (the 2x bars in ROADMAP.md), and unlike
wall-clock seconds they transfer across host speeds, so a slower CI
runner does not trip the gate.

A scenario regresses when its fresh speedup falls below
``baseline_speedup * (1 - TOLERANCE)`` with ``TOLERANCE = 0.25``: a
scenario that shipped at 4.0x may wobble down to 3.0x with scheduler
noise, but not further.  Scenarios present in the baseline and missing
from the fresh run (or vice versa) are reported but only the tracked
intersection gates.

Usage::

    PYTHONPATH=src python scripts/bench_compare.py [--repeats N]
        [--baseline PATH]

Exit status 1 on any regression — wired to ``make bench-compare`` and
the ``bench-compare`` CI job.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))  # for the benchmarks package

TOLERANCE = 0.25


def load_baseline(path: Path) -> dict[str, float]:
    """Scenario name → committed speedup, for ratio-tracked scenarios."""
    report = json.loads(path.read_text())
    return {
        name: record["speedup"]
        for name, record in report.get("scenarios", {}).items()
        if "speedup" in record
    }


def fresh_speedups(repeats: int) -> tuple[dict[str, float], dict[str, int]]:
    from repro.bench import (
        run_parallel_scenarios,
        run_read_scenarios,
        run_replica_scenarios,
        run_scenarios,
        run_shard_scenarios,
    )

    scenarios = dict(run_scenarios(repeats=repeats))
    scenarios.update(run_parallel_scenarios(repeats=repeats))
    # The sharded tier's 4-shard ratio against the inline single-process
    # path (its own best-of is baked into run_shard_scenarios).
    scenarios.update(run_shard_scenarios(shard_counts=(1, 4)))
    # Failover: promote-a-follower vs cold recovery (the lag scenario
    # it also returns carries no speedup and is informational).
    scenarios.update(run_replica_scenarios())
    # The read path: cached-vs-uncached ratio plus the routing
    # invariant (a warm single-block query costs exactly one RPC).
    scenarios.update(run_read_scenarios())
    speedups = {
        name: record["speedup"]
        for name, record in scenarios.items()
        if "speedup" in record
    }
    invariants = {
        name: record["single_block_query_rpcs"]
        for name, record in scenarios.items()
        if "single_block_query_rpcs" in record
    }
    return speedups, invariants


def load_invariants(path: Path) -> dict[str, int]:
    """Scenario name → committed exact-match invariant values."""
    report = json.loads(path.read_text())
    return {
        name: record["single_block_query_rpcs"]
        for name, record in report.get("scenarios", {}).items()
        if "single_block_query_rpcs" in record
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="compare fresh benchmark speedups against the "
        "committed BENCH_perf.json baseline"
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=10,
        help="best-of repeats per scenario (default 10)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=REPO_ROOT / "BENCH_perf.json",
        help="baseline report (default: the committed BENCH_perf.json)",
    )
    args = parser.parse_args(argv)

    baseline = load_baseline(args.baseline)
    if not baseline:
        print(f"no speedup-tracked scenarios in {args.baseline}")
        return 1
    baseline_invariants = load_invariants(args.baseline)
    fresh, fresh_invariants = fresh_speedups(args.repeats)

    regressions: list[str] = []
    width = max(len(name) for name in sorted(baseline | fresh.keys()))
    for name in sorted(baseline):
        if name not in fresh:
            print(f"{name:{width}}  baseline {baseline[name]:6.2f}x  (not in fresh run — skipped)")
            continue
        floor = baseline[name] * (1 - TOLERANCE)
        verdict = "ok" if fresh[name] >= floor else "REGRESSED"
        print(
            f"{name:{width}}  baseline {baseline[name]:6.2f}x  "
            f"fresh {fresh[name]:6.2f}x  floor {floor:6.2f}x  {verdict}"
        )
        if fresh[name] < floor:
            regressions.append(name)
    for name in sorted(set(fresh) - set(baseline)):
        print(f"{name:{width}}  fresh {fresh[name]:6.2f}x  (new — no baseline)")

    # Exact-match invariants: RPC counts are promises, not timings, so
    # there is no tolerance — fresh must equal the committed value.
    for name in sorted(baseline_invariants):
        if name not in fresh_invariants:
            continue
        expected = baseline_invariants[name]
        got = fresh_invariants[name]
        verdict = "ok" if got == expected else "REGRESSED"
        print(
            f"{name}  single_block_query_rpcs baseline {expected}  "
            f"fresh {got}  {verdict}"
        )
        if got != expected:
            regressions.append(f"{name}:single_block_query_rpcs")

    if regressions:
        print(
            f"FAIL: {len(regressions)} scenario(s) regressed more than "
            f"{int(TOLERANCE * 100)}% vs baseline: {', '.join(regressions)}"
        )
        return 1
    print(f"all {len(baseline)} tracked scenario(s) within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
