"""Order statistics shared by the benchmark and its steadiness mode."""

from __future__ import annotations

import math
import statistics


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the ``pct`` percentile."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def timing(windows: list[list[float]], tail_pct: int) -> dict:
    """Latencies in seconds, one list per timed window, reported in
    milliseconds.  The median and the mean are taken per window and
    reported as their median over the windows, so one disturbed window
    cannot carry them.  The workload's fixed tail percentile is taken
    over every window's samples pooled: one window holds too few
    samples of the rarer kinds for a tail of its own."""
    windows = [sorted(window) for window in windows if window]
    if not windows:
        return {"samples": 0}
    pooled = sorted(sample for window in windows for sample in window)
    return {
        "samples": len(pooled),
        "p50_ms": statistics.median(percentile(w, 50) for w in windows) * 1e3,
        "mean_ms": statistics.median(statistics.fmean(w) for w in windows) * 1e3,
        "tail_ms": percentile(pooled, tail_pct) * 1e3,
        "tail_pct": tail_pct,
        "tail_beyond": beyond(len(pooled), tail_pct),
    }


def spread(values: list[float]) -> dict:
    """Median, quartiles and the quartile distance as a share of the
    median — the steadiness figure the bounds are judged against."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
    }
