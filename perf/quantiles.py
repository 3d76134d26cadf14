"""The arithmetic every reported number goes through (stdlib only)."""

from __future__ import annotations

import statistics


def percentile(values, q: float) -> float:
    """``q``-th percentile (0-100) by linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values) -> float:
    return float(statistics.median(values))


def spread(values) -> float:
    """(max - min) / median: the run-to-run spread kept beside a median."""
    mid = median(values)
    return (max(values) - min(values)) / mid if mid else 0.0
