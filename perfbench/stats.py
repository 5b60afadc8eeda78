"""Order statistics shared by the end-to-end and per-layer reports."""

from __future__ import annotations

import math


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile with linear interpolation between the
    closest ranks; NaN for an empty sample."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)
