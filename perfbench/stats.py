"""Order statistics for the benchmark: nearest-rank percentiles and spreads."""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

#: A tail percentile is only reported when at least this many samples lie
#: beyond it; with fewer, one outlier decides the value.
MIN_BEYOND = 10


def nearest_rank(values: Sequence[float], percentile: float) -> float:
    """The nearest-rank *percentile* (0 < p <= 100) of *values*.

    The value at 1-based rank ``ceil(p / 100 * n)`` of the sorted sample, so
    the result is always an observed value (no interpolation).
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < percentile <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {percentile!r}")
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, percentile: float) -> int:
    """How many of *count* samples lie above the nearest-rank *percentile*."""
    return count - max(1, math.ceil(percentile / 100.0 * count))


def highest_percentile(count: int, min_beyond: int = MIN_BEYOND) -> int:
    """The highest whole percentile with at least *min_beyond* samples beyond it.

    ``0`` when the sample is too small for any percentile to qualify.
    """
    for percentile in range(99, 0, -1):
        if beyond(count, percentile) >= min_beyond:
            return percentile
    return 0


def tail(values: Sequence[float], percentile: float, min_beyond: int = MIN_BEYOND) -> float:
    """The nearest-rank *percentile*, refused when too few samples lie beyond it."""
    if beyond(len(values), percentile) < min_beyond:
        raise ValueError(
            f"p{percentile:g} of {len(values)} samples has fewer than "
            f"{min_beyond} samples beyond it (highest allowed: "
            f"p{highest_percentile(len(values), min_beyond)})"
        )
    return nearest_rank(values, percentile)


def spread(values: Sequence[float]) -> dict[str, float]:
    """Median, quartiles and IQR/median of run-level values.

    Quartiles are :func:`statistics.quantiles` with ``n=4`` (its default
    exclusive method), the same rule the steadiness proof is judged by.
    """
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_over_median": (q3 - q1) / median if median else 0.0,
    }
