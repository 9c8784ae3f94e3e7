"""Percentiles and the tail rule the benchmark reports timings with.

A timing is reported as its median and as a *tail*: the highest
percentile that still has at least :data:`TAIL_BEYOND` samples beyond
it. Each workload fixes its tail percentile in advance from the sample
count it collects, and every result records how many samples lay beyond
the reported value, so a tail read from too few samples is visible.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, q: float) -> int:
    """Samples ranked above the nearest-rank ``q``-th percentile of ``count``."""
    return count - max(1, math.ceil(q / 100.0 * count))


def samples_for(q: float, needed: int = TAIL_BEYOND) -> int:
    """The fewest samples for which percentile ``q`` has ``needed`` beyond."""
    count = needed + 1
    while beyond(count, q) < needed:
        count += 1
    return count


def tail(values, q: float) -> dict:
    """The ``q``-th percentile with the count of samples beyond it."""
    return {
        "percentile": q,
        "value": percentile(values, q),
        "samples": len(values),
        "beyond": beyond(len(values), q),
    }


def median(values) -> float:
    return float(statistics.median(values))


def spread(values) -> float:
    """Interquartile distance as a share of the median, as the benchmark's
    acceptance reads it (``statistics.quantiles(values, n=4)``)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    if median == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / median
