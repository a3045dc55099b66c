"""Statistics the benchmark reports: medians, the tail rule, failure share."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(values) -> tuple:
    """Highest order statistic with at least ``TAIL_BEYOND`` samples above it.

    Returns ``(value, beyond)``.  With fewer than ``2 * TAIL_BEYOND + 1``
    samples no such point lies at or above the median; the tail then falls
    back to the highest order statistic with ``(n - 1) // 2`` samples above
    it, which keeps it from ever dropping below the median, and ``beyond``
    says how many samples back it.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    beyond = min(TAIL_BEYOND, (len(xs) - 1) // 2)
    return xs[len(xs) - 1 - beyond], beyond


def median(values) -> float:
    return float(statistics.median(values))


def failed_share(outcomes) -> tuple:
    """``(attempted, failed, share)`` over per-unit failure-reason lists; a unit
    fails when its list of reasons is not empty."""
    attempted = len(outcomes)
    failed = sum(1 for reasons in outcomes if reasons)
    return attempted, failed, (failed / attempted if attempted else 0.0)


def spread(values) -> float:
    """Inter-quartile distance as a share of the median (the acceptance rule)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
