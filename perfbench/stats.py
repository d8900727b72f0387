"""Order statistics with the benchmark's sample-count rule.

A percentile is reported only when at least :data:`MIN_BEYOND` samples
lie beyond it, so a p99 needs 1000 samples and a median 20.  A
percentile with fewer is not a measurement of the tail it names.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


class PercentileError(ValueError):
    """A percentile was requested over too few samples to report it."""


def samples_beyond(n: int, q: float) -> int:
    """Samples above the nearest-rank ``q``-th percentile of ``n``."""
    if not 0 < q < 100:
        raise ValueError(f"q must be in (0, 100), got {q}")
    if n <= 0:
        return 0
    return n - max(1, math.ceil(q / 100.0 * n))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; raises unless :data:`MIN_BEYOND` samples
    lie beyond it."""
    n = len(values)
    beyond = samples_beyond(n, q)
    if beyond < MIN_BEYOND:
        raise PercentileError(
            f"p{q:g} over {n} samples has {beyond} beyond it "
            f"(needs {MIN_BEYOND})"
        )
    ordered = sorted(values)
    return float(ordered[max(1, math.ceil(q / 100.0 * n)) - 1])


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median.

    Quartiles as ``statistics.quantiles(values, n=4)`` gives them (the
    exclusive method), which is how the spread of repeated runs is
    judged against each metric's bound.
    """
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
