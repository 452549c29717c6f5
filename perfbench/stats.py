"""Order statistics for the benchmark's reports."""
from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10  # samples a reported percentile needs above it


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q < 1). Raises ``ValueError``
    unless at least ``MIN_BEYOND`` samples lie beyond it, so a tail
    figure never rests on one or two outliers."""
    n = len(samples)
    rank = max(1, math.ceil(q * n))  # 1-based
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {n - rank} beyond it; "
            f"needs {MIN_BEYOND}"
        )
    return sorted(samples)[rank - 1]


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median, as the
    acceptance check computes it."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
