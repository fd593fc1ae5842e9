"""Order statistics with the benchmark's sample-count rule."""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Hashable, Iterable, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: beyond it; fewer make the tail a handful of outliers.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 < q < 1) by linear interpolation."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def balanced_median(samples: Iterable[Tuple[Hashable, float]]) -> float:
    """The mean over groups of each group's median, for ``(group, value)``
    samples.

    A workload draws its inputs from a few cells whose costs differ
    several times over.  The plain median of such a mixture falls between
    the modes, where a few samples more or less move it far; the mean of
    per-cell medians weighs every cell the same and stays put.
    """
    groups = defaultdict(list)
    for group, value in samples:
        groups[group].append(value)
    if not groups:
        raise ValueError("balanced median of no samples")
    return sum(median(values) for values in groups.values()) / len(groups)


def reportable(count: int, q: float) -> bool:
    """Do ``count`` samples leave ``MIN_BEYOND`` beyond the ``q``-quantile?"""
    # Tolerance for q*count in binary floating point (0.9 * 100 != 90).
    return count * (1.0 - q) >= MIN_BEYOND - 1e-9


def tail(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-quantile, or ``None`` when the sample count cannot
    support it (fewer than ``MIN_BEYOND`` samples beyond)."""
    return percentile(values, q) if reportable(len(values), q) else None


def ms(seconds: Optional[float]) -> Optional[float]:
    """Seconds to milliseconds, passing ``None`` through."""
    return None if seconds is None else 1e3 * seconds
