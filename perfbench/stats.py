"""Summary statistics the benchmark reports.

Percentiles use linear interpolation between the two nearest ranks
(the rule ``numpy.percentile`` applies by default).  A tail percentile
is only reported when enough samples lie beyond it: p90 needs at
least :data:`MIN_P90_SAMPLES` samples, so ten of them sit above it.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: Samples needed before p90 is reported (ten beyond the percentile).
MIN_P90_SAMPLES = 100


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of ``values``, interpolated."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    weight = rank - low
    return float(ordered[low] * (1 - weight) + ordered[high] * weight)


def p90_or_none(values: Sequence[float]) -> Optional[float]:
    """p90 when at least :data:`MIN_P90_SAMPLES` samples exist."""
    if len(values) < MIN_P90_SAMPLES:
        return None
    return percentile(values, 90)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of strictly positive values."""
    if not values:
        raise ValueError("geometric mean of an empty sample")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))
