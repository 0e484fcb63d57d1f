"""Run statistics: per-generation trends as terminal text.

Helpers over series read off :class:`~repro.neat.population
.GenerationStats` records (a population's ``history``, a protocol
engine's records): an ASCII sparkline and a first/last/best summary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

_SPARK_LEVELS = " .:-=+*#%@"


def sparkline(values: Sequence[float], width: int = 40) -> str:
    """Render a series as a fixed-width ASCII sparkline.

    >>> sparkline([0, 1, 2, 3], width=4)
    ' -+@'
    """
    if not values:
        return ""
    if len(values) > width:
        # average-pool down to the requested width
        pooled = []
        step = len(values) / width
        for i in range(width):
            lo = int(i * step)
            hi = max(int((i + 1) * step), lo + 1)
            chunk = values[lo:hi]
            pooled.append(sum(chunk) / len(chunk))
        values = pooled
    low = min(values)
    high = max(values)
    span = high - low
    if span <= 0:
        return _SPARK_LEVELS[5] * len(values)
    out = []
    for value in values:
        index = int((value - low) / span * (len(_SPARK_LEVELS) - 1))
        out.append(_SPARK_LEVELS[index])
    return "".join(out)


@dataclass(frozen=True)
class FitnessSummary:
    """Distribution summary of one series."""

    first: float
    last: float
    best: float
    mean: float
    stdev: float


def summarise(values: Sequence[float]) -> FitnessSummary:
    """Five-number-ish summary of a per-generation series."""
    if not values:
        raise ValueError("no values to summarise")
    mean = sum(values) / len(values)
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    return FitnessSummary(
        first=values[0],
        last=values[-1],
        best=max(values),
        mean=mean,
        stdev=math.sqrt(variance),
    )
