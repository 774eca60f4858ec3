"""Small statistics helpers: percentiles with a sample floor and span
self time.

Percentiles interpolate linearly between order statistics (the NumPy
default), so the median of an even-sized sample is the mean of its two
middle values.  A percentile is only *reportable* when at least
``floor`` samples lie strictly above its rank: a p90 over 40 samples
rests on four values and says little about the tail.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

#: Samples that must lie beyond a reported percentile.
SAMPLE_FLOOR = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of too few samples to support it."""


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly above the ``q`` rank."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q!r}")
    return count - math.ceil(q * count)


def min_samples(q: float, floor: int = SAMPLE_FLOOR) -> int:
    """Smallest sample count whose ``q`` percentile meets ``floor``."""
    count = 1
    while samples_beyond(count, q) < floor:
        count += 1
    return count


def percentile(
    values: Sequence[float], q: float, *, floor: int = SAMPLE_FLOOR
) -> float:
    """The ``q`` percentile of ``values``; raises below the sample floor."""
    count = len(values)
    if count == 0 or samples_beyond(count, q) < floor:
        raise InsufficientSamples(
            f"p{q * 100:g} needs {min_samples(q, floor)} samples "
            f"({floor} beyond it), got {count}"
        )
    ordered = sorted(values)
    position = q * (count - 1)
    low = math.floor(position)
    high = min(low + 1, count - 1)
    weight = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * weight


def covered(
    start: float, end: float, children: Iterable[tuple[float, float]]
) -> float:
    """Length of ``[start, end]`` covered by the union of ``children``.

    Children are clipped to the parent's interval and overlaps count
    once, so concurrent children never push a self time below zero.
    """
    clipped = sorted(
        (max(start, child_start), min(end, child_end))
        for child_start, child_end in children
        if child_end > start and child_start < end
    )
    total = 0.0
    run_start = run_end = None
    for child_start, child_end in clipped:
        if run_end is None or child_start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = child_start, child_end
        elif child_end > run_end:
            run_end = child_end
    if run_end is not None:
        total += run_end - run_start
    return total


def self_time(
    start: float, end: float, children: Iterable[tuple[float, float]]
) -> float:
    """A span's duration minus the part of it its children cover."""
    return (end - start) - covered(start, end, children)
