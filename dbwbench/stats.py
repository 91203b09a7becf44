"""Summary statistics the benchmark reports.

Timings are reported as a median plus a tail percentile, but a tail
percentile is only reported when at least :data:`MIN_BEYOND` samples lie
beyond it; with fewer, one slow sample would decide it.
"""

from __future__ import annotations

import bisect
import math
import statistics
from typing import Sequence

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10


def median(samples: Sequence[float]) -> float | None:
    """The median, or ``None`` for no samples."""
    return statistics.median(samples) if samples else None


def tail_percentile(
    samples: Sequence[float], q: float = 0.9, min_beyond: int = MIN_BEYOND
) -> float | None:
    """The nearest-rank ``q`` percentile, if ``min_beyond`` samples exceed it.

    The nearest-rank value is the ``ceil(q * n)``-th smallest sample, so
    ``n - ceil(q * n)`` samples rank beyond it: p90 needs 100 samples.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    n = len(samples)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1]


def host_scaled(
    samples: Sequence[tuple[float, float]],
    readings: Sequence[tuple[float, float]],
    reference: float,
    k: int = 5,
) -> list[float]:
    """Each ``(time, seconds)`` sample at the reference host speed.

    A sample's seconds are multiplied by ``reference`` over the median of
    the ``k`` calibration ``(time, kernel seconds)`` readings nearest to
    it in time. With no readings the samples come back unscaled.
    """
    if not readings:
        return [seconds for __, seconds in samples]
    ordered = sorted(readings)
    times = [t for t, __ in ordered]
    width = min(k, len(ordered))
    scaled = []
    for at, seconds in samples:
        lo = hi = bisect.bisect_left(times, at)
        while hi - lo < width:
            if hi == len(ordered) or (lo > 0 and at - times[lo - 1] <= times[hi] - at):
                lo -= 1
            else:
                hi += 1
        local = statistics.median(s for __, s in ordered[lo:hi])
        scaled.append(seconds * reference / local)
    return scaled
