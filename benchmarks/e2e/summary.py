"""Statistics and failure bookkeeping shared by every workload.

Kept free of ``repro`` imports so the helpers (and their tests) run
without the library on the path.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks.

    Matches ``numpy.percentile``'s default: rank ``q/100 * (n - 1)``
    interpolated between its two neighbours.  Raises on empty input
    rather than inventing a number.
    """
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supported_tail(count: int, beyond: int = 10) -> float:
    """The highest of p50/p90/p99/p99.9 with ``beyond`` samples past it.

    A percentile is only worth reporting when at least ten samples lie
    beyond it; with fewer than ``2 * beyond`` samples only the median
    is returned (and callers print the count next to it).
    """
    best = 50.0
    for q in (90.0, 99.0, 99.9):
        # The tolerance absorbs float error in 100 - 99.9.
        if count * (100.0 - q) / 100.0 >= beyond - 1e-9:
            best = q
    return best


def iqr_share(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median.

    Quartiles come from ``statistics.quantiles(values, n=4)`` (the
    default exclusive method), applied to the values of one metric over
    repeated runs.
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


def pooled_latency(samples: Mapping[object, Sequence[float]]) -> float:
    """Mean over tasks of each task's median operation time.

    A run times a pool of distinct inputs; some take twice as long as
    others.  Taking each input's median first damps one-off stalls, and
    weighting inputs equally keeps the estimate independent of how many
    times a slow or fast input happened to be repeated before the run's
    deadline.
    """
    medians = [statistics.median(times) for times in samples.values() if times]
    if not medians:
        raise ValueError("no timed operations")
    return statistics.fmean(medians)


def per_op(total: float, ops: int) -> float:
    """``total`` spread over ``ops`` operations (0 when nothing ran)."""
    return total / ops if ops else 0.0


class Tally:
    """Attempted and failed operations, with the first few reasons.

    Every operation a workload tries — set-up, warm-up, timed, or a
    correctness comparison — is counted once; a failure records why.
    """

    #: Distinct failure messages kept verbatim; the rest are only counted.
    KEEP = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter[str] = Counter()

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if reason in self.reasons or len(self.reasons) < self.KEEP:
            self.reasons[reason] += 1

    def check(self, condition: bool, reason: str) -> bool:
        """Count one operation; a false ``condition`` is a failure."""
        if condition:
            self.ok()
        else:
            self.fail(reason)
        return condition

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        for reason, count in other.reasons.items():
            if reason in self.reasons or len(self.reasons) < self.KEEP:
                self.reasons[reason] += count

    def to_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "reasons": dict(self.reasons),
        }


def median_or_zero(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
