"""Arithmetic the benchmark reports with: percentiles, spreads, self time.

Kept free of homecrew imports so the tests can check it on its own.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def samples_beyond(n: int, pct: float) -> int:
    """How many of n sorted samples lie strictly above the pct-th percentile
    as percentile() picks it (nearest rank)."""
    return n - nearest_rank(n, pct)


def nearest_rank(n: int, pct: float) -> int:
    """1-based rank of the pct-th percentile among n samples."""
    if n < 1:
        raise ValueError("no samples")
    return max(1, math.ceil(pct / 100.0 * n))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least pct% of the
    samples at or below it."""
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), pct) - 1]


def percentile_resolved(n: int, pct: float) -> bool:
    """Whether pct may be reported from n samples: MIN_BEYOND lie beyond it."""
    return n >= 1 and samples_beyond(n, pct) >= MIN_BEYOND


def ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, or 0.0 when the base is empty."""
    return numerator / denominator if denominator else 0.0


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median; 0 when the median is 0."""
    q1, q2, q3 = quartiles(values)
    return ratio(q3 - q1, abs(q2))


def worse_by(before: float, after: float, better: str) -> float:
    """How much worse ``after`` is than ``before``, as a share of ``before``;
    negative when it is better."""
    change = ratio(after - before, abs(before))
    return -change if better == "higher" else change


def verdict(
    base: Sequence[float], change: Sequence[float], better: str, bound: Optional[float]
) -> str:
    """Compare two sets of runs of one metric. ``unresolved`` when either
    side's spread exceeds the bound, unless every run of the change reads
    better than every run of the base."""
    loss = worse_by(statistics.median(base), statistics.median(change), better)
    if bound is None:
        return "better" if loss < 0 else ("worse" if loss > 0 else "same")
    if max(spread(base), spread(change)) > bound:
        beats = (
            min(change) > max(base) if better == "higher" else max(change) < min(base)
        )
        return "better" if beats else "unresolved"
    if loss > bound:
        return "worse"
    return "ok"


class Span:
    """One timed call: its name, interval, and the index of its parent span
    in the same episode (None for the episode root)."""

    __slots__ = ("name", "start", "end", "parent", "episode")

    def __init__(self, name, start, end=0.0, parent=None, episode=0):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.episode = episode

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span, its duration minus the part of its interval covered by its
    child spans (spans naming it as parent within the same episode). Child
    intervals are clipped to the parent and overlapping children, as from
    concurrent threads, are counted once."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            if parent.episode != span.episode:
                raise ValueError("a span's parent belongs to another episode")
            lo, hi = max(span.start, parent.start), min(span.end, parent.end)
            if hi > lo:
                children.setdefault(span.parent, []).append((lo, hi))
    out = []
    for index, span in enumerate(spans):
        covered = _union_length(children.get(index, ()))
        out.append(max(0.0, span.duration - covered))
    return out


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total
