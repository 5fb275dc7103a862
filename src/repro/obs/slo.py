"""Rolling SLO tracker: windowed latency percentiles + error budget.

:class:`SLOTracker` reports a long-lived server's p50/p95/p99 transfer
latency and error budget over a rolling window of two halves of
``window // 2`` observations: when the current half fills it replaces
the older one, so the report covers the last ``window / 2`` to
``window`` observations.  A half keeps exact counts (observations,
errors, ``over_target`` — those slower than ``target_seconds`` — and
the latency sum) plus **latency bucket counts** instead of samples:
:data:`SUB_BUCKETS` linear buckets per power of two, so a bucket's
midpoint is within :data:`RELATIVE_ERROR` (1/64) of every latency it
counts in [:data:`MIN_SECONDS`, :data:`MAX_SECONDS`) (others clamp into
the end buckets), and memory is bounded by :data:`BUCKET_COUNT`, not by
*window*.  The percentiles apply the linear rule of
:func:`repro.util.stats.percentile` to the bucket midpoints.
``error_budget_remaining`` is the unspent fraction of the allowed
failure rate (1.0 with a clean window, 0.0 once the error rate meets
the budget), so an alert is one comparison.

:func:`slo_report` is the one place the report is computed: the tracker
calls it on its two halves, and :func:`repro.net.workers.merge_snapshots`
on the workers' reports, whose ``buckets`` (``[index, count]`` pairs)
sum exactly.  The server snapshot carries the report as ``slo``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from typing import Any, Dict, Iterable, List, Tuple

#: Default window size (observations, not seconds): large enough to
#: smooth chaos-induced variance, small enough that a regression shows
#: within a few hundred transfers.
DEFAULT_SLO_WINDOW = 512
#: Default failure allowance: 5% of windowed transfers may fail.
DEFAULT_ERROR_BUDGET = 0.05
#: Default latency target (wall-clock seconds per served transfer).
DEFAULT_TARGET_SECONDS = 5.0

#: Linear latency buckets per power of two.
SUB_BUCKETS = 32
#: Bound on |bucket midpoint − latency| / latency inside the range.
RELATIVE_ERROR = 1.0 / (2 * SUB_BUCKETS)
#: Latency range the layout covers (about 1 ns to 12 days).
MIN_SECONDS = 2.0 ** -30
MAX_SECONDS = 2.0 ** 20
_MIN_EXPONENT = math.frexp(MIN_SECONDS)[1]
#: Buckets in the layout: no window holds more distinct indices.
BUCKET_COUNT = (math.frexp(MAX_SECONDS)[1] - _MIN_EXPONENT) * SUB_BUCKETS
#: A frexp mantissa m is in [0.5, 1): int(m · _SCALE) − SUB_BUCKETS is
#: its sub-bucket.
_SCALE = 2 * SUB_BUCKETS
_OFFSET = SUB_BUCKETS * (_MIN_EXPONENT + 1)


def bucket_index(seconds: float) -> int:
    """The layout bucket counting a latency of *seconds*."""
    mantissa, exponent = math.frexp(seconds if seconds > MIN_SECONDS else MIN_SECONDS)
    index = int(mantissa * _SCALE) + exponent * SUB_BUCKETS - _OFFSET
    return index if index < BUCKET_COUNT else BUCKET_COUNT - 1


def bucket_seconds(index: int) -> float:
    """The midpoint of layout bucket *index*, in seconds."""
    octave, sub = divmod(index, SUB_BUCKETS)
    return math.ldexp(1.0 + (sub + 0.5) / SUB_BUCKETS, octave + _MIN_EXPONENT - 1)


def _bucket_percentile(indices: List[int], cumulative: List[int], p: float) -> float:
    """The linear-rule *p*-th percentile of the bucket midpoints."""
    rank = (p / 100.0) * (cumulative[-1] - 1)
    low = math.floor(rank)
    lo = bucket_seconds(indices[bisect_right(cumulative, low)])
    hi = bucket_seconds(indices[bisect_right(cumulative, math.ceil(rank))])
    return lo + (hi - lo) * (rank - low)


def slo_report(
    parts: Iterable[Tuple[int, int, int, float, Iterable[Tuple[int, int]]]],
    *, window: int, error_budget: float, target_seconds: float,
    total_observed: int, total_errors: int,
) -> Dict[str, Any]:
    """The JSON-safe report over *parts*: ``(count, errors, over_target,
    latency sum, (index, count) bucket pairs)`` each."""
    count = errors = over_target = seconds = 0
    buckets: Dict[int, int] = {}
    for part_count, part_errors, part_over, part_seconds, part_buckets in parts:
        count += part_count
        errors += part_errors
        over_target += part_over
        seconds += part_seconds
        for index, hits in part_buckets:
            buckets[index] = buckets.get(index, 0) + hits
    ordered = sorted(buckets.items())
    indices = [index for index, _ in ordered]
    cumulative = list(accumulate(hits for _, hits in ordered))
    error_rate = errors / count if count else 0.0
    return {
        "window": window,
        "count": count,
        "errors": errors,
        "error_rate": error_rate,
        "error_budget": error_budget,
        "error_budget_remaining": max(0.0, 1.0 - error_rate / error_budget),
        "target_seconds": target_seconds,
        "over_target": over_target,
        **{f"p{p}_seconds": _bucket_percentile(indices, cumulative, p) if count else 0.0
           for p in (50, 95, 99)},
        "mean_seconds": seconds / count if count else 0.0,
        "total_observed": total_observed,
        "total_errors": total_errors,
        "buckets": [[index, hits] for index, hits in ordered],
    }


class _Half:
    """One half of the window: exact counts plus latency buckets."""

    __slots__ = ("count", "errors", "over_target", "seconds", "buckets")

    def __init__(self) -> None:
        self.count = self.errors = self.over_target = 0
        self.seconds = 0.0
        self.buckets: Dict[int, int] = {}


class SLOTracker:
    """Rolling-window latency/error tracking for one serving process."""

    __slots__ = ("target_seconds", "error_budget", "window", "_half_size",
                 "_older", "_current", "total_observed", "total_errors")

    def __init__(
        self,
        *,
        target_seconds: float = DEFAULT_TARGET_SECONDS,
        error_budget: float = DEFAULT_ERROR_BUDGET,
        window: int = DEFAULT_SLO_WINDOW,
    ) -> None:
        if target_seconds <= 0:
            raise ValueError(f"target_seconds must be positive, got {target_seconds}")
        if not 0.0 < error_budget <= 1.0:
            raise ValueError(f"error_budget must be in (0, 1], got {error_budget}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.target_seconds = target_seconds
        self.error_budget = error_budget
        self.window = window
        self._half_size = max(1, window // 2)
        self._older, self._current = _Half(), _Half()
        self.total_observed = 0
        self.total_errors = 0

    def observe(self, seconds: float, ok: bool = True) -> None:
        """Record one served transfer (latency + verdict)."""
        half = self._current
        if half.count == self._half_size:
            self._older = half
            half = self._current = _Half()
        buckets, index = half.buckets, bucket_index(seconds)
        buckets[index] = buckets.get(index, 0) + 1
        half.count += 1
        half.seconds += seconds
        if seconds > self.target_seconds:
            half.over_target += 1
        self.total_observed += 1
        if not ok:
            half.errors += 1
            self.total_errors += 1

    def __len__(self) -> int:
        return self._older.count + self._current.count

    @property
    def error_rate(self) -> float:
        """Errors / observations over the current window (0.0 if empty)."""
        return self.report()["error_rate"]

    @property
    def error_budget_remaining(self) -> float:
        """Unspent fraction of the error budget, clamped to [0, 1]."""
        return self.report()["error_budget_remaining"]

    def report(self) -> Dict[str, Any]:
        """The windowed SLO report as a JSON-safe dict."""
        return slo_report(
            [(h.count, h.errors, h.over_target, h.seconds, h.buckets.items())
             for h in (self._older, self._current)],
            window=self.window, error_budget=self.error_budget,
            target_seconds=self.target_seconds,
            total_observed=self.total_observed, total_errors=self.total_errors,
        )
