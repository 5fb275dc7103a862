"""Rolling SLO tracker: windowed latency percentiles + error budget.

The ROADMAP's serving goal is phrased as an SLO: p50/p95/p99 transfer
latency and an error budget against a target.  :class:`SLOTracker`
implements the rolling form of that report for a long-lived server:

* a **sliding window** of the last *window* observations (latency
  seconds + ok/error flag) — old traffic ages out, so the report
  describes *current* behaviour, not the process's whole life;
* **percentiles over the window** (p50/p95/p99 plus the mean) via the
  shared :func:`repro.util.stats.percentile`;
* an **error budget**: the fraction of windowed observations allowed
  to fail.  ``error_budget_remaining`` is the unspent fraction of that
  allowance (1.0 with a clean window, 0.0 once the observed error rate
  meets or exceeds the budget) — the standard burn-rate shape, so a CI
  gate or alert is one comparison;
* a **latency target**: ``over_target`` counts windowed observations
  slower than ``target_seconds`` so latency regressions are visible
  even while everything still "succeeds".

``observe()`` is O(1) (deque append); ``report()`` sorts the window.
The report is the only exported form of these figures: the server
snapshot carries it as ``slo`` and ``/metrics`` flattens it.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Tuple

from repro.util.stats import percentile

#: Default sliding-window size (observations, not seconds): large
#: enough to smooth chaos-induced variance, small enough that a
#: regression shows within a few hundred transfers.
DEFAULT_SLO_WINDOW = 512
#: Default failure allowance: 5% of windowed transfers may fail.
DEFAULT_ERROR_BUDGET = 0.05
#: Default latency target (wall-clock seconds per served transfer).
DEFAULT_TARGET_SECONDS = 5.0


class SLOTracker:
    """Sliding-window latency/error tracking for one serving process."""

    __slots__ = (
        "target_seconds",
        "error_budget",
        "window",
        "_samples",
        "total_observed",
        "total_errors",
    )

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
        self._samples: Deque[Tuple[float, bool]] = deque(maxlen=window)
        self.total_observed = 0
        self.total_errors = 0

    def observe(self, seconds: float, ok: bool = True) -> None:
        """Record one served transfer (latency + verdict)."""
        self._samples.append((float(seconds), bool(ok)))
        self.total_observed += 1
        if not ok:
            self.total_errors += 1

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def error_rate(self) -> float:
        """Errors / observations over the current window (0.0 if empty)."""
        if not self._samples:
            return 0.0
        errors = sum(1 for _, ok in self._samples if not ok)
        return errors / len(self._samples)

    @property
    def error_budget_remaining(self) -> float:
        """Unspent fraction of the error budget, clamped to [0, 1]."""
        if not self._samples:
            return 1.0
        return max(0.0, 1.0 - self.error_rate / self.error_budget)

    def report(self) -> Dict[str, Any]:
        """The windowed SLO report as a JSON-safe dict."""
        samples = list(self._samples)
        latencies = sorted(seconds for seconds, _ in samples)
        count = len(samples)
        errors = sum(1 for _, ok in samples if not ok)
        error_rate = errors / count if count else 0.0
        remaining = (
            1.0 if not count else max(0.0, 1.0 - error_rate / self.error_budget)
        )
        return {
            "window": self.window,
            "count": count,
            "errors": errors,
            "error_rate": error_rate,
            "error_budget": self.error_budget,
            "error_budget_remaining": remaining,
            "target_seconds": self.target_seconds,
            "over_target": sum(1 for s in latencies if s > self.target_seconds),
            "p50_seconds": percentile(latencies, 50.0) if latencies else 0.0,
            "p95_seconds": percentile(latencies, 95.0) if latencies else 0.0,
            "p99_seconds": percentile(latencies, 99.0) if latencies else 0.0,
            "mean_seconds": sum(latencies) / count if count else 0.0,
            "total_observed": self.total_observed,
            "total_errors": self.total_errors,
        }
