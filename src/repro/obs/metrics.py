"""The metrics registry: counters, gauges, and fixed-bucket histograms.

Every metric is a *family* identified by name; a family optionally
fans out into labeled children (``counter.labels(outcome="corrupt")``)
so one instrument can slice its observations without string-formatted
metric names.  The design follows the Prometheus client model but is
dependency-free and deliberately small:

* families are created lazily and idempotently through the registry
  (``registry.counter("frames_sent")`` returns the same object every
  call);
* histograms use **fixed upper-bound buckets** chosen at creation —
  observation is a bisect plus two adds, suitable for hot paths;
* ``snapshot()`` serializes the whole registry to plain dicts for
  embedding into a JSONL trace or rendering as a table.

The registry itself is passive: whether instrumented code calls into
it at all is decided by the process-global switch in
:mod:`repro.obs.runtime`.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: Default latency buckets (seconds): 10 µs .. 10 s, roughly log-spaced.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 10.0,
)

#: Default buckets for small event counts (rounds, retries).
DEFAULT_COUNT_BUCKETS: Tuple[float, ...] = (1, 2, 3, 5, 8, 13, 21, 34, 55, 100)


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


_PROM_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_name(name: str) -> str:
    """A Prometheus-legal sample name (dots and dashes become ``_``)."""
    sanitized = _PROM_NAME_BAD.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def prometheus_value(value: float) -> str:
    """A sample value in Prometheus text form.

    Integral values print exactly (``:g`` would round 12 345 678 to
    ``1.23457e+07``); any other float prints its shortest round-trip
    form.
    """
    if isinstance(value, int):
        return str(value)
    if value.is_integer():
        return str(int(value))
    return repr(value)


def _prometheus_escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _prometheus_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{prometheus_name(k)}="{_prometheus_escape(str(v))}"'
        for k, v in labels.items()
    )
    return "{" + inner + "}"


class _Metric:
    """Shared family machinery: name, help text, labeled children."""

    kind = "metric"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._children: Dict[LabelKey, "_Metric"] = {}
        self._labels: LabelKey = ()

    def labels(self, **labels: object) -> "_Metric":
        """The child of this family for a label combination (created lazily)."""
        if not labels:
            return self
        key = self._labels + _label_key(labels)
        child = self._children.get(key)
        if child is None:
            child = self._spawn()
            child._labels = key
            self._children[key] = child
        return child

    def _spawn(self) -> "_Metric":
        raise NotImplementedError

    def children(self) -> Iterator["_Metric"]:
        """This metric followed by every labeled descendant."""
        yield self
        for child in self._children.values():
            yield from child.children()

    @staticmethod
    def format_labels(labels: LabelKey) -> str:
        if not labels:
            return ""
        inner = ",".join(f"{k}={v}" for k, v in labels)
        return "{" + inner + "}"

    @property
    def label_suffix(self) -> str:
        return self.format_labels(self._labels)


class Counter(_Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._value = 0.0

    def _spawn(self) -> "Counter":
        return Counter(self.name, self.help)

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    @property
    def total(self) -> float:
        """This family's value plus every labeled descendant's."""
        return sum(child._value for child in self.children())  # type: ignore[attr-defined]


class Gauge(_Metric):
    """A value that can go up and down (cache bytes, frames in flight)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._value = 0.0

    def _spawn(self) -> "Gauge":
        return Gauge(self.name, self.help)

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram(_Metric):
    """Fixed-bucket histogram with cumulative-style rendering.

    ``buckets`` are inclusive upper bounds; observations above the last
    bound land in an implicit overflow bucket.  Counts are stored
    per-bucket (not cumulative) and accumulated on demand.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        bounds = tuple(sorted(float(b) for b in buckets))
        if len(set(bounds)) != len(bounds):
            raise ValueError("histogram bucket bounds must be distinct")
        self.buckets = bounds
        self._counts: List[int] = [0] * (len(bounds) + 1)  # +1 overflow
        self._sum = 0.0
        self._count = 0

    def _spawn(self) -> "Histogram":
        return Histogram(self.name, self.help, self.buckets)

    def observe(self, value: float) -> None:
        self._counts[bisect_left(self.buckets, value)] += 1
        self._sum += value
        self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def bucket_counts(self) -> List[Tuple[Optional[float], int]]:
        """(upper_bound, count) pairs; the overflow bound is ``None``."""
        pairs: List[Tuple[Optional[float], int]] = [
            (bound, count) for bound, count in zip(self.buckets, self._counts)
        ]
        pairs.append((None, self._counts[-1]))
        return pairs


def _is_untouched(metric: _Metric) -> bool:
    """True when the metric itself never received an observation."""
    if isinstance(metric, Histogram):
        return metric.count == 0
    return getattr(metric, "_value", 0.0) == 0.0


class MetricsRegistry:
    """Name → metric-family store with idempotent creation.

    Requesting an existing name with a different kind (or different
    histogram buckets) is a programming error and raises.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}

    # -- creation ---------------------------------------------------------

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, Counter, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise TypeError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = Histogram(name, help, buckets)
        self._metrics[name] = metric
        return metric

    def _get_or_create(self, name: str, cls, help: str):
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise TypeError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name, help)
        self._metrics[name] = metric
        return metric

    # -- introspection ----------------------------------------------------

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def reset(self) -> None:
        """Drop every metric family (used between runs and in tests)."""
        self._metrics.clear()

    # -- serialization ----------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Serialize the registry to plain dicts (JSONL-embeddable)."""
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, object]] = {}
        for metric in self._metrics.values():
            for child in metric.children():
                if child._children and not child._labels and _is_untouched(child):
                    # A pure family node: all observations went to its
                    # labeled children; an all-zero parent row is noise.
                    continue
                key = child.name + child.label_suffix
                if isinstance(child, Counter):
                    counters[key] = child.value
                elif isinstance(child, Gauge):
                    gauges[key] = child.value
                elif isinstance(child, Histogram):
                    histograms[key] = {
                        "count": child.count,
                        "sum": child.sum,
                        "buckets": [
                            [bound, count]
                            for bound, count in child.bucket_counts()
                        ],
                    }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def render_prometheus(self, prefix: str = "") -> str:
        """The whole registry in Prometheus text exposition format.

        Metric names are sanitized (``net.frames_received`` →
        ``net_frames_received``) and optionally *prefix*-ed; labeled
        children render as ``name{key="value"}`` sample lines, and
        histograms expand into the conventional cumulative
        ``_bucket{le=...}`` series plus ``_sum`` / ``_count``.  The
        output is what the ``--metrics-port`` endpoint serves on
        ``/metrics``.
        """
        lines: List[str] = []
        for name in self.names():
            metric = self._metrics[name]
            sample = prometheus_name(prefix + name)
            lines.append(f"# HELP {sample} {metric.help or name}")
            lines.append(f"# TYPE {sample} {metric.kind}")
            for child in metric.children():
                if child._children and not child._labels and _is_untouched(child):
                    continue  # pure family node, mirrors snapshot()
                labels = dict(child._labels)
                if isinstance(child, Histogram):
                    cumulative = 0
                    for bound, count in child.bucket_counts():
                        cumulative += count
                        le = "+Inf" if bound is None else prometheus_value(bound)
                        lines.append(
                            f"{sample}_bucket"
                            f"{_prometheus_labels({**labels, 'le': le})} {cumulative}"
                        )
                    lines.append(
                        f"{sample}_sum{_prometheus_labels(labels)} "
                        f"{prometheus_value(child.sum)}"
                    )
                    lines.append(
                        f"{sample}_count{_prometheus_labels(labels)} {child.count}"
                    )
                else:
                    lines.append(
                        f"{sample}{_prometheus_labels(labels)} "
                        f"{prometheus_value(child.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def render_table(self) -> str:
        """Human-readable dump of every family and child."""
        lines: List[str] = []
        for name in self.names():
            metric = self._metrics[name]
            for child in metric.children():
                if child._children and not child._labels and _is_untouched(child):
                    continue
                key = child.name + child.label_suffix
                if isinstance(child, Histogram):
                    lines.append(
                        f"{key}  count={child.count}  sum={child.sum:.6g}  "
                        f"mean={child.mean:.6g}"
                    )
                    for bound, count in child.bucket_counts():
                        label = "+Inf" if bound is None else f"{bound:g}"
                        lines.append(f"    <= {label}: {count}")
                else:
                    lines.append(f"{key}  {child.value:g}")
        return "\n".join(lines)
