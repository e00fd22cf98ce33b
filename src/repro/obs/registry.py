"""Counters, gauges, and streaming log-bucketed histograms.

:class:`StreamingHistogram` keeps O(buckets) state instead of every
sample — streaming-mode latencies and per-site RTTs use it, so a long
simulated run no longer accumulates unbounded Python lists. Buckets
grow geometrically, so any quantile estimate is within one bucket's
relative width of the exact sample quantile. :class:`MetricsRegistry`
is the Prometheus text renderer that end-of-run folds write into.
"""

from __future__ import annotations

import math
import re
from bisect import insort
from typing import Dict, List, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "StreamingHistogram",
    "nearest_rank",
]

_NAME_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def nearest_rank(count: int, q: float) -> int:
    """Index of the ``q``-quantile among ``count`` sorted samples.

    The nearest rank ``round(q * (count - 1))``, clamped: the one rule
    behind every percentile the repo reports (latency summaries, SLO
    windows, attribution budgets and these histograms' estimates).
    """
    return min(count - 1, max(0, round(q * (count - 1))))


def _prometheus_name(name: str) -> str:
    """Sanitize a metric name for the text exposition format.

    Valid characters are ``[a-zA-Z_:][a-zA-Z0-9_:]*``; anything else
    becomes an underscore, and a leading digit gets one prepended.
    """
    sanitized = _NAME_INVALID.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _escape_label_value(value: str) -> str:
    """Escape a label value: backslash, double-quote, and newline."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_labels(labels: Optional[Mapping[str, str]]) -> str:
    if not labels:
        return ""
    parts = [
        f'{_prometheus_name(key)}="{_escape_label_value(str(value))}"'
        for key, value in sorted(labels.items())
    ]
    return "{" + ",".join(parts) + "}"


def _merge_labels(base: Optional[Mapping[str, str]],
                  extra: Dict[str, str]) -> Dict[str, str]:
    merged = dict(base) if base else {}
    merged.update(extra)
    return merged


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value)) if isinstance(value, float) else str(value)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge:
    """An instantaneous level (e.g. a mastering run's locality share)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class StreamingHistogram:
    """A log-bucketed histogram of non-negative samples.

    Bucket ``i`` covers ``[base * growth**i, base * growth**(i + 1))``;
    samples below ``base`` land in a dedicated underflow bucket. With
    the default ``growth`` of 1.05, any quantile estimate is within
    ~2.5% (half a bucket's relative width) of the exact value, while a
    million samples cost a few hundred integers of memory.
    """

    __slots__ = ("name", "base", "growth", "_log_growth", "_buckets",
                 "_indices", "_underflow", "count", "total", "minimum",
                 "maximum")

    def __init__(self, name: str, base: float = 1e-3, growth: float = 1.05):
        if base <= 0 or growth <= 1.0:
            raise ValueError("need base > 0 and growth > 1")
        self.name = name
        self.base = base
        self.growth = growth
        self._log_growth = math.log(growth)
        self._buckets: Dict[int, int] = {}
        #: The keys of ``_buckets``, kept sorted as new ones appear.
        self._indices: List[int] = []
        self._underflow = 0
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = 0.0

    def record(self, value: float) -> None:
        """Stream one sample into the histogram."""
        if value < 0:
            raise ValueError(f"negative sample {value} in histogram {self.name}")
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if value < self.base:
            self._underflow += 1
            return
        index = int(math.log(value / self.base) / self._log_growth)
        # The log may round across a bucket boundary either way; the
        # bounds themselves decide.
        if value < self.base * self.growth ** index:
            index -= 1
        elif value >= self.base * self.growth ** (index + 1):
            index += 1
        self._count_bucket(index, 1)

    def _count_bucket(self, index: int, count: int) -> None:
        buckets = self._buckets
        held = buckets.get(index)
        if held is None:
            insort(self._indices, index)
            buckets[index] = count
        else:
            buckets[index] = held + count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (midpoint of the holding bucket)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile fraction out of range: {q}")
        if self.count == 0:
            return 0.0
        rank = nearest_rank(self.count, q)
        seen = self._underflow
        if rank < seen:
            return min(self.minimum, self.base)
        buckets = self._buckets
        for index in self._indices:
            seen += buckets[index]
            if rank < seen:
                low = self.base * self.growth ** index
                high = low * self.growth
                return min(self.maximum, max(self.minimum, (low + high) / 2.0))
        return self.maximum

    def merge(self, other: "StreamingHistogram") -> None:
        """Fold ``other``'s samples into this histogram (same geometry)."""
        if other.base != self.base or other.growth != self.growth:
            raise ValueError("cannot merge histograms with different buckets")
        self.count += other.count
        self.total += other.total
        self._underflow += other._underflow
        if other.count:
            self.minimum = min(self.minimum, other.minimum)
            self.maximum = max(self.maximum, other.maximum)
        for index, count in other._buckets.items():
            self._count_bucket(index, count)

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """(bucket lower bound, count) pairs, for export."""
        pairs = []
        if self._underflow:
            pairs.append((0.0, self._underflow))
        for index in self._indices:
            pairs.append((self.base * self.growth ** index, self._buckets[index]))
        return pairs


#: One series of a family: (family name, sorted (label, value) pairs).
Series = Tuple[str, Tuple[Tuple[str, str], ...]]


def _series(store: Dict[Series, object], name: str,
            labels: Optional[Mapping[str, object]], make):
    key = (name, tuple(sorted((k, str(v)) for k, v in labels.items()))
           if labels else ())
    instrument = store.get(key)
    if instrument is None:
        instrument = store[key] = make(name)
    return instrument


def _histogram_lines(metric: str, labels: Dict[str, str],
                     histogram: StreamingHistogram) -> List[str]:
    """Cumulative ``le`` buckets (each bucket's ``lower * growth``; the
    underflow bucket at ``base``), ``+Inf``, ``_sum`` and ``_count``."""
    lines = []
    cumulative = 0
    for lower, count in histogram.bucket_counts():
        cumulative += count
        upper = histogram.base if lower == 0.0 else lower * histogram.growth
        bucket = _merge_labels(labels, {"le": _format_value(upper)})
        lines.append(f"{metric}_bucket{_format_labels(bucket)} {cumulative}")
    inf_bucket = _merge_labels(labels, {"le": "+Inf"})
    lines.append(f"{metric}_bucket{_format_labels(inf_bucket)} {histogram.count}")
    lines.append(f"{metric}_sum{_format_labels(labels)} "
                 f"{_format_value(histogram.total)}")
    lines.append(f"{metric}_count{_format_labels(labels)} {histogram.count}")
    return lines


class MetricsRegistry:
    """Counters, gauges, and histograms rendered as Prometheus text.

    The one Prometheus builder: recorders fold their end-of-run totals
    into a fresh registry (``Metrics.to_registry``,
    ``SloEngine.to_registry``, ``DecisionLedger.to_registry``) and
    :meth:`to_prometheus` formats them. An instrument is one series —
    a family name plus optional labels (``{"txn_type": "rmw"}``);
    series of one family share a single ``# TYPE`` line.
    """

    def __init__(self):
        self.counters: Dict[Series, Counter] = {}
        self.gauges: Dict[Series, Gauge] = {}
        self.histograms: Dict[Series, StreamingHistogram] = {}

    def counter(self, name: str,
                labels: Optional[Mapping[str, object]] = None) -> Counter:
        return _series(self.counters, name, labels, Counter)

    def gauge(self, name: str,
              labels: Optional[Mapping[str, object]] = None) -> Gauge:
        return _series(self.gauges, name, labels, Gauge)

    def histogram(self, name: str,
                  labels: Optional[Mapping[str, object]] = None) -> StreamingHistogram:
        return _series(self.histograms, name, labels, StreamingHistogram)

    def to_prometheus(self, labels: Optional[Mapping[str, str]] = None) -> str:
        """Render every series in Prometheus text exposition format.

        Families are sorted by name within each kind (counters, gauges,
        histograms); a histogram renders cumulative ``_bucket{le=...}``
        samples over its log-bucket upper bounds, a ``+Inf`` bucket, and
        ``_sum`` / ``_count``. ``labels`` (e.g. ``{"system":
        "dynamast", "seed": "3"}``) are attached to every sample, with
        values escaped per the format (backslash, quote, newline).
        """
        lines: List[str] = []
        for kind, store in (("counter", self.counters), ("gauge", self.gauges),
                            ("histogram", self.histograms)):
            family = None
            for (name, series), instrument in sorted(store.items()):
                metric = _prometheus_name(name)
                if metric != family:
                    family = metric
                    lines.append(f"# TYPE {metric} {kind}")
                merged = _merge_labels(labels, dict(series))
                if kind == "histogram":
                    lines.extend(_histogram_lines(metric, merged, instrument))
                else:
                    lines.append(f"{metric}{_format_labels(merged)} "
                                 f"{_format_value(instrument.value)}")
        return "\n".join(lines) + "\n" if lines else ""
