"""Tests for counters, gauges, streaming histograms, and the one
Prometheus renderer every recorder folds into."""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import (
    Counter,
    Gauge,
    MetricsRegistry,
    StreamingHistogram,
    nearest_rank,
)
from repro.bench.metrics import LatencySummary, Metrics
from repro.transactions import Outcome, Transaction


class TestCounterGauge:
    def test_counter_monotone(self):
        counter = Counter("commits")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_levels(self):
        gauge = Gauge("inflight")
        assert gauge.value == 0.0
        gauge.set(7.5)
        assert gauge.value == 7.5


def _sorted_walk_quantile(histogram, walk, q):
    """``StreamingHistogram.quantile`` over the bucket indices ``walk``."""
    if histogram.count == 0:
        return 0.0
    rank = min(histogram.count - 1, max(0, round(q * (histogram.count - 1))))
    seen = histogram._underflow
    if rank < seen:
        return min(histogram.minimum, histogram.base)
    for index in walk:
        seen += histogram._buckets[index]
        if rank < seen:
            low = histogram.base * histogram.growth ** index
            high = low * histogram.growth
            return min(histogram.maximum, max(histogram.minimum, (low + high) / 2.0))
    return histogram.maximum


class TestStreamingHistogram:
    def test_rejects_bad_geometry_and_samples(self):
        with pytest.raises(ValueError):
            StreamingHistogram("h", base=0.0)
        with pytest.raises(ValueError):
            StreamingHistogram("h", growth=1.0)
        histogram = StreamingHistogram("h")
        with pytest.raises(ValueError):
            histogram.record(-1.0)
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_empty(self):
        histogram = StreamingHistogram("h")
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.quantile(0.5) == 0.0
        assert histogram.bucket_counts() == []

    def test_exact_moments(self):
        histogram = StreamingHistogram("h")
        for value in (1.0, 2.0, 3.0, 10.0):
            histogram.record(value)
        assert histogram.count == 4
        assert histogram.total == 16.0
        assert histogram.mean == 4.0
        assert histogram.minimum == 1.0
        assert histogram.maximum == 10.0

    def test_underflow_bucket(self):
        histogram = StreamingHistogram("h", base=1.0)
        histogram.record(0.0)
        histogram.record(0.5)
        histogram.record(2.0)
        assert histogram.count == 3
        # The two sub-base samples land in the underflow bucket, whose
        # representative is min(minimum, base).
        assert histogram.quantile(0.0) == 0.0
        pairs = histogram.bucket_counts()
        assert pairs[0] == (0.0, 2)

    def test_quantiles_within_bucket_error(self):
        """Any quantile is within one bucket's relative width of exact."""
        growth = 1.05
        histogram = StreamingHistogram("h", growth=growth)
        rng = random.Random(42)
        samples = [rng.expovariate(1 / 5.0) + 0.01 for _ in range(5000)]
        for value in samples:
            histogram.record(value)
        ordered = sorted(samples)
        for q in (0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 1.0):
            exact = ordered[nearest_rank(len(ordered), q)]
            approx = histogram.quantile(q)
            assert approx == pytest.approx(exact, rel=growth - 1.0)

    def test_quantile_clamped_to_observed_range(self):
        histogram = StreamingHistogram("h")
        histogram.record(3.0)
        assert histogram.quantile(0.0) == 3.0
        assert histogram.quantile(1.0) == 3.0

    def test_boundary_values_bucket_once(self):
        histogram = StreamingHistogram("h", base=1.0, growth=2.0)
        # Exact bucket boundaries: 1, 2, 4 -> indices 0, 1, 2.
        for value in (1.0, 2.0, 4.0):
            histogram.record(value)
        assert sum(count for _, count in histogram.bucket_counts()) == 3
        lows = [low for low, _ in histogram.bucket_counts()]
        assert lows == [1.0, 2.0, 4.0]

    def test_every_default_boundary_opens_its_own_bucket(self):
        """``base · 1.05^k`` for k < 600 lands in bucket k; before the
        upward guard, 245 of them landed in bucket k − 1."""
        for k in range(600):
            histogram = StreamingHistogram("h")
            value = histogram.base * histogram.growth ** k
            histogram.record(value)
            assert histogram.bucket_counts() == [(value, 1)], k

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([(1e-3, 1.05), (1.0, 2.0), (0.5, 1.1), (3e-2, 1.01)]),
           st.data())
    def test_every_sample_lies_inside_its_bucket(self, geometry, data):
        base, growth = geometry
        value = data.draw(st.one_of(
            st.floats(min_value=base, max_value=1e9, allow_nan=False),
            st.integers(0, 600).map(lambda k: base * growth ** k),
        ))
        histogram = StreamingHistogram("h", base=base, growth=growth)
        histogram.record(value)
        (index,) = histogram._buckets
        assert base * growth ** index <= value < base * growth ** (index + 1)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.floats(0.0, 1e4, allow_nan=False), max_size=40),
                    min_size=1, max_size=4),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    def test_quantile_and_buckets_equal_a_sorted_walk(self, streams, fractions):
        """Indices kept sorted on arrival (merges included) read the
        same as sorting every bucket index at each call."""
        histogram = StreamingHistogram("h")
        for stream in streams:
            part = StreamingHistogram("part")
            for value in stream:
                part.record(value)
                histogram.record(value)
            histogram.merge(part)
        walk = sorted(histogram._buckets)
        assert histogram.bucket_counts() == (
            [(0.0, histogram._underflow)] if histogram._underflow else []
        ) + [(histogram.base * histogram.growth ** i, histogram._buckets[i])
             for i in walk]
        for q in fractions:
            assert histogram.quantile(q) == _sorted_walk_quantile(histogram, walk, q)

    def test_merge(self):
        left = StreamingHistogram("l")
        right = StreamingHistogram("r")
        for value in (1.0, 2.0):
            left.record(value)
        for value in (3.0, 4.0):
            right.record(value)
        left.merge(right)
        assert left.count == 4
        assert left.total == 10.0
        assert left.minimum == 1.0
        assert left.maximum == 4.0
        with pytest.raises(ValueError):
            left.merge(StreamingHistogram("x", growth=2.0))

    def test_latency_summary_of_histogram(self):
        histogram = StreamingHistogram("h")
        values = [float(v) for v in range(1, 101)]
        for value in values:
            histogram.record(value)
        summary = LatencySummary.of_histogram(histogram)
        exact = LatencySummary.of(values)
        assert summary.count == exact.count
        assert summary.mean == pytest.approx(exact.mean)
        assert summary.maximum == exact.maximum
        assert summary.p50 == pytest.approx(exact.p50, rel=0.05)
        assert summary.p99 == pytest.approx(exact.p99, rel=0.05)
        assert LatencySummary.of_histogram(StreamingHistogram("e")).count == 0


class TestHistogramQuantileProperty:
    """The documented error band, as a property over arbitrary samples.

    The class docstring promises any quantile estimate is within one
    bucket's relative width of the exact sample quantile. That holds
    for samples at or above ``base`` (everything below collapses into
    the underflow bucket), so the strategy draws from [base, 1e7].
    """

    @settings(max_examples=200, deadline=None)
    @given(
        samples=st.lists(
            st.floats(min_value=1e-3, max_value=1e7,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=400,
        ),
        growth=st.sampled_from([1.05, 1.1, 1.5, 2.0]),
        q=st.sampled_from([0.50, 0.99]),
    )
    def test_p50_p99_within_documented_band(self, samples, growth, q):
        histogram = StreamingHistogram("h", growth=growth)
        for value in samples:
            histogram.record(value)
        exact = sorted(samples)[nearest_rank(len(samples), q)]
        approx = histogram.quantile(q)
        # One bucket's relative width; the midpoint estimate is within
        # half of that, the other half is slack for boundary rounding.
        assert abs(approx - exact) <= (growth - 1.0) * exact + 1e-12
        # Clamping keeps estimates inside the observed range.
        assert histogram.minimum <= approx <= histogram.maximum


def exposition(recorder, labels=None, **fold):
    """Prometheus text of ``recorder`` through its registry fold."""
    registry = MetricsRegistry()
    recorder.to_registry(registry, **fold)
    return registry.to_prometheus(labels)


def sorted_digest(text):
    """Digest of the exposition's sorted lines: sample values pinned,
    family order free."""
    return hashlib.sha256("\n".join(sorted(text.splitlines())).encode()).hexdigest()


def parse_exposition(text):
    """(name, labels-string, value) triples for non-comment lines."""
    rows = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        metric, value = line.rsplit(" ", 1)
        if "{" in metric:
            name, labels = metric.split("{", 1)
            labels = "{" + labels
        else:
            name, labels = metric, ""
        rows.append((name, labels, value))
    return rows


def bucket_series(text, metric):
    """(le, cumulative-count) pairs of one metric's bucket samples."""
    pairs = []
    for name, labels, value in parse_exposition(text):
        if name != f"{metric}_bucket":
            continue
        le = labels.split('le="', 1)[1].split('"', 1)[0]
        pairs.append((math.inf if le == "+Inf" else float(le), int(value)))
    return pairs


class TestPrometheusExposition:
    def test_empty_registry_renders_nothing(self):
        assert MetricsRegistry().to_prometheus() == ""

    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("commits").inc(3)
        registry.gauge("inflight").set(2.5)
        text = registry.to_prometheus()
        assert "# TYPE commits counter\ncommits 3\n" in text
        assert "# TYPE inflight gauge\ninflight 2.5\n" in text
        assert text.endswith("\n")

    def test_metric_names_sanitized(self):
        registry = MetricsRegistry()
        registry.counter("2pc.started").inc(1)
        text = registry.to_prometheus()
        assert "_2pc_started 1" in text
        assert "2pc.started" not in text

    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(1)
        text = registry.to_prometheus({
            "path": 'C:\\temp\\"x"',
            "note": "line1\nline2",
        })
        assert '\\\\' in text  # backslash escaped
        assert '\\"x\\"' in text  # quotes escaped
        assert '\\nline2' in text  # newline escaped, not literal
        assert "\nline2" not in text.replace("\\n", "")
        # Labels are sorted for deterministic output.
        assert text.index('note="') < text.index('path="')

    def test_histogram_buckets_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat")
        for value in (0.0005, 1.5, 1.6, 3.0, 100.0):
            histogram.record(value)
        text = registry.to_prometheus()
        pairs = bucket_series(text, "lat")
        les = [le for le, _ in pairs]
        counts = [count for _, count in pairs]
        assert les == sorted(les)
        assert les[-1] == math.inf
        assert counts == sorted(counts)  # non-decreasing: cumulative
        assert counts[0] == 1  # the 0.0005 underflow sample, under le=base
        assert counts[-1] == 5
        rows = dict(
            (name, value) for name, _, value in parse_exposition(text)
        )
        assert rows["lat_count"] == "5"
        assert float(rows["lat_sum"]) == pytest.approx(106.1005)

    def test_bucket_upper_bounds_cover_samples(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat")
        samples = [0.002, 0.5, 7.7, 123.0]
        for value in samples:
            histogram.record(value)
        pairs = bucket_series(registry.to_prometheus(), "lat")
        # Every sample is <= some finite bucket's upper bound whose
        # cumulative count includes it.
        for sample in samples:
            covering = [count for le, count in pairs if le >= sample]
            assert covering, sample
            assert covering[0] >= 1


class TestPrometheusEdgeCases:
    def test_labels_on_an_empty_registry_render_nothing(self):
        # Labels decorate samples; they must not fabricate any.
        assert MetricsRegistry().to_prometheus({"system": "dynamast"}) == ""

    def test_literal_backslash_n_differs_from_real_newline(self):
        # A value containing backslash+n and one containing an actual
        # newline must stay distinguishable after escaping: the former
        # becomes \\n (escaped backslash, literal n), the latter \n.
        registry = MetricsRegistry()
        registry.counter("c").inc(1)
        literal = registry.to_prometheus({"v": "a\\nb"})
        newline = registry.to_prometheus({"v": "a\nb"})
        assert literal != newline
        assert 'v="a\\\\nb"' in literal
        assert 'v="a\\nb"' in newline
        assert "\n".join((literal, newline)).count("a") == 2  # one line each

    def test_registered_but_untouched_instruments_expose_zero(self):
        # A zero sample is a measurement; a missing series is not.
        registry = MetricsRegistry()
        registry.counter("commits")
        registry.gauge("inflight")
        text = registry.to_prometheus()
        assert "commits 0" in text
        assert "inflight 0" in text

    def test_never_recorded_histogram_still_exposes_a_schema(self):
        registry = MetricsRegistry()
        registry.histogram("lat")
        rows = parse_exposition(registry.to_prometheus())
        values = {(name, labels): value for name, labels, value in rows}
        # No finite buckets (nothing recorded, underflow suppressed),
        # but the +Inf bucket, sum, and count must still be present.
        assert values[("lat_bucket", '{le="+Inf"}')] == "0"
        assert float(values[("lat_sum", "")]) == 0.0
        assert values[("lat_count", "")] == "0"
        bucket_lines = [name for name, _, _ in rows if name == "lat_bucket"]
        assert bucket_lines == ["lat_bucket"]

    def test_le_merges_and_sorts_with_caller_labels(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat")
        histogram.record(0.0005)   # underflow bucket at le=base
        histogram.record(3.0)
        text = registry.to_prometheus({"zz_site": "0", "aa_run": 'q"x'})
        for name, labels, _ in parse_exposition(text):
            if name != "lat_bucket":
                continue
            # le slots into the sorted label list, escaping intact.
            assert labels.startswith('{aa_run="q\\"x",le="')
            assert labels.endswith('zz_site="0"}')
        pairs = bucket_series(text, "lat")
        assert pairs[0][0] == 1e-3  # underflow rendered at le=base
        assert [count for _, count in pairs] == sorted(
            count for _, count in pairs
        )
        assert pairs[-1] == (math.inf, 2)

    def test_underflow_only_histogram_keeps_cumulative_consistent(self):
        registry = MetricsRegistry()
        registry.histogram("lat").record(0.00025)
        pairs = bucket_series(registry.to_prometheus(), "lat")
        assert pairs == [(1e-3, 1), (math.inf, 1)]

    def test_bucket_bounds_are_each_lower_bound_times_growth(self):
        # ``lower * growth`` and ``base * growth ** (index + 1)`` are
        # different floats for many indices; the renderer uses the
        # former, the formula every pinned exposition was taken with.
        histogram = StreamingHistogram("lat")
        for index in range(600):
            histogram.record(1e-3 * 1.05 ** index * 1.01)
        registry = MetricsRegistry()
        registry.histogram("lat").merge(histogram)
        les = [le for le, _ in bucket_series(registry.to_prometheus(), "lat")]
        assert les[:-1] == [lower * 1.05 for lower, _ in histogram.bucket_counts()]


class TestLabelledSeries:
    def test_series_of_one_family_share_one_type_line(self):
        registry = MetricsRegistry()
        registry.counter("aborts", {"txn_type": "rmw"}).inc(2)
        registry.counter("aborts", {"txn_type": "scan"}).inc(1)
        registry.counter("commits").inc(5)
        text = registry.to_prometheus({"system": "dynamast"})
        assert text.count("# TYPE aborts counter") == 1
        assert 'aborts{system="dynamast",txn_type="rmw"} 2' in text
        assert 'aborts{system="dynamast",txn_type="scan"} 1' in text
        assert text.index("# TYPE aborts") < text.index("# TYPE commits")

    def test_labels_identify_the_series(self):
        registry = MetricsRegistry()
        assert registry.gauge("depth", {"site": 0}) is registry.gauge(
            "depth", {"site": "0"})
        assert registry.gauge("depth", {"site": 0}) is not registry.gauge("depth")
        assert registry.histogram("lat", {"a": "1", "b": "2"}) is registry.histogram(
            "lat", {"b": "2", "a": "1"})

    def test_a_series_label_overrides_a_caller_label(self):
        registry = MetricsRegistry()
        registry.counter("c", {"site": "3"}).inc()
        assert registry.to_prometheus({"site": "all"}) == (
            '# TYPE c counter\nc{site="3"} 1\n')

    def test_labelled_histograms_render_per_series(self):
        registry = MetricsRegistry()
        registry.histogram("lat", {"txn_type": "a"}).record(2.0)
        registry.histogram("lat", {"txn_type": "b"}).record(3.0)
        rows = parse_exposition(registry.to_prometheus())
        counts = {labels: value for name, labels, value in rows
                  if name == "lat_count"}
        assert counts == {'{txn_type="a"}': "1", '{txn_type="b"}': "1"}


class TestMetricsToPrometheus:
    #: Sorted-line digest of ``filled()`` under ``{"system": "dynamast"}``
    #: as the deleted ``Metrics.to_prometheus`` rendered it (exact and
    #: streaming modes alike).
    FILLED = "922d9d7b753e99913b2d00124e503b4b8cf86fca1a5ceaa4f7b9650ea7a6179a"

    def make_txn(self, kind="rmw"):
        return Transaction(kind, 0, write_set=(("t", 1),))

    def filled(self, streaming=False):
        metrics = Metrics(streaming=streaming)
        metrics.record(self.make_txn(), Outcome(True, remastered=True), 2.5, 10.0)
        metrics.record(self.make_txn("read"), Outcome(True), 7.0, 11.0)
        metrics.record(
            self.make_txn(), Outcome(False, retries=1, abort_reason="timeout"),
            1.0, 12.0,
        )
        return metrics

    def test_counters_and_labels(self):
        text = exposition(self.filled(), {"system": "dynamast"})
        rows = parse_exposition(text)
        values = {(name, labels): value for name, labels, value in rows}
        assert values[("repro_commits_total", '{system="dynamast"}')] == "2"
        assert values[(
            "repro_aborts_by_reason_total",
            '{reason="timeout",system="dynamast"}',
        )] == "1"

    def test_one_type_line_per_metric(self):
        text = exposition(self.filled())
        type_lines = [line for line in text.splitlines()
                      if line.startswith("# TYPE")]
        assert len(type_lines) == len(set(type_lines))
        assert "# TYPE repro_latency_ms histogram" in type_lines

    def test_latency_histogram_cumulative_per_type(self):
        text = exposition(self.filled())
        for txn_type in ("rmw", "read"):
            rows = [
                (name, labels, value)
                for name, labels, value in parse_exposition(text)
                if f'txn_type="{txn_type}"' in labels
            ]
            counts = [int(value) for name, _, value in rows
                      if name == "repro_latency_ms_bucket"]
            assert counts == sorted(counts)
            final = [value for name, _, value in rows
                     if name == "repro_latency_ms_count"]
            assert counts[-1] == int(final[0]) == 1

    def test_streaming_and_exact_modes_agree(self):
        exact = exposition(self.filled(streaming=False), {"seed": "3"})
        streaming = exposition(self.filled(streaming=True), {"seed": "3"})
        assert exact == streaming

    def test_empty_metrics(self):
        text = exposition(Metrics())
        assert "repro_commits_total 0" in text
        assert "repro_latency_ms" not in text

    @pytest.mark.parametrize("streaming", [False, True])
    def test_exposition_is_pinned(self, streaming):
        text = exposition(self.filled(streaming), {"system": "dynamast"})
        assert sorted_digest(text) == self.FILLED


class TestMetricsRegistry:
    def test_get_or_create_identity(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")
