"""Run metrics: latency distributions, throughput, breakdowns."""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.registry import StreamingHistogram, nearest_rank
from repro.transactions import Outcome, Transaction


@dataclass(frozen=True)
class LatencySummary:
    """Summary statistics of a latency sample (milliseconds)."""

    count: int
    mean: float
    p50: float
    p90: float
    p95: float
    p99: float
    maximum: float

    @classmethod
    def of(cls, samples: Sequence[float]) -> "LatencySummary":
        if not samples:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        ordered = sorted(samples)
        count = len(ordered)
        return cls(
            count=count,
            mean=sum(ordered) / count,
            p50=ordered[nearest_rank(count, 0.50)],
            p90=ordered[nearest_rank(count, 0.90)],
            p95=ordered[nearest_rank(count, 0.95)],
            p99=ordered[nearest_rank(count, 0.99)],
            maximum=ordered[-1],
        )

    @classmethod
    def of_histogram(cls, histogram: StreamingHistogram) -> "LatencySummary":
        """Approximate summary from a streaming histogram.

        Count, mean, and maximum are exact; percentiles carry the
        histogram's bucket error (half a bucket's relative width).
        """
        if histogram.count == 0:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return cls(
            count=histogram.count,
            mean=histogram.mean,
            p50=histogram.quantile(0.50),
            p90=histogram.quantile(0.90),
            p95=histogram.quantile(0.95),
            p99=histogram.quantile(0.99),
            maximum=histogram.maximum,
        )


#: (family prefix, Metrics attribute, counter names, gauge names) of the
#: harness-folded counter dicts :meth:`Metrics.to_registry` exports.
_FOLDED = (
    ("selector", "selector_counters",
     ("updates_routed", "updates_remastered", "remaster_operations",
      "partitions_moved"), ()),
    ("detector", "detector_counters",
     ("suspicion_episodes", "false_suspicions", "hedges_launched", "hedge_wins"),
     ("suspected_sites", "detection_latency_ms", "quarantine_ms")),
    ("openloop", "open_loop_counters",
     ("offered", "admitted", "shed", "taken", "completed"),
     ("in_flight", "queued_end", "peak_depth", "mean_depth", "modeled_clients")),
)


def _fold_samples(histogram: StreamingHistogram,
                  samples: Union[List[float], StreamingHistogram]) -> None:
    """Stream an exact sample list, or merge a streaming histogram, into
    ``histogram``."""
    if isinstance(samples, StreamingHistogram):
        histogram.merge(samples)
    else:
        for sample in samples:
            histogram.record(sample)


def rate_series(times, bucket_ms: float, start: float, end: float) -> List[Tuple[float, float]]:
    """(bucket start, events per second) over ``[start, end)``.

    Buckets are ``bucket_ms`` wide; when the window is not a whole
    number of them, the last one ends at ``end`` and is divided by its
    own width. A window that is whole up to float rounding gets whole
    buckets only. Empty for an empty window or a non-positive width.
    """
    if bucket_ms <= 0 or end <= start:
        return []
    span = (end - start) / bucket_ms
    whole = math.isclose(span, round(span))
    counts = [0] * (round(span) if whole else math.ceil(span))
    last = len(counts) - 1
    for time in times:
        if start <= time < end:
            counts[min(int((time - start) // bucket_ms), last)] += 1
    widths = [bucket_ms] * len(counts)
    if not whole:
        widths[last] = end - (start + last * bucket_ms)
    return [
        (start + index * bucket_ms, count / (width / 1000.0))
        for index, (count, width) in enumerate(zip(counts, widths))
    ]


class Metrics:
    """Collects per-transaction measurements during a run.

    With ``streaming=True``, latency samples stream into log-bucketed
    histograms instead of per-type Python lists: constant memory for
    arbitrarily long runs, at the price of small (bucket-width) error
    in the reported percentiles. The default keeps exact sample lists,
    so existing results are unchanged.
    """

    #: SLO engine observing the record stream (attached by the harness
    #: for SLO-monitored runs, detached again before the run returns).
    #: Class-level default so unmonitored runs pay one ``is None``
    #: check per record and pickled instances never carry an engine.
    slo_engine = None
    #: Per-site end-of-run admission-queue state of an open-loop run
    #: ((site, depth, shed, offered) dicts) — folded by the harness,
    #: deliberately outside the fingerprinted ``open_loop_counters``.
    open_loop_sites: tuple = ()

    def __init__(self, streaming: bool = False):
        self.streaming = streaming
        self.latencies: Dict[str, Union[List[float], StreamingHistogram]] = {}
        #: Completion times of committed txns, 8 B each. The latency
        #: lists stay lists: summaries sort them, and sorting a column
        #: would box every float again.
        self.commit_times = array("d")
        #: Completion times of aborted txns (for availability timelines).
        self.abort_times = array("d")
        self.commits = 0
        self.remastered_txns = 0
        self.distributed_txns = 0
        self.phase_totals: Dict[str, float] = {}
        #: Aborted (non-committed) transactions by type.
        self.aborts: Dict[str, int] = {}
        #: Aborted transactions by reason ("conflict" / "timeout" /
        #: "site_crash"); outcomes without an explicit reason are the
        #: legacy optimistic-routing conflicts.
        self.aborts_by_reason: Dict[str, int] = {}
        #: Total retry attempts reported by aborted-and-retried txns.
        self.retries = 0
        #: Site-selector volume counters folded in by the harness at the
        #: end of a run (updates_routed / updates_remastered /
        #: remaster_operations / partitions_moved) — remaster *volume*,
        #: visible even in unobserved runs; empty for selector-less
        #: systems.
        self.selector_counters: Dict[str, int] = {}
        #: Failure-detector / hedging counters folded in by the harness
        #: for fault-injected runs (suspicion_episodes /
        #: false_suspicions / suspected_sites / hedges_launched /
        #: hedge_wins, plus detection_latency_ms / quarantine_ms when
        #: defined); empty without an installed injector.
        self.detector_counters: Dict[str, float] = {}
        #: Open-loop traffic counters folded in by the harness for
        #: open-loop runs (offered / offered_recorded / admitted / shed
        #: / taken / completed / peak_depth / mean_depth ... — see
        #: :meth:`repro.workloads.openloop.OpenLoopEngine.counters`);
        #: empty for closed-loop runs, which is what keeps closed-loop
        #: fingerprints unchanged.
        self.open_loop_counters: Dict[str, float] = {}
        #: Admission-queue waits (ms) of recorded open-loop arrivals —
        #: sample list, or a streaming histogram in streaming mode.
        self.admission_waits: Union[List[float], StreamingHistogram] = (
            StreamingHistogram("admission_wait") if streaming else []
        )

    def record(
        self,
        txn: Transaction,
        outcome: Outcome,
        latency: float,
        now: float,
    ) -> None:
        """Account one completed transaction (committed or aborted)."""
        if self.slo_engine is not None:
            self.slo_engine.observe_txn(txn, outcome, latency, now)
        self.retries += outcome.retries
        if not outcome.committed:
            self.aborts[txn.txn_type] = self.aborts.get(txn.txn_type, 0) + 1
            reason = outcome.abort_reason or "conflict"
            self.aborts_by_reason[reason] = self.aborts_by_reason.get(reason, 0) + 1
            self.abort_times.append(now)
            return
        self.commits += 1
        self.commit_times.append(now)
        if self.streaming:
            histogram = self.latencies.get(txn.txn_type)
            if histogram is None:
                histogram = self.latencies[txn.txn_type] = StreamingHistogram(
                    f"latency.{txn.txn_type}"
                )
            histogram.record(latency)
        else:
            self.latencies.setdefault(txn.txn_type, []).append(latency)
        if outcome.remastered:
            self.remastered_txns += 1
        if outcome.distributed:
            self.distributed_txns += 1
        accounted = 0.0
        for phase, duration in txn.timings.items():
            self.phase_totals[phase] = self.phase_totals.get(phase, 0.0) + duration
            accounted += duration
        # Anything not explicitly timed (queueing between phases).
        other = max(0.0, latency - accounted)
        self.phase_totals["other"] = self.phase_totals.get("other", 0.0) + other

    def record_admission_wait(self, wait_ms: float) -> None:
        """Account one recorded arrival's time in the admission queue.

        Open-loop latency is measured from arrival, so this wait is a
        *component* of recorded latency, kept separately because depth
        and wait are the saturation signals (docs/SCALE.md).
        """
        if self.streaming:
            self.admission_waits.record(wait_ms)
        else:
            self.admission_waits.append(wait_ms)

    # -- summaries -----------------------------------------------------------

    def admission_wait(self) -> LatencySummary:
        """Summary of recorded admission-queue waits (open-loop runs)."""
        if isinstance(self.admission_waits, StreamingHistogram):
            return LatencySummary.of_histogram(self.admission_waits)
        return LatencySummary.of(self.admission_waits)

    def admission_wait_total(self) -> float:
        """Total recorded admission wait (ms) — a stable scalar for
        fingerprints in exact mode and reports in either mode."""
        if isinstance(self.admission_waits, StreamingHistogram):
            return self.admission_waits.total
        return sum(self.admission_waits)

    def latency(self, txn_type: Optional[str] = None) -> LatencySummary:
        """Latency summary for one transaction type, or all combined."""
        if self.streaming:
            if txn_type is not None:
                histogram = self.latencies.get(txn_type)
                if histogram is None:
                    return LatencySummary.of(())
                return LatencySummary.of_histogram(histogram)
            merged: Optional[StreamingHistogram] = None
            for histogram in self.latencies.values():
                if merged is None:
                    merged = StreamingHistogram(
                        "latency", base=histogram.base, growth=histogram.growth
                    )
                merged.merge(histogram)
            if merged is None:
                return LatencySummary.of(())
            return LatencySummary.of_histogram(merged)
        if txn_type is not None:
            return LatencySummary.of(self.latencies.get(txn_type, ()))
        combined: List[float] = []
        for samples in self.latencies.values():
            combined.extend(samples)
        return LatencySummary.of(combined)

    def txn_types(self) -> List[str]:
        return sorted(self.latencies)

    def throughput(self, window_ms: float) -> float:
        """Committed transactions per simulated second."""
        if window_ms <= 0:
            return 0.0
        return self.commits / (window_ms / 1000.0)

    def breakdown(self) -> Dict[str, float]:
        """Phase -> fraction of total accounted latency (Figure 7)."""
        total = sum(self.phase_totals.values())
        if total <= 0:
            return {}
        return {
            phase: duration / total
            for phase, duration in sorted(self.phase_totals.items())
        }

    def remaster_fraction(self) -> float:
        """Fraction of committed txns that needed remastering/shipping."""
        if self.commits == 0:
            return 0.0
        return self.remastered_txns / self.commits

    def to_registry(self, registry) -> None:
        """Fold these metrics into a MetricsRegistry for Prometheus.

        Commit/abort/retry counts become counters (aborts labelled by
        transaction type and reason), phase totals a counter labelled
        by phase, the selector / detector / open-loop folds counters and
        gauges (queue state labelled by site), and per-type latencies
        ``repro_latency_ms`` histograms (exact sample lists are streamed
        into the standard log-bucketed geometry first, so both
        collection modes expose the same shape).
        """
        counter, gauge = registry.counter, registry.gauge
        for name in ("commits", "remastered_txns", "distributed_txns", "retries"):
            counter(f"repro_{name}_total").inc(getattr(self, name))
        for prefix, values, counters, gauges in _FOLDED:
            values = getattr(self, values)
            for name in counters:
                if name in values:
                    counter(f"repro_{prefix}_{name}_total").inc(values[name])
            for name in gauges:
                if name in values:
                    gauge(f"repro_{prefix}_{name}").set(values[name])
        for entry in self.open_loop_sites:
            site = {"site": entry["site"]}
            gauge("repro_openloop_queue_depth", site).set(entry["depth"])
            counter("repro_openloop_queue_shed_total", site).inc(entry["shed"])
        for family, label, values in (
            ("repro_aborts_total", "txn_type", self.aborts),
            ("repro_aborts_by_reason_total", "reason", self.aborts_by_reason),
            ("repro_phase_ms_total", "phase", self.phase_totals),
        ):
            for key, value in values.items():
                counter(family, {label: key}).inc(value)
        if self.admission_wait().count:
            _fold_samples(registry.histogram("repro_admission_wait_ms"),
                          self.admission_waits)
        for txn_type, samples in self.latencies.items():
            _fold_samples(
                registry.histogram("repro_latency_ms", {"txn_type": txn_type}),
                samples,
            )

    # -- aborts ---------------------------------------------------------------

    @property
    def abort_count(self) -> int:
        """Total aborted transactions recorded."""
        return sum(self.aborts.values())

    def abort_rate(self) -> float:
        """Fraction of recorded transactions that aborted."""
        total = self.commits + self.abort_count
        if total == 0:
            return 0.0
        return self.abort_count / total

    def abort_breakdown(self) -> List[Tuple[str, int]]:
        """(txn type, abort count) pairs, most aborted first."""
        return sorted(self.aborts.items(), key=lambda item: (-item[1], item[0]))
