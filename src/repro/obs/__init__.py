"""Simulation-native observability: tracing, metrics, timelines, export.

One :class:`Observability` object bundles the three instruments of an
observed run:

* :class:`~repro.obs.tracer.Tracer` — per-transaction span trees and
  instant events over the simulated clock;
* :class:`~repro.obs.registry.MetricsRegistry` — counters, gauges, and
  streaming log-bucketed histograms;
* :class:`~repro.obs.sampler.TimelineSampler` — periodic per-site
  timelines (CPU, lock depth, replication lag, 2PC in flight).

A fourth, separately attached instrument —
:class:`~repro.obs.slo.SloEngine` — watches the same transaction
stream through windowed SLO monitors and runtime invariant checks,
turning sustained breaches into an :class:`~repro.obs.slo.Incident`
ledger correlated against injected fault windows. Its no-op default is
:data:`~repro.obs.slo.NULL_SLO`.

The default everywhere is :data:`NULL_OBS`, whose tracer is a no-op and
whose sampler never starts: an unobserved run schedules no extra
simulation events and produces bit-identical results to a build without
this package. Protocol code reaches its observability handle through
the simulation environment (``env.obs``), so no constructor threading
is needed.

Design rationale, the full span/instant inventory, and the
zero-overhead guarantee are documented in DESIGN.md §6; the
determinism contract the no-op default upholds is §5, and the AST
guard enforcing it lives in ``tests/test_determinism_guard.py``. Hot
protocol paths check ``tracer.enabled`` once and skip span
construction entirely when unobserved (DESIGN.md §8).
"""

from repro.obs.attribution import (
    AttributionError,
    AttributionReport,
    TxnAttribution,
    diff_reports,
    render_waterfall,
)
from repro.obs.causal import (
    CATEGORIES,
    EDGE_KINDS,
    PathSegment,
    critical_path,
    path_categories,
)
from repro.obs.dashboard import render_dashboard, write_dashboard
from repro.obs.export import (
    flame_summary,
    reconcile_with_metrics,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.mastery import (
    NULL_LEDGER,
    CandidateScore,
    DecisionLedger,
    DecisionRecord,
    MastershipTimeline,
    NullLedger,
    OwnershipChange,
    OwnershipInterval,
    RateWindow,
    recompute_decision,
    render_decision,
)
from repro.obs.registry import Counter, Gauge, MetricsRegistry, StreamingHistogram
from repro.obs.sampler import Timeline, TimelineSampler, attach_cluster_probes
from repro.obs.slo import (
    DEFAULT_SLOS,
    NULL_SLO,
    Incident,
    NullSloEngine,
    SloEngine,
    SloSpec,
    quick_slos,
)
from repro.obs.tracer import (
    NULL_TRACER,
    EdgeRecord,
    InstantRecord,
    NullTracer,
    SpanNode,
    SpanRecord,
    Tracer,
    TxnRecord,
)

__all__ = [
    "CATEGORIES",
    "DEFAULT_SLOS",
    "EDGE_KINDS",
    "NULL_LEDGER",
    "NULL_OBS",
    "NULL_SLO",
    "NULL_TRACER",
    "AttributionError",
    "AttributionReport",
    "CandidateScore",
    "Counter",
    "DecisionLedger",
    "DecisionRecord",
    "EdgeRecord",
    "Gauge",
    "Incident",
    "InstantRecord",
    "MastershipTimeline",
    "MetricsRegistry",
    "NullLedger",
    "NullSloEngine",
    "NullTracer",
    "Observability",
    "OwnershipChange",
    "OwnershipInterval",
    "PathSegment",
    "RateWindow",
    "SloEngine",
    "SloSpec",
    "SpanNode",
    "SpanRecord",
    "StreamingHistogram",
    "Timeline",
    "TimelineSampler",
    "Tracer",
    "TxnAttribution",
    "TxnRecord",
    "attach_cluster_probes",
    "critical_path",
    "diff_reports",
    "flame_summary",
    "path_categories",
    "quick_slos",
    "reconcile_with_metrics",
    "recompute_decision",
    "render_dashboard",
    "render_decision",
    "render_waterfall",
    "write_dashboard",
    "to_chrome_trace",
    "to_jsonl",
    "write_chrome_trace",
    "write_jsonl",
]


class Observability:
    """Tracer + metrics registry + timeline sampler for one run."""

    def __init__(self, tracer=None, registry=None,
                 sample_interval_ms: float = 10.0):
        self.tracer = tracer if tracer is not None else Tracer()
        #: True when this run is actually being observed. Fixed here
        #: (``Tracer.enabled`` is a class constant): the network and
        #: 2PC read it per message with recorders OFF.
        self.enabled: bool = self.tracer.enabled
        self.registry = registry if registry is not None else MetricsRegistry()
        self.sampler = TimelineSampler(interval_ms=sample_interval_ms)

    @property
    def timelines(self):
        return self.sampler.timelines

    def observe_cluster(self, cluster) -> None:
        """Install the standard probes and start sampling (if enabled)."""
        if not self.enabled:
            return
        attach_cluster_probes(self.sampler, cluster, registry=self.registry)
        self.sampler.start(cluster.env)


#: Shared no-op handle: tracing disabled, sampler never started. Its
#: registry is real but unused by guarded call sites, so it stays empty.
NULL_OBS = Observability(tracer=NULL_TRACER)
