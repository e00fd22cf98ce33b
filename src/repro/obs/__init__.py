"""Simulation-native observability: tracing, timelines, recorders, export.

One :class:`Observability` object bundles the two instruments of an
observed run:

* :class:`~repro.obs.tracer.Tracer` — per-transaction span trees and
  instant events over the simulated clock;
* :class:`~repro.obs.sampler.TimelineSampler` — periodic per-site
  timelines (CPU, lock depth, replication lag, 2PC in flight).

Two separately attached recorders watch the same run:
:class:`~repro.obs.mastery.DecisionLedger` records every remaster
decision, and :class:`~repro.obs.slo.SloEngine` streams the
transactions through windowed SLO monitors and runtime invariant
checks, turning sustained breaches into an
:class:`~repro.obs.slo.Incident` ledger correlated against injected
fault windows. Either is off when its argument is None.

End-of-run totals reach Prometheus text one way: ``Metrics``,
``SloEngine`` and ``DecisionLedger`` each fold into a fresh
:class:`~repro.obs.registry.MetricsRegistry` (``to_registry``), whose
``to_prometheus`` is the only formatter.

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
    CandidateScore,
    DecisionLedger,
    DecisionRecord,
    MastershipTimeline,
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
    Incident,
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
    "NULL_OBS",
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
    """Tracer + timeline sampler for one run."""

    def __init__(self, tracer=None, sample_interval_ms: float = 10.0):
        self.tracer = tracer if tracer is not None else Tracer()
        #: True when this run is actually being observed. Fixed here
        #: (``Tracer.enabled`` is a class constant): 2PC reads it per
        #: transaction with recorders OFF.
        self.enabled: bool = self.tracer.enabled
        #: Distributed 2PC transactions currently in flight (bumped by
        #: the coordinators of an observed run; the ``2pc_inflight``
        #: timeline).
        self.inflight_2pc = 0
        self.sampler = TimelineSampler(interval_ms=sample_interval_ms)

    @property
    def timelines(self):
        return self.sampler.timelines

    def observe_cluster(self, cluster) -> None:
        """Install the standard probes and start sampling (if enabled)."""
        if not self.enabled:
            return
        attach_cluster_probes(self.sampler, cluster)
        self.sampler.add_probe("2pc_inflight", lambda: self.inflight_2pc)
        self.sampler.start(cluster.env)


#: Shared no-op handle: tracing disabled, sampler never started.
NULL_OBS = Observability(tracer=NULL_TRACER)
