"""Simulation-native observability: tracing, timelines, recorders, export.

One :class:`Observability` object bundles the two instruments of an
observed run: the :class:`~repro.obs.tracer.Tracer` (per-transaction
span trees and instant events over the simulated clock) and the
:class:`~repro.obs.sampler.TimelineSampler` (periodic per-site
timelines: CPU, lock depth, replication lag, 2PC in flight).

The default everywhere is :data:`NULL_OBS`, whose tracer is a no-op and
whose sampler never starts: an unobserved run schedules no extra
simulation events and produces bit-identical results to a build without
this package. Protocol code reaches its observability handle through
the simulation environment (``env.obs``), so no constructor threading
is needed.

This package exports only those two names, which every run imports.
The rest is imported from its defining module, by the runs that use it
(DESIGN.md §8, "Import floor"):

* :mod:`repro.obs.mastery` — the remaster ``DecisionLedger``;
* :mod:`repro.obs.slo` — the streaming ``SloEngine``, ``quick_slos``;
* :mod:`repro.obs.registry` — ``MetricsRegistry``, the one Prometheus
  formatter every recorder folds into (``to_registry``);
* :mod:`repro.obs.export` — Chrome-trace / JSONL writers and the
  trace-vs-metrics reconciliation;
* :mod:`repro.obs.causal` / :mod:`repro.obs.attribution` — critical
  paths and latency budgets; :mod:`repro.obs.dashboard` — HTML.

Design rationale, the full span/instant inventory, and the
zero-overhead guarantee are documented in DESIGN.md §6; the
determinism contract the no-op default upholds is §5, and the AST
guard enforcing it lives in ``tests/test_determinism_guard.py``.
"""

from repro.obs.sampler import TimelineSampler, attach_cluster_probes
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["NULL_OBS", "Observability"]


class Observability:
    """Tracer + timeline sampler for one run."""

    def __init__(self, tracer=None):
        self.tracer = tracer if tracer is not None else Tracer()
        #: True when this run is actually being observed. Fixed here
        #: (``Tracer.enabled`` is a class constant): 2PC reads it per
        #: transaction with recorders OFF.
        self.enabled: bool = self.tracer.enabled
        #: Distributed 2PC transactions currently in flight (bumped by
        #: the coordinators of an observed run; the ``2pc_inflight``
        #: timeline).
        self.inflight_2pc = 0
        self.sampler = TimelineSampler()

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
