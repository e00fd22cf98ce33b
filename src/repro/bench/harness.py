"""Assemble and drive one benchmark run.

This module is one of the two blessed wall-clock readers in
``src/repro`` (the other is :mod:`repro.bench.perf`): host time is
forbidden inside simulation code — the simulated clock is ``env.now`` —
but the harness must measure how long the host took to execute a run.
The measurements live on :class:`RunResult` as ``wall_clock_s``,
``events_processed`` and ``peak_rss_kb`` and are never fed back into
the simulation, so they cannot perturb simulated results
(:func:`run_fingerprint` excludes them by construction).
"""

from __future__ import annotations

import json
import resource
import time

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.metrics import LatencySummary, Metrics
from repro.core.strategy import StrategyWeights
from repro.obs import NULL_OBS, Observability
from repro.obs.sampler import Timeline
from repro.sim.config import ClusterConfig
from repro.sim.rand import sha256
from repro.systems import Cluster, build_system
from repro.systems.base import System
from repro.transactions import restart_txn_ids
from repro.workloads.base import Workload

if TYPE_CHECKING:  # recorders load only when a run attaches one
    from repro.obs.mastery import DecisionLedger
    from repro.obs.slo import SloEngine

#: Systems that maintain replicas at every site.
REPLICATED_SYSTEMS = {"dynamast", "single-master", "multi-master"}
ALL_SYSTEMS = ("dynamast", "single-master", "multi-master", "partition-store", "leap")


@dataclass
class RunResult:
    """One finished run: what it measured and what its recorders kept.

    A live result (from :func:`run_benchmark`) also holds the run's
    ``obs`` and ``system``; :meth:`portable` drops those two, and what
    is left pickles and keeps no cluster alive.
    """

    system_name: str
    workload_name: str
    num_clients: int
    duration_ms: float
    warmup_ms: float
    metrics: Metrics
    #: Committed transactions per simulated second (post-warmup).
    throughput: float
    #: Fraction of update txns the site selector had to remaster
    #: (DynaMast family) — the paper's <3% claim (§VI-B7).
    remaster_rate: float
    #: Fraction of update requests routed to each site (Fig. 5a).
    route_fractions: List[float]
    #: Bytes on the wire by category (client / replication / remaster /
    #: 2pc / ship) — the Appendix D traffic analysis.
    traffic_bytes: Dict[str, int]
    #: Per-site CPU utilization over the run.
    site_utilization: List[float]
    #: Fraction of recorded (post-warmup) transactions that aborted.
    abort_rate: float = 0.0
    #: Aborted transactions by type.
    aborts_by_type: Dict[str, int] = field(default_factory=dict)
    #: Aborted transactions by reason (conflict / timeout / site_crash).
    aborts_by_reason: Dict[str, int] = field(default_factory=dict)
    #: Fault transitions observed during the run (fault-injected runs).
    fault_events: List = field(default_factory=list)
    #: Sampled per-site timelines (populated only for observed runs).
    timelines: Dict[str, Timeline] = field(default_factory=dict)
    #: Recorded offered arrival rate (arrivals/s over the post-warmup
    #: window) for open-loop runs; 0.0 for closed-loop runs, where
    #: offered load is whatever the clients manage (the coordinated-
    #: omission caveat in docs/SCALE.md).
    offered_rate: float = 0.0
    #: Host seconds spent inside :func:`run_benchmark` (setup + run).
    #: Host-side only: excluded from fingerprints, varies per machine.
    wall_clock_s: float = 0.0
    #: Kernel events processed during the run (deterministic for a
    #: given build, but an implementation detail — delivery batching
    #: may change it without changing simulated results, so it is also
    #: excluded from fingerprints).
    events_processed: int = 0
    #: Canonical digest of the simulated outcome (:func:`run_fingerprint`).
    fingerprint: str = ""
    #: ``ru_maxrss`` of the producing process at the run's end, in KB.
    peak_rss_kb: int = 0
    #: The decision ledger of a mastering-observed run (None otherwise).
    ledger: Optional[DecisionLedger] = field(repr=False, default=None)
    #: The finalized SLO engine of an SLO-monitored run (None otherwise):
    #: incidents, violations and fault correlation, holding no cluster.
    slo: Optional[SloEngine] = field(repr=False, default=None)
    #: The observability handle of an observed run (None otherwise, and
    #: on a portable result: its sampler closes over the cluster).
    obs: Optional[Observability] = field(repr=False, default=None)
    #: The live system object (None on a portable result).
    system: Optional[System] = field(repr=False, default=None)

    def latency(self, txn_type: Optional[str] = None) -> LatencySummary:
        return self.metrics.latency(txn_type)

    def portable(self) -> "RunResult":
        """This result without ``obs`` and ``system``, each of which
        pins a whole simulated cluster: picklable across a process
        boundary, and cheap to keep in a long sweep."""
        return replace(self, obs=None, system=None)


def run_fingerprint(result: RunResult) -> str:
    """Digest the *simulated* outcome of a run.

    Covers every observable simulated quantity — commit count and the
    sum of commit times, mean latency, per-category traffic bytes,
    aborts by reason, routing fractions, site utilization, and the
    fault timeline — while excluding host-side measurements
    (``wall_clock_s``, ``events_processed``, RSS), which legitimately
    vary across machines and process placement. Two runs of the same
    :class:`~repro.bench.parallel.RunSpec` must produce the same
    fingerprint whether they ran serially, in another process, or on
    another host.
    """
    metrics = result.metrics
    payload = {
        "system": result.system_name,
        "workload": result.workload_name,
        "commits": metrics.commits,
        "commit_time_sum": round(sum(metrics.commit_times), 6),
        "latency_mean": round(result.latency().mean, 6),
        "traffic": sorted(result.traffic_bytes.items()),
        "aborts_by_reason": sorted(metrics.aborts_by_reason.items()),
        "remaster_rate": round(result.remaster_rate, 9),
        "route_fractions": [round(f, 9) for f in result.route_fractions],
        "site_utilization": [round(u, 9) for u in result.site_utilization],
        "fault_events": [
            (round(event.at_ms, 6), event.kind, event.site)
            for event in result.fault_events
        ],
    }
    # Open-loop observables join the digest only when present, so every
    # closed-loop fingerprint pinned before this subsystem existed is
    # unchanged (getattr: results pickled by older builds lack the
    # attribute entirely).
    open_loop = getattr(metrics, "open_loop_counters", None)
    if open_loop:
        payload["open_loop"] = sorted(
            (key, round(float(value), 6)) for key, value in open_loop.items()
        )
        payload["admission_wait_sum"] = round(metrics.admission_wait_total(), 6)
    return sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()[:16]


def check_run_params(
    system: str,
    *,
    num_clients: int,
    duration_ms: float,
    warmup_ms: float,
    open_loop=None,
    fault_scenario: Optional[str] = None,
) -> None:
    """Reject a run that could only report ``commits 0, tput 0.0``.

    Called by :func:`run_benchmark` and by ``RunSpec.__post_init__``, so
    a bad row fails in the parent before any worker is spawned. Raises
    ``ValueError`` naming the field.
    """
    if system not in ALL_SYSTEMS:
        raise ValueError(f"unknown system {system!r}; expected one of {ALL_SYSTEMS}")
    if not duration_ms > 0:
        raise ValueError(f"duration_ms must be > 0, got {duration_ms}")
    if not 0 <= warmup_ms < duration_ms:
        raise ValueError(
            f"warmup_ms must be in [0, duration_ms={duration_ms:g}), got {warmup_ms}"
        )
    if open_loop is None and num_clients < 1:
        raise ValueError(
            f"num_clients must be >= 1 for a closed-loop run, got {num_clients}"
        )
    if fault_scenario is None:
        return
    from repro.faults.plan import SCENARIOS

    if fault_scenario not in SCENARIOS:
        raise ValueError(
            f"unknown fault_scenario {fault_scenario!r}; expected one of {SCENARIOS}"
        )


def run_benchmark(
    system_name: str,
    workload: Workload,
    *,
    num_clients: int = 50,
    duration_ms: float = 2000.0,
    warmup_ms: float = 500.0,
    cluster_config: Optional[ClusterConfig] = None,
    weights: Optional[StrategyWeights] = None,
    placement: Optional[Dict[int, int]] = None,
    seed: int = 0,
    events: Sequence[Tuple[float, Callable]] = (),
    obs: Optional[Observability] = None,
    streaming_metrics: bool = False,
    fault_plan=None,
    ledger=None,
    open_loop=None,
    slo=None,
) -> RunResult:
    """Run ``workload`` against one system and measure it.

    ``events`` is a list of ``(time_ms, fn)`` pairs; each ``fn(system,
    workload)`` fires at the given simulated time (used to change the
    workload mid-run in the adaptivity experiment). Latencies are
    recorded only for transactions that *start* after ``warmup_ms``.

    ``obs`` attaches a fresh :class:`~repro.obs.Observability` to the
    run: every transaction is traced as a span tree, the standard
    per-site timelines are sampled, and the handle comes back on
    ``RunResult.obs`` for export. Without it the run uses the no-op
    tracer and is bit-identical to an unobserved build.
    ``streaming_metrics`` stores latencies in log-bucketed histograms
    instead of raw lists (constant memory, approximate percentiles).
    ``fault_plan`` installs a :class:`~repro.faults.injector.FaultInjector`
    interpreting the given :class:`~repro.faults.plan.FaultPlan` before the
    workload starts; without one the run is bit-identical to a build
    without the faults subsystem.
    ``ledger`` attaches a :class:`~repro.obs.mastery.DecisionLedger` to
    the system's site selector (ignored for selector-less systems); the
    ledger is passive, so even a ledger-observed run's simulated
    outcome is bit-identical to an unobserved one.
    ``slo`` attaches a :class:`~repro.obs.slo.SloEngine`: every
    recorded transaction streams through its windowed SLO monitors and
    the runtime invariants are checked at each window close; the
    finalized engine (incidents, violations, fault correlation) comes
    back on ``RunResult.slo``. The engine is a passive recorder — it
    schedules nothing and consumes no randomness — so an SLO-monitored
    run's simulated outcome is bit-identical to an unmonitored one.
    ``open_loop`` replaces the closed-loop clients with an
    :class:`~repro.workloads.openloop.OpenLoopEngine` driven by the
    given :class:`~repro.workloads.openloop.OpenLoopSpec`: arrivals
    follow the spec's rate curve (dedicated ``arrivals`` RNG stream),
    ``num_clients`` is ignored in favour of ``spec.modeled_clients``,
    and latency is measured from arrival — admission-queue wait
    included. Closed-loop runs never touch the arrivals stream or the
    open-loop code paths, so their results are bit-identical to builds
    without this subsystem.
    """
    check_run_params(
        system_name, num_clients=num_clients, duration_ms=duration_ms,
        warmup_ms=warmup_ms, open_loop=open_loop,
    )
    wall_start = time.perf_counter()
    restart_txn_ids()
    observability = obs if obs is not None else NULL_OBS
    config = cluster_config or ClusterConfig()
    if seed:
        config = config.scaled(seed=seed)
    cluster = Cluster(
        config,
        replicated=system_name in REPLICATED_SYSTEMS,
        obs=observability,
    )
    scheme = workload.scheme

    kwargs: Dict = {"scheme": scheme}
    if system_name == "dynamast":
        kwargs["weights"] = weights or workload.recommended_weights()
        if placement is not None:
            kwargs["placement"] = placement
    elif system_name != "single-master":
        kwargs["placement"] = placement or workload.fixed_placement(config.num_sites)
        if system_name in ("multi-master", "partition-store"):
            kwargs["unit_of"] = workload.placement_unit_of
    system = build_system(system_name, cluster, **kwargs)

    if ledger is not None:
        routing = getattr(system, "selector", None)
        if routing is not None:
            routing.attach_ledger(ledger)
        ledger.run_end_ms = duration_ms

    injector = None
    if fault_plan is not None:
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(cluster, fault_plan, cluster.streams.faults())
        injector.install()

    metrics = Metrics(streaming=streaming_metrics)
    observability.observe_cluster(cluster)
    engine = None
    if open_loop is not None:
        from repro.workloads.openloop import OpenLoopEngine

        engine = OpenLoopEngine(system, workload, open_loop, metrics,
                                warmup_ms, observability)
        engine.install(duration_ms)
        if observability.enabled:
            engine.attach_probes(observability.sampler)
        num_clients = open_loop.modeled_clients
    else:
        rng = cluster.streams.stream("workload")
        pool = workload.client_pool(num_clients)
        for client_id in range(num_clients):
            cluster.env.process(
                _client_loop(system, pool, client_id, rng, metrics, warmup_ms,
                             observability)
            )
    if slo is not None:
        slo.install(
            system,
            injector=injector,
            queues=engine.queues if engine is not None else (),
            duration_ms=duration_ms,
            warmup_ms=warmup_ms,
        )
        metrics.slo_engine = slo
    for when, fn in events:
        cluster.env.process(_fire_event(cluster.env, when, fn, system, workload))

    cluster.env.run(until=duration_ms)
    if slo is not None:
        slo.finalize(duration_ms)
        # The result carries the engine; the metrics' hook was for the run.
        metrics.slo_engine = None
    wall_clock_s = time.perf_counter() - wall_start

    window = duration_ms - warmup_ms
    selector = getattr(system, "selector", None)
    if selector is not None:
        metrics.selector_counters = {
            "updates_routed": selector.updates_routed,
            "updates_remastered": selector.updates_remastered,
            "remaster_operations": selector.remaster_operations,
            "partitions_moved": selector.partitions_moved,
        }
    if injector is not None:
        metrics.detector_counters = injector.detector_counters()
    offered_rate = 0.0
    if engine is not None:
        from repro.workloads.openloop import offered_rate_tps

        metrics.open_loop_counters = engine.counters()
        offered_rate = offered_rate_tps(metrics.open_loop_counters, window)
        # Per-site end-of-run queue state, for the per-site Prometheus
        # gauges. Kept OFF the fingerprinted counters() dict so the
        # committed BENCH_scale.json fingerprints stay valid.
        metrics.open_loop_sites = tuple(
            {"site": index, "depth": float(len(queue)),
             "shed": float(queue.shed), "offered": float(queue.offered)}
            for index, queue in enumerate(engine.queues)
        )
    result = RunResult(
        system_name=system_name,
        workload_name=workload.name,
        num_clients=num_clients,
        duration_ms=duration_ms,
        warmup_ms=warmup_ms,
        metrics=metrics,
        throughput=metrics.throughput(window),
        remaster_rate=selector.remaster_rate() if selector else 0.0,
        route_fractions=selector.route_fractions() if selector else [],
        traffic_bytes=dict(cluster.network.traffic.bytes_by_category),
        site_utilization=[site.utilization() for site in cluster.sites],
        abort_rate=metrics.abort_rate(),
        aborts_by_type=dict(metrics.aborts),
        aborts_by_reason=dict(metrics.aborts_by_reason),
        fault_events=list(injector.events) if injector is not None else [],
        timelines=dict(observability.timelines) if observability.enabled else {},
        obs=obs,
        ledger=ledger,
        slo=slo,
        system=system,
        offered_rate=offered_rate,
        wall_clock_s=wall_clock_s,
        events_processed=cluster.env.events_processed,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    result.fingerprint = run_fingerprint(result)
    return result


def _client_loop(system, pool, client_id, rng, metrics, warmup_ms, obs):
    """One closed-loop client issuing transactions back to back."""
    env = system.env
    tracer = obs.tracer
    traced = tracer.enabled
    session = system.new_session(client_id)
    while True:
        turn = pool.turn(client_id, rng, env._now)
        if turn.reset_session:
            session = system.new_session(client_id)
        started = env._now
        if traced:
            tracer.txn_begin(turn.txn, started)
        outcome = yield from system.submit(turn.txn, session)
        recorded = started >= warmup_ms
        if recorded:
            metrics.record(turn.txn, outcome, env._now - started, env._now)
        if traced:
            tracer.txn_end(turn.txn, outcome, env._now, recorded=recorded)


def _fire_event(env, when, fn, system, workload):
    yield env.timeout(when)
    fn(system, workload)
