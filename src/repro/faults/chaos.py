"""Chaos runs: a fault scenario driven against one system, reported.

:func:`run_chaos` wires a named scenario (or an explicit
:class:`~repro.faults.plan.FaultPlan`) into a standard benchmark run
and distills the result into a :class:`ChaosReport`: a bucketed
availability timeline (commit/abort rates alongside how many sites
were up), the fault transitions, and the abort-reason breakdown. This
is the experiment behind the paper-style availability story — the
replicated, adaptive systems ride through a crash at a lower rate
while the fixed-mastership comparators lose every transaction touching
the dead site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import RunMeasurements, run_benchmark
from repro.bench.metrics import rate_series
from repro.bench.parallel import RunSpec, WorkloadSpec, execute_specs
from repro.faults.plan import FaultPlan, build_scenario
from repro.sim.config import ClusterConfig

__all__ = [
    "AvailabilityBucket",
    "ChaosReport",
    "chaos_workload_spec",
    "run_chaos",
    "run_chaos_matrix",
]

#: The default chaos workload as pure data — contended YCSB (50% RMW,
#: moderate skew) — so scenario matrices can fan out across worker
#: processes.
DEFAULT_CHAOS_WORKLOAD = dict(num_partitions=40, rmw_fraction=0.5, zipf_theta=0.5)


def chaos_workload_spec() -> WorkloadSpec:
    return WorkloadSpec.of("ycsb", **DEFAULT_CHAOS_WORKLOAD)


@dataclass(frozen=True)
class AvailabilityBucket:
    """One slice of the availability timeline."""

    start_ms: float
    commits_per_s: float
    aborts_per_s: float
    sites_up: int


@dataclass
class ChaosReport:
    """Everything a chaos run measured, ready to print or export."""

    system_name: str
    scenario: str
    duration_ms: float
    num_sites: int
    commits: int
    aborts_by_reason: Dict[str, int]
    buckets: List[AvailabilityBucket]
    #: (at_ms, kind, site) fault transitions, in order.
    fault_events: List[Tuple[float, str, int]]
    #: The run behind the report, live (``run_chaos``) or portable
    #: (``run_chaos_matrix``).
    result: Optional[RunMeasurements] = field(repr=False, default=None)

    # -- latency attribution (observed chaos runs only) ----------------------

    def attribution(self):
        """The run's :class:`~repro.obs.attribution.AttributionReport`.

        None unless the chaos run was observed (``run_chaos(..., obs=...)``).
        """
        if self.result is None or self.result.obs is None:
            return None
        from repro.obs.attribution import AttributionReport

        return AttributionReport.from_result(self.result)

    # -- mastering re-convergence (ledger-observed chaos runs) ---------------

    def mastering_summary(self, window_ms: float = 250.0) -> Optional[Dict]:
        """Mastering metrics with per-disruption re-convergence.

        For a chaos run with a decision ledger attached
        (``run_chaos(..., ledger=DecisionLedger())`` or the CLI's
        ``repro chaos --masters``), returns the ledger's scalar summary
        plus a ``reconvergence`` list with one entry per fault
        transition: how many milliseconds after the event the windowed
        remaster rate settled back at or below 5 % (None when
        it never did — e.g. the run ended mid-storm). A portable
        summary that only carries folded scalars gets an empty
        ``reconvergence`` list (the event-level series stayed in the
        worker). None when the run carried no ledger at all.
        """
        if self.result is None:
            return None
        ledger = self.result.ledger
        if ledger is None:
            folded = self.result.mastery
            return {"summary": dict(folded), "reconvergence": []} if folded else None
        reconvergence = [
            {
                "at_ms": at_ms,
                "kind": kind,
                "site": site,
                "reconvergence_ms": ledger.convergence_time(
                    after=at_ms, window_ms=window_ms
                ),
            }
            for at_ms, kind, site in self.fault_events
        ]
        return {
            "summary": ledger.summary(window_ms=window_ms),
            "reconvergence": reconvergence,
        }

    def degraded_windows(self) -> List[Tuple[float, float]]:
        """``[crash, restart)`` windows during which any site was down."""
        windows: List[Tuple[float, float]] = []
        down = 0
        opened = 0.0
        for at_ms, kind, _site in self.fault_events:
            if kind == "restart":
                down -= 1
                if down == 0:
                    windows.append((opened, at_ms))
            else:
                if down == 0:
                    opened = at_ms
                down += 1
        if down > 0:
            windows.append((opened, self.duration_ms))
        return windows

    def dip_blame(self):
        """Attribute the availability dip: steady vs degraded budgets.

        Splits committed transactions by whether they began while a
        site was down and returns ``(steady_shares, degraded_shares,
        top_shifts)`` — the categories whose share grew most during the
        dip (e.g. lock inheritance at the crashed site's partitions vs
        rerouting/remastering cost). None for unobserved runs.
        """
        report = self.attribution()
        if report is None:
            return None
        from repro.obs.attribution import split_by_windows

        steady, degraded = split_by_windows(report, self.degraded_windows())
        shifts = sorted(
            ((category, degraded[category] - steady[category])
             for category in degraded),
            key=lambda item: -abs(item[1]),
        )
        return steady, degraded, shifts[:5]

    # -- availability summary ------------------------------------------------

    def steady_rate(self) -> float:
        """Median commit rate before the first fault transition."""
        horizon = self.fault_events[0][0] if self.fault_events else self.duration_ms
        rates = sorted(
            bucket.commits_per_s
            for bucket in self.buckets
            if bucket.start_ms < horizon
        )
        if not rates:
            return 0.0
        return rates[len(rates) // 2]

    def min_rate(self) -> float:
        return min((bucket.commits_per_s for bucket in self.buckets), default=0.0)

    def final_rate(self) -> float:
        return self.buckets[-1].commits_per_s if self.buckets else 0.0

    def recovered(self) -> bool:
        """Whether the run's last bucket got back to half the steady rate."""
        return self.final_rate() >= 0.5 * self.steady_rate()

    # -- export --------------------------------------------------------------

    def to_csv(self) -> str:
        lines = ["start_ms,commits_per_s,aborts_per_s,sites_up"]
        for bucket in self.buckets:
            lines.append(
                f"{bucket.start_ms:g},{bucket.commits_per_s:g},"
                f"{bucket.aborts_per_s:g},{bucket.sites_up}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_csv())


def run_chaos(
    system_name: str,
    scenario: str,
    *,
    num_sites: int = 3,
    num_clients: int = 16,
    duration_ms: float = 10_000.0,
    warmup_ms: float = 0.0,
    bucket_ms: float = 250.0,
    seed: int = 0,
    workload=None,
    plan: Optional[FaultPlan] = None,
    obs=None,
    ledger=None,
    slo=None,
    defenses: str = "fixed",
) -> ChaosReport:
    """Run ``scenario`` against ``system_name`` and report availability.

    ``plan`` overrides the named scenario with an explicit schedule (the
    ``scenario`` string then only labels the report). The default
    workload is contended YCSB (50% RMW, moderate skew) — enough write
    conflicts that the fault handling actually gets exercised.
    Passing ``obs`` (an :class:`~repro.obs.Observability`) traces the
    run so :meth:`ChaosReport.dip_blame` can attribute the availability
    dip; passing ``ledger`` (a :class:`~repro.obs.mastery.
    DecisionLedger`) records remaster decisions so
    :meth:`ChaosReport.mastering_summary` can report re-convergence
    after each fault transition; passing ``slo`` (an
    :class:`~repro.obs.slo.SloEngine`) evaluates SLO and invariant
    monitors over the run and correlates incidents against the
    scenario's injected fault windows. ``defenses`` selects the
    gray-failure defense preset (``ClusterConfig.defenses``).
    """
    _check_bucket(bucket_ms)
    if plan is None:
        plan = build_scenario(scenario, num_sites=num_sites, duration_ms=duration_ms)
    if workload is None:
        workload = chaos_workload_spec().build()
    result = run_benchmark(
        system_name,
        workload,
        num_clients=num_clients,
        duration_ms=duration_ms,
        warmup_ms=warmup_ms,
        cluster_config=ClusterConfig(num_sites=num_sites, defenses=defenses),
        seed=seed,
        fault_plan=plan,
        obs=obs,
        ledger=ledger,
        slo=slo,
    )
    return report_from_result(
        result, scenario,
        num_sites=num_sites, duration_ms=duration_ms,
        warmup_ms=warmup_ms, bucket_ms=bucket_ms,
    )


def _check_bucket(bucket_ms: float) -> None:
    # A bucket that is not positive would yield an empty timeline, which
    # reads as a dead run that "recovered".
    if not bucket_ms > 0:
        raise ValueError(f"bucket_ms must be > 0, got {bucket_ms}")


def report_from_result(
    result,
    scenario: str,
    *,
    num_sites: int,
    duration_ms: float,
    warmup_ms: float = 0.0,
    bucket_ms: float = 250.0,
) -> ChaosReport:
    """Distill a run (live ``RunResult`` or portable ``RunSummary``)
    into a :class:`ChaosReport`.

    Everything the report needs — commit/abort completion times, fault
    transitions, abort reasons — survives the portable form, so chaos
    matrices can be bucketed in the parent after worker processes ran
    the simulations.
    """
    commit_rates = rate_series(
        result.metrics.commit_times, bucket_ms, warmup_ms, duration_ms
    )
    abort_rates = rate_series(
        result.metrics.abort_times, bucket_ms, warmup_ms, duration_ms
    )
    events = [(event.at_ms, event.kind, event.site) for event in result.fault_events]

    buckets = []
    for (start, commit_rate), (_, abort_rate) in zip(commit_rates, abort_rates):
        up = num_sites
        for at_ms, kind, _site in events:
            if at_ms >= start + bucket_ms:
                break
            up += 1 if kind == "restart" else -1
        buckets.append(AvailabilityBucket(start, commit_rate, abort_rate, up))

    return ChaosReport(
        system_name=result.system_name,
        scenario=scenario,
        duration_ms=duration_ms,
        num_sites=num_sites,
        commits=result.metrics.commits,
        aborts_by_reason=dict(result.metrics.aborts_by_reason),
        buckets=buckets,
        fault_events=events,
        result=result,
    )


def run_chaos_matrix(
    systems: Sequence[str],
    scenarios: Sequence[str],
    *,
    jobs: int = 1,
    num_sites: int = 3,
    num_clients: int = 16,
    duration_ms: float = 10_000.0,
    bucket_ms: float = 250.0,
    seed: int = 0,
    mastery: bool = False,
    slo: bool = False,
    defenses: str = "fixed",
) -> "Dict[Tuple[str, str], ChaosReport]":
    """Fan a (system x scenario) chaos matrix over worker processes.

    Every cell is one deterministic faulted run; the matrix order
    (systems outer, scenarios inner) is preserved in the returned
    mapping regardless of completion order, and each cell's simulated
    outcome is bit-identical to ``run_chaos`` of the same cell
    (``tests/test_parallel_parity.py`` pins this). ``jobs=1`` runs the
    same specs serially in-process. ``defenses`` selects the
    gray-failure defense preset for every cell (``ClusterConfig.defenses``).
    ``slo=True`` evaluates the default SLO and invariant monitors in
    every cell; the folded verdict rides back on each summary's ``slo``
    dict.
    """
    _check_bucket(bucket_ms)
    workload = chaos_workload_spec()
    combos = [(system, scenario) for system in systems for scenario in scenarios]
    specs = [
        RunSpec(
            system=system,
            workload=workload,
            num_clients=num_clients,
            duration_ms=duration_ms,
            warmup_ms=0.0,
            cluster=ClusterConfig(num_sites=num_sites, defenses=defenses),
            seed=seed,
            fault_scenario=scenario,
            mastery=mastery,
            slo=slo,
            label=f"chaos:{system}/{scenario}",
        )
        for system, scenario in combos
    ]
    summaries = execute_specs(specs, jobs=jobs)
    return {
        combo: report_from_result(
            summary, combo[1],
            num_sites=num_sites, duration_ms=duration_ms, bucket_ms=bucket_ms,
        )
        for combo, summary in zip(combos, summaries)
    }
