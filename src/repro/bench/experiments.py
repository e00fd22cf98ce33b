"""Experiment drivers: one per table/figure of the paper's evaluation.

Each driver describes its experiment as :class:`RunSpec` rows — a
:class:`WorkloadSpec`, a cluster configuration and the systems to run —
hands them to :func:`~repro.bench.parallel.execute_specs`, and returns
the portable :class:`RunSummary` of each run as plain data that the
``benchmarks/`` tree formats as paper-vs-measured tables and asserts
shape criteria on. Only ``fig5b_adaptivity`` calls ``run_benchmark``
itself: its mid-run sampling callback is a live object no spec can
carry. The default scales are reduced relative to the paper's 5-minute
cluster runs (see DESIGN.md §1) but preserve the contention structure
each experiment depends on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import ALL_SYSTEMS, run_benchmark
from repro.bench.metrics import rate_series
from repro.bench.parallel import RunSpec, RunSummary, WorkloadSpec, execute_specs
from repro.core.strategy import StrategyWeights
from repro.sim.config import ClusterConfig
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload

#: Default scales for the YCSB experiments (4 sites as in the paper).
YCSB_CLUSTER = dict(num_sites=4, cores_per_site=4)
YCSB_CLIENTS = 48
#: Default scales for the TPC-C experiments (paper: 8 sites, 350
#: clients; scaled to keep bench runtimes tractable while preserving
#: the per-warehouse contention ratio).
TPCC_CLUSTER = dict(num_sites=4, cores_per_site=6)
TPCC_CLIENTS = 120
DURATION_MS = 1200.0
WARMUP_MS = 400.0


def run_suite(
    workload: WorkloadSpec,
    systems: Sequence[str] = ALL_SYSTEMS,
    cluster: Optional[dict] = None,
    num_clients: int = YCSB_CLIENTS,
    duration_ms: float = DURATION_MS,
    warmup_ms: float = WARMUP_MS,
    seed: int = 0,
    jobs: int = 1,
) -> Dict[str, RunSummary]:
    """Run one workload against several systems (fresh workload each).

    One :class:`RunSpec` row per system, executed by
    :func:`~repro.bench.parallel.execute_specs` — in-process at
    ``jobs=1``, fanned over worker processes above it, with
    bit-identical simulated results either way (pinned by
    ``tests/test_parallel_parity.py``).
    """
    config = ClusterConfig(**(cluster or YCSB_CLUSTER))
    specs = [
        RunSpec(
            system=system, workload=workload, num_clients=num_clients,
            duration_ms=duration_ms, warmup_ms=warmup_ms, cluster=config,
            seed=seed,
        )
        for system in systems
    ]
    return dict(zip(systems, execute_specs(specs, jobs=jobs)))


def _dynamast_ycsb(
    ycsb: dict,
    *,
    num_clients: int = YCSB_CLIENTS,
    duration_ms: float = DURATION_MS,
    cluster: Optional[ClusterConfig] = None,
    weights: Optional[StrategyWeights] = None,
    label: Optional[str] = None,
) -> RunSpec:
    """One DynaMast-on-YCSB row at the default YCSB scales."""
    return RunSpec(
        system="dynamast",
        workload=WorkloadSpec.of("ycsb", **ycsb),
        num_clients=num_clients,
        duration_ms=duration_ms,
        warmup_ms=WARMUP_MS,
        cluster=cluster or ClusterConfig(**YCSB_CLUSTER),
        weights=weights,
        label=label,
    )


# ---------------------------------------------------------------------------
# E1 / E2 — Figures 4a, 4b: YCSB throughput
# ---------------------------------------------------------------------------


def fig4a_ycsb_uniform(
    client_counts: Sequence[int] = (12, 24, 48),
) -> Dict[str, Dict[int, RunSummary]]:
    """Figure 4a: uniform YCSB, 50/50 RMW/scan, throughput vs clients."""
    results: Dict[str, Dict[int, RunSummary]] = {s: {} for s in ALL_SYSTEMS}
    for clients in client_counts:
        suite = run_suite(
            WorkloadSpec.of("ycsb", rmw_fraction=0.5), num_clients=clients
        )
        for system, result in suite.items():
            results[system][clients] = result
    return results


def fig4b_ycsb_write_heavy() -> Dict[str, RunSummary]:
    """Figure 4b: uniform YCSB, 90/10 RMW/scan."""
    return run_suite(WorkloadSpec.of("ycsb", rmw_fraction=0.9))


# ---------------------------------------------------------------------------
# E3 / E4 / E15 — Figures 4c, 4d, 8e-8g: TPC-C latency
# ---------------------------------------------------------------------------


def tpcc_default_suite() -> Dict[str, RunSummary]:
    """The default-mix TPC-C run shared by figures 4c, 4d and 8e-8g."""
    return run_suite(
        WorkloadSpec.of(
            "tpcc", neworder_remote_fraction=0.10, payment_remote_fraction=0.15
        ),
        cluster=TPCC_CLUSTER,
        num_clients=TPCC_CLIENTS,
    )


# ---------------------------------------------------------------------------
# E5 — Figure 4e: throughput vs % New-Order
# ---------------------------------------------------------------------------


def fig4e_neworder_mix() -> Dict[str, Dict[float, RunSummary]]:
    """Figure 4e: shift the mix toward New-Order transactions."""
    results: Dict[str, Dict[float, RunSummary]] = {s: {} for s in ALL_SYSTEMS}
    for fraction in (0.45, 0.90):
        remainder = 1.0 - fraction
        suite = run_suite(
            WorkloadSpec.of(
                "tpcc",
                neworder_weight=fraction,
                payment_weight=remainder / 2,
                stocklevel_weight=remainder / 2,
            ),
            cluster=TPCC_CLUSTER,
            num_clients=TPCC_CLIENTS,
            duration_ms=1000.0,
        )
        for system, result in suite.items():
            results[system][fraction] = result
    return results


# ---------------------------------------------------------------------------
# E6 — §VI-B3: New-Order latency vs % cross-warehouse
# ---------------------------------------------------------------------------


def cross_warehouse_sweep(
    remote_fractions: Sequence[float] = (0.0, 0.10, 0.33),
    systems: Sequence[str] = ("dynamast", "single-master", "multi-master", "partition-store"),
    transaction: str = "new_order",
) -> Dict[str, Dict[float, RunSummary]]:
    """New-Order (or Payment, figure 8g) latency as remote rate grows."""
    results: Dict[str, Dict[float, RunSummary]] = {s: {} for s in systems}
    for fraction in remote_fractions:
        if transaction == "new_order":
            workload = WorkloadSpec.of("tpcc", neworder_remote_fraction=fraction)
        else:
            workload = WorkloadSpec.of("tpcc", payment_remote_fraction=fraction)
        suite = run_suite(
            workload,
            systems=systems,
            cluster=TPCC_CLUSTER,
            num_clients=TPCC_CLIENTS,
            duration_ms=1000.0,
        )
        for system, result in suite.items():
            results[system][fraction] = result
    return results


# ---------------------------------------------------------------------------
# E7 — §VI-B4: skewed YCSB
# ---------------------------------------------------------------------------


def skew_suite() -> Dict[str, RunSummary]:
    """Zipfian (theta = 0.75) 90/10 RMW/scan YCSB."""
    return run_suite(WorkloadSpec.of("ycsb", rmw_fraction=0.9, zipf_theta=0.75))


# ---------------------------------------------------------------------------
# E8 — Figure 5b: adaptivity to workload change
# ---------------------------------------------------------------------------


@dataclass
class AdaptivityResult:
    """Timeline of DynaMast re-learning shuffled correlations."""

    timeline: List[Tuple[float, float]]
    early_throughput: float
    late_throughput: float
    improvement: float
    remaster_timeline: List[Tuple[float, float]]


def fig5b_adaptivity() -> AdaptivityResult:
    """Shuffled correlations against a manual range placement.

    The paper deploys 100 clients of 100% skewed RMWs whose partition
    correlations were randomized, with mastership manually
    range-allocated; DynaMast must learn the new correlations. We run
    below saturation so the latency saved by declining remastering is
    visible as throughput.
    """
    import random

    duration_ms, bucket_ms = 4000.0, 500.0
    workload = YCSBWorkload(
        YCSBConfig(rmw_fraction=1.0, zipf_theta=0.75, affinity_txns=25)
    )
    workload.shuffle_correlations(random.Random(7))
    placement = workload.scheme.range_placement(YCSB_CLUSTER["num_sites"])

    samples: List[Tuple[float, int, int]] = []

    def sample(system, _workload):
        selector = system.selector
        samples.append(
            (system.env.now, selector.updates_routed, selector.updates_remastered)
        )

    events = [
        (when, sample) for when in range(int(bucket_ms), int(duration_ms), int(bucket_ms))
    ]
    result = run_benchmark(
        "dynamast",
        workload,
        num_clients=30,
        duration_ms=duration_ms,
        warmup_ms=0.0,
        cluster_config=ClusterConfig(**YCSB_CLUSTER),
        placement=placement,
        events=events,
    )
    timeline = rate_series(result.metrics.commit_times, bucket_ms, 0.0, duration_ms)
    remaster_timeline = []
    previous = (0.0, 0, 0)
    for when, routed, remastered in samples:
        routed_delta = routed - previous[1]
        remaster_delta = remastered - previous[2]
        rate = remaster_delta / max(1, routed_delta)
        remaster_timeline.append((when, rate))
        previous = (when, routed, remastered)
    early = timeline[0][1]
    late = sum(v for _, v in timeline[-2:]) / 2
    return AdaptivityResult(
        timeline=timeline,
        early_throughput=early,
        late_throughput=late,
        improvement=late / max(1.0, early),
        remaster_timeline=remaster_timeline,
    )


# ---------------------------------------------------------------------------
# E9 — Figure 5a + §VI-B6: hyperparameter sensitivity
# ---------------------------------------------------------------------------


@dataclass
class SensitivityResult:
    """Throughput and routing fractions per weight setting."""

    throughput: Dict[str, float]
    route_fractions: Dict[str, List[float]]
    remaster_rate: Dict[str, float]


def fig5a_sensitivity() -> SensitivityResult:
    """Scale each strategy weight up/down/off on skewed YCSB.

    The paper varies each hyperparameter by two orders of magnitude in
    both directions and to zero, on a skewed workload.
    """
    base = StrategyWeights.for_ycsb()
    specs = [
        _dynamast_ycsb(
            dict(rmw_fraction=0.9, zipf_theta=0.75),
            num_clients=36,
            duration_ms=1500.0,
            weights=base.scaled(**{name: scale}),
            label=f"{name} x{scale:g}",
        )
        for name in ("balance", "intra_txn")
        for scale in (0.0, 0.01, 1.0, 100.0)
    ]
    runs = dict(zip((spec.label for spec in specs), execute_specs(specs)))
    return SensitivityResult(
        throughput={label: run.throughput for label, run in runs.items()},
        route_fractions={label: run.route_fractions for label, run in runs.items()},
        remaster_rate={label: run.remaster_rate for label, run in runs.items()},
    )


# ---------------------------------------------------------------------------
# E10 — Figure 7 + §VI-B7 + Appendix D: overhead breakdown
# ---------------------------------------------------------------------------


@dataclass
class BreakdownResult:
    """Latency breakdown, remaster frequency, and traffic shares."""

    breakdown: Dict[str, float]
    remaster_txn_fraction: float
    selector_remaster_rate: float
    traffic_bytes: Dict[str, int]


def fig7_breakdown() -> BreakdownResult:
    """Uniform 50/50 YCSB breakdown of DynaMast transaction time."""
    (result,) = execute_specs([_dynamast_ycsb(dict(rmw_fraction=0.5), duration_ms=2000.0)])
    return BreakdownResult(
        breakdown=result.metrics.breakdown(),
        remaster_txn_fraction=result.metrics.remaster_fraction(),
        selector_remaster_rate=result.remaster_rate,
        traffic_bytes=result.traffic_bytes,
    )


# ---------------------------------------------------------------------------
# E11 — Figure 6b: database size scaling
# ---------------------------------------------------------------------------


def fig6b_database_size() -> Dict[str, Dict[int, RunSummary]]:
    """DynaMast throughput for small vs large (6x) databases."""
    mixes = (("50-50U", 0.5, 0.0), ("90-10U", 0.9, 0.0), ("90-10S", 0.9, 0.75))
    cells = [
        (label, partitions, rmw, theta)
        for label, rmw, theta in mixes
        for partitions in (2000, 12000)
    ]
    specs = [
        _dynamast_ycsb(dict(num_partitions=partitions, rmw_fraction=rmw,
                            zipf_theta=theta))
        for _, partitions, rmw, theta in cells
    ]
    results: Dict[str, Dict[int, RunSummary]] = {label: {} for label, _, _ in mixes}
    for (label, partitions, _, _), run in zip(cells, execute_specs(specs)):
        results[label][partitions] = run
    return results


# ---------------------------------------------------------------------------
# E12 — Figure 6c: site scalability
# ---------------------------------------------------------------------------


def fig6c_site_scaling() -> Dict[int, RunSummary]:
    """DynaMast 50/50 uniform YCSB throughput as sites scale 4 -> 16."""
    site_counts = (4, 8, 12, 16)
    specs = [
        _dynamast_ycsb(
            dict(rmw_fraction=0.5),
            num_clients=12 * sites,
            duration_ms=1000.0,
            cluster=ClusterConfig(
                num_sites=sites, cores_per_site=YCSB_CLUSTER["cores_per_site"]
            ),
        )
        for sites in site_counts
    ]
    return dict(zip(site_counts, execute_specs(specs)))


# ---------------------------------------------------------------------------
# E13 / E14 — Figures 8a-8d: SmallBank
# ---------------------------------------------------------------------------


def smallbank_suite(
    systems: Sequence[str] = ALL_SYSTEMS,
    hotspot_fraction: float = 0.0,
) -> Dict[str, RunSummary]:
    """SmallBank throughput and tail latencies."""
    return run_suite(
        WorkloadSpec.of("smallbank", hotspot_fraction=hotspot_fraction),
        systems=systems,
        num_clients=YCSB_CLIENTS,
        duration_ms=1500.0,
    )
