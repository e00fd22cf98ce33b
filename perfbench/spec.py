"""Names, units, directions and bounds: the benchmark's contract as data.

``BENCHMARK.json`` is generated from these tables (``benchmark_json``),
so the file the driver of a later PR reads and the code that measures
cannot drift apart. The small statistics helpers the gate and the
repeat check share live here too.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Sequence

from perfbench.layers import LAYERS

#: What ``--seconds`` is by default: about the host time the timed
#: children of one ``--workload`` run take on the reference host.
RUN_SECONDS = 20

#: Children of one contract run at ``RUN_SECONDS``, each with a seed of
#: its own (``driver.sub_seeds``): four, and a fifth where they fit in
#: that time on the reference host. A later PR's driver makes 114 runs
#: under one cap of 3420 s; at these sizes they take ~2200 s, which
#: leaves room for a host that is a third slower for the whole hour.
CHILDREN = {
    "ycsb-dynamast": 4,      # ~4.4 s a child
    "tpcc-dynamast": 4,      # ~4.1 s
    "ycsb-2pc": 5,           # ~3.4 s
    "openloop-dynamast": 4,  # ~5.8 s
    "chaos-observed": 4,     # ~4.8 s
}
#: Seeds set aside per ``--seed``, so that runs with different ``--seed``
#: share no child seed.
SEED_STRIDE = 8

#: Two sets of runs of one commit *and one seed* differ by host noise
#: only, so ISSUE 11's 10 % applies there; the bounds in ``END_TO_END``
#: are wider where they must also absorb seed-to-seed variation.
#: ``setup_s`` is a 0.3 s interval, mostly interpreter start and imports:
#: medians of three differed by 11 % on the reference host.
SAME_SEED_HOST_BOUND = {"setup_s": 0.25, "wall_s": 0.10, "peak_rss_mb": 0.10}

COMMAND = ["python3", "-m", "perfbench"]

#: name -> why it exists (one line; later issues cite the names).
WORKLOADS: Dict[str, str] = {
    "ycsb-dynamast": (
        "closed loop, 32 clients: the paper's headline path, where kernel "
        "dispatch, replication apply and routing share the time"
    ),
    "tpcc-dynamast": (
        "closed loop, 16 clients, large multi-partition write sets: storage "
        "and strategy dominate and the kernel barely shows"
    ),
    "ycsb-2pc": (
        "closed loop, unreplicated 2PC: bypasses selector, strategy and "
        "replication, so mastering work must leave it flat and kernel work "
        "moves it most"
    ),
    "openloop-dynamast": (
        "open loop, Poisson arrivals at 4000/6000/8000 tps into 8 sites: "
        "7-way replica fan-out and admission queues, latency from arrival"
    ),
    "chaos-observed": (
        "closed loop with every recorder attached and a site crashing and "
        "rejoining: the only user of faults, recovery and obs"
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the parent's median by which the metric may get worse.
    bound: float = 0.0
    #: Simulated metrics are exact for a seed: two sets of runs of one
    #: commit must agree to the last digit, not merely within ``bound``.
    simulated: bool = False


#: Bounds are sized from measured spreads (README, "End-to-end metrics"):
#: about three times the widest quartile spread any workload showed over
#: ten runs with ten seeds. ``wall_s`` and ``setup_s`` sit at the
#: contract's ceiling of 0.25: the reference host's own speed drifts by
#: more than a third of that.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
    Metric("sim_tput_tps", "1/s", "higher", 0.20, simulated=True),
    Metric("sim_mean_ms", "ms", "lower", 0.20, simulated=True),
    Metric("sim_p99_ms", "ms", "lower", 0.25, simulated=True),
    Metric("commit_share", "share", "higher", 0.001, simulated=True),
    Metric("sim_max_rate_tps", "1/s", "higher", 0.20, simulated=True),
    Metric("sim_min_avail", "share", "higher", 0.25, simulated=True),
)

#: Host times a contract run reports as its *fastest* child's, every
#: other metric being the median over its children. What disturbs a
#: timing on a shared host only ever adds to it, and comes in spells of
#: seconds to minutes (the same child of one seed read 3.6-6.0 s within
#: a quarter of an hour): the median of five children follows a spell
#: that covers three of them, the minimum only one that covers all.
FASTEST_CHILD = frozenset({"setup_s", "wall_s"})

#: Offered rates of ``openloop-dynamast``, the rate its ``sim_*`` metrics
#: are read at, and its latency limit (README: why 4000 and 15 ms).
OPEN_LOOP_RATES = (4000, 6000, 8000)
REFERENCE_RATE = 4000
P99_LIMIT_MS = 15.0
MIN_GOODPUT = 0.95
MAX_QUEUED_SHARE = 0.01

RECORDERS = ("tracer", "ledger", "slo", "streaming_metrics")

PHASES = ("import_s", "build_s", "simulate_s", "fold_s")

#: Counts read off the untraced runs; all but the host-time rate must
#: repeat exactly for a seed.
COUNTS = (
    Metric("sim.core.events", "count", "lower"),
    Metric("sim.core.events_per_host_s", "1/s", "higher"),
    Metric("sim.core.events_per_txn", "count", "lower"),
    Metric("sim.network.messages_per_txn", "count", "lower"),
    Metric("sim.network.bytes_per_txn", "B", "lower"),
    Metric("sim.resources.cpu_util_max", "share", "lower"),
    Metric("storage.mvcc.rows_end", "count", "lower"),
    Metric("storage.mvcc.versions_end", "count", "lower"),
    Metric("storage.locks.acquires", "count", "lower"),
    Metric("storage.locks.contended_share", "share", "lower"),
    Metric("replication.messages_per_commit", "count", "lower"),
    Metric("replication.apply_backlog_end", "count", "lower"),
    Metric("core.selector.updates_routed", "count", "lower"),
    Metric("core.selector.remaster_rate", "share", "lower"),
    Metric("core.selector.partitions_moved", "count", "lower"),
    Metric("workloads.txn_count", "count", "higher"),
    Metric("workloads.p50_ms", "ms", "lower"),
    Metric("workloads.openloop.admission_wait_p99_ms", "ms", "lower"),
    Metric("workloads.openloop.queued_end", "count", "lower"),
    Metric("workloads.openloop.peak_depth", "count", "lower"),
    *(Metric(f"workloads.openloop.p99_ms.r{rate}", "ms", "lower")
      for rate in OPEN_LOOP_RATES),
    Metric("faults.detection_latency_ms", "ms", "lower"),
    Metric("faults.quarantine_ms", "ms", "lower"),
    Metric("faults.suspicion_episodes", "count", "lower"),
    Metric("obs.spans", "count", "lower"),
    Metric("obs.ledger_decisions", "count", "lower"),
    Metric("obs.slo_windows", "count", "lower"),
    Metric("obs.slo_violations", "count", "lower"),
    Metric("bench.fingerprint_match", "count", "higher"),
)
HOST_COUNTS = frozenset({"sim.core.events_per_host_s"})

PER_LAYER = (
    *(Metric(f"{layer}.{suffix}", unit, "lower")
      for layer in LAYERS
      for suffix, unit in (("self_s", "s"), ("calls", "count"),
                           ("self_share", "share"))),
    *(Metric(f"bench.{phase}", "s", "lower") for phase in PHASES),
    Metric("trace.overhead_ratio", "ratio", "lower"),
    *COUNTS,
    *(Metric(f"obs.on_ratio.{recorder}", "ratio", "lower")
      for recorder in RECORDERS),
)


def benchmark_json() -> Dict[str, object]:
    """The contract file, with exactly the keys a later PR's driver reads."""
    return {
        "command": COMMAND,
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


# -- statistics helpers --------------------------------------------------------


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median with the extremes and the sample count it rests on."""
    if not values:
        raise ValueError("no samples to summarize")
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def worse_by(metric: Metric, base: float, new: float) -> float:
    """Share of ``base`` by which ``new`` is worse (negative = better)."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if metric.better == "lower" else -change


def within_bound(metric: Metric, base: float, new: float) -> bool:
    """Whether ``new`` is an acceptable second measurement of ``base``.

    Of one commit and seed: simulated metrics must be equal, host
    metrics no worse than :func:`same_seed_bound`.
    """
    if metric.simulated:
        return new == base
    return worse_by(metric, base, new) <= same_seed_bound(metric)


def same_seed_bound(metric: Metric) -> float:
    return 0.0 if metric.simulated else SAME_SEED_HOST_BOUND[metric.name]


def compare_sets(a: Dict[str, float], b: Dict[str, float]) -> List[Dict[str, object]]:
    """Per-metric verdicts of set ``b`` against set ``a`` (same commit)."""
    rows = []
    for metric in END_TO_END:
        rows.append({
            "metric": metric.name,
            "a": a[metric.name],
            "b": b[metric.name],
            "worse_by": worse_by(metric, a[metric.name], b[metric.name]),
            "bound": same_seed_bound(metric),
            "ok": within_bound(metric, a[metric.name], b[metric.name]),
        })
    return rows
