"""One repeat of one workload, run in a fresh interpreter.

The driver starts ``python -m perfbench.child`` once per repeat, never
two at a time. That is what a ``repro`` CLI user pays on every
invocation, and it makes ``setup_s`` and ``peak_rss_mb`` belong to one
workload alone. Everything is measured from outside ``src/repro``: the
public calls are timed, ``Environment.run`` is wrapped once to split a
call into build / simulate / fold, and counts are read off public
attributes after the run. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import resource
import time
from typing import Callable, Dict, List, Optional

from perfbench import layers, spec

#: Simulated milliseconds at scale 1 — half the sizes ISSUE 11 names, so
#: that three repeats plus set-up fit the time cap on one run (the
#: issue's own rule: scale every workload by the same factor).
DURATION_MS = {
    "ycsb-dynamast": 1500.0,
    "tpcc-dynamast": 1200.0,
    "ycsb-2pc": 3000.0,
    "openloop-dynamast": 500.0,  # at each of the three rates
    "chaos-observed": 1500.0,
    "recorder-cost": 500.0,
}

#: Availability buckets per run: the issue's 250 ms over 3000 ms.
BUCKETS_PER_RUN = 12


class Phases:
    """Host-time spans of one child, split at ``Environment.run``."""

    def __init__(self, spawned_at: float):
        self.spawned_at = spawned_at
        self.setup_s: Optional[float] = None
        self.import_s = 0.0
        self.build_s = 0.0
        self.simulate_s = 0.0
        self.fold_s = 0.0
        self._simulated = (0.0, 0.0)

    def wrap_environment_run(self) -> None:
        from repro.sim.core import Environment

        inner = Environment.run
        phases = self

        def run(env, until=None):
            if phases.setup_s is None:
                phases.setup_s = time.time() - phases.spawned_at
            start = time.perf_counter()
            try:
                return inner(env, until=until)
            finally:
                phases._simulated = (start, time.perf_counter())

        Environment.run = run

    def timed(self, call: Callable, profile: Optional[cProfile.Profile]):
        """Run ``call`` and fold its result.

        Returns ``(made, result, summary)``: what the call returned, the
        live ``RunResult`` in it (``run_chaos`` wraps one in a
        ``ChaosReport``), and its portable form.
        """
        if profile is not None:
            profile.enable()
        begin = time.perf_counter()
        made = call()
        result = getattr(made, "result", made)
        summary = fold(result)
        end = time.perf_counter()
        if profile is not None:
            profile.disable()
        sim_start, sim_end = self._simulated
        self.build_s += sim_start - begin
        self.simulate_s += sim_end - sim_start
        self.fold_s += end - sim_end
        return made, result, summary

    @property
    def wall_s(self) -> float:
        return self.build_s + self.simulate_s + self.fold_s


def fold(result):
    """``result.portable()`` — what every ``repro`` driver does with a run.

    On a traced run the portable form also folds the latency
    attribution, and that fold scans every span once per transaction
    (``Tracer.spans_of``): 138 s for the 8.5 s run ISSUE 11 sizes
    ``chaos-observed`` at. It is detached here so the workload measures
    the recorders, not that one quadratic report; README records it.
    """
    obs, result.obs = result.obs, None
    try:
        return result.portable()
    finally:
        result.obs = obs


# -- the workloads -------------------------------------------------------------


def _ycsb(num_partitions=200, rmw_fraction=0.5, zipf_theta=0.5, **config):
    from repro.workloads import build_workload

    return build_workload("ycsb", num_partitions=num_partitions,
                          rmw_fraction=rmw_fraction, zipf_theta=zipf_theta, **config)


def _closed(system, workload, clients, sites, duration_ms, seed, **recorders):
    from repro.bench.harness import run_benchmark
    from repro.sim.config import ClusterConfig

    return run_benchmark(
        system, workload, num_clients=clients, duration_ms=duration_ms,
        warmup_ms=duration_ms / 4, cluster_config=ClusterConfig(num_sites=sites),
        seed=seed, **recorders,
    )


def _open(rate, duration_ms, seed):
    # Exact latency lists, not ISSUE 11's streaming_metrics=True: the
    # histogram rounds percentiles to ~10 % buckets, so sim_p50_ms read
    # 2.3979 on every seed and the 10 ms limit fell between two buckets.
    # Streaming mode keeps its own row, obs.on_ratio.streaming_metrics.
    from repro.bench.harness import run_benchmark
    from repro.sim.config import ClusterConfig
    from repro.workloads.openloop import OpenLoopSpec

    return run_benchmark(
        "dynamast", _ycsb(2000, 0.9, 0.75), duration_ms=duration_ms,
        warmup_ms=duration_ms / 4, cluster_config=ClusterConfig(num_sites=8),
        seed=seed,
        open_loop=OpenLoopSpec.of("constant", rate_tps=rate, modeled_clients=20000,
                                  admission_concurrency=2),
    )


def _chaos(duration_ms, seed):
    from repro.faults.chaos import run_chaos
    from repro.obs import Observability
    from repro.obs.mastery import DecisionLedger
    from repro.obs.slo import SloEngine

    return run_chaos(
        "dynamast", "crash-restart", num_sites=4, num_clients=16,
        duration_ms=duration_ms, warmup_ms=duration_ms / 4,
        bucket_ms=duration_ms / BUCKETS_PER_RUN, seed=seed, defenses="adaptive",
        workload=_ycsb(), obs=Observability(), ledger=DecisionLedger(),
        slo=SloEngine(window_ms=duration_ms / BUCKETS_PER_RUN),
    )


def _recorder(recorder: str) -> Dict[str, object]:
    """``run_benchmark`` kwargs that switch one recorder ON."""
    if recorder == "off":
        return {}
    if recorder == "streaming_metrics":
        return {"streaming_metrics": True}
    if recorder == "tracer":
        from repro.obs import Observability

        return {"obs": Observability()}
    if recorder == "ledger":
        from repro.obs.mastery import DecisionLedger

        return {"ledger": DecisionLedger()}
    if recorder == "slo":
        from repro.obs.slo import SloEngine

        return {"slo": SloEngine()}
    raise ValueError(f"unknown recorder {recorder!r}")


def calls_of(workload: str, duration_ms: float, seed: int,
             recorder: str) -> List[Callable]:
    """The public calls one repeat of ``workload`` makes, in order."""
    if workload == "ycsb-dynamast":
        return [lambda: _closed("dynamast", _ycsb(), 32, 4, duration_ms, seed)]
    if workload == "tpcc-dynamast":
        from repro.workloads import build_workload

        return [lambda: _closed(
            "dynamast", build_workload("tpcc", warehouses=4, items=1000),
            16, 3, duration_ms, seed)]
    if workload == "ycsb-2pc":
        # affinity_txns=30, not the default 300: at 300 each client picks
        # its region ~1.5 times per run, which site saturates is one draw
        # of luck, and throughput (so wall_s) spreads 24 % across seeds.
        return [lambda: _closed("partition-store", _ycsb(affinity_txns=30),
                                32, 4, duration_ms, seed)]
    if workload == "openloop-dynamast":
        return [lambda rate=rate: _open(rate, duration_ms, seed)
                for rate in spec.OPEN_LOOP_RATES]
    if workload == "chaos-observed":
        return [lambda: _chaos(duration_ms, seed)]
    if workload == "recorder-cost":
        return [lambda: _closed("dynamast", _ycsb(), 32, 4, duration_ms, seed,
                                **_recorder(recorder))]
    raise ValueError(f"unknown workload {workload!r}")


# -- reading a finished run ----------------------------------------------------


def availability(run, summary) -> float:
    """Worst full bucket's commit rate over the steady rate.

    ``chaos-observed`` hands back a ``ChaosReport``; every other run is
    bucketed the same way (no fault, so steady is the median bucket).
    """
    from repro.faults.chaos import report_from_result

    bucket_ms = summary.duration_ms / BUCKETS_PER_RUN
    report = run if hasattr(run, "buckets") else report_from_result(
        summary, "none", num_sites=len(summary.site_utilization),
        duration_ms=summary.duration_ms, warmup_ms=summary.warmup_ms,
        bucket_ms=bucket_ms,
    )
    report.buckets = [
        bucket for bucket in report.buckets
        if bucket.start_ms + bucket_ms <= summary.duration_ms + 1e-6
    ]
    steady = report.steady_rate()
    return report.min_rate() / steady if steady else 0.0


def simulated(run, summary) -> Dict[str, float]:
    """The simulated end-to-end results of one run."""
    metrics = summary.metrics
    latency = summary.latency()
    counters = metrics.open_loop_counters
    shed = int(counters.get("shed", 0))
    attempted = metrics.commits + metrics.abort_count + shed
    row = {
        "tput_tps": summary.throughput,
        "mean_ms": latency.mean,
        "p50_ms": latency.p50,
        "p99_ms": latency.p99,
        "samples": latency.count,
        "commits": metrics.commits,
        "attempted": attempted,
        "failed": attempted - metrics.commits,
        "min_avail": availability(run, summary),
        "fingerprint": summary.fingerprint,
    }
    if counters:
        offered = counters["offered_recorded"]
        row["open_loop"] = dict(counters)
        row["goodput"] = metrics.commits / offered if offered else 0.0
        row["admission_wait_p99_ms"] = metrics.admission_wait().p99
    return row


def meets_limit(row: Dict[str, float]) -> bool:
    """The open-loop latency limit: p99, goodput and a bounded backlog."""
    counters = row["open_loop"]
    return (
        row["p99_ms"] <= spec.P99_LIMIT_MS
        and row["goodput"] >= spec.MIN_GOODPUT
        and counters["queued_end"] <= spec.MAX_QUEUED_SHARE * counters["offered"]
    )


def counts_of(result, row, events: int, txn_count: int) -> Dict[str, float]:
    """Per-layer counts of the reference run, off public attributes."""
    cluster = result.system.cluster
    traffic = cluster.network.traffic
    metrics = result.metrics
    commits = max(1, metrics.commits)
    locks = [site.database.locks for site in cluster.sites]
    acquires = sum(table.total_acquires for table in locks)
    contended = sum(table.contended_acquires for table in locks)
    selector = metrics.selector_counters
    detector = metrics.detector_counters
    open_loop = row.get("open_loop", {})
    return {
        "sim.core.events": events,
        "sim.core.events_per_txn": result.events_processed / commits,
        "sim.network.messages_per_txn":
            sum(traffic.messages_by_category.values()) / commits,
        "sim.network.bytes_per_txn": traffic.total_bytes() / commits,
        "sim.resources.cpu_util_max": max(result.site_utilization),
        "storage.mvcc.rows_end":
            sum(site.database.row_count() for site in cluster.sites),
        "storage.mvcc.versions_end":
            sum(site.database.version_count() for site in cluster.sites),
        "storage.locks.acquires": acquires,
        "storage.locks.contended_share": contended / acquires if acquires else 0.0,
        "replication.messages_per_commit":
            traffic.messages_by_category.get("replication", 0) / commits,
        "replication.apply_backlog_end":
            sum(site.replication.queue_depth() for site in cluster.sites),
        "core.selector.updates_routed": selector.get("updates_routed", 0),
        "core.selector.remaster_rate": result.remaster_rate,
        "core.selector.partitions_moved": selector.get("partitions_moved", 0),
        "workloads.txn_count": txn_count,
        "workloads.p50_ms": row["p50_ms"],
        "workloads.openloop.admission_wait_p99_ms":
            row.get("admission_wait_p99_ms", 0.0),
        "workloads.openloop.queued_end": open_loop.get("queued_end", 0.0),
        "workloads.openloop.peak_depth": open_loop.get("peak_depth", 0.0),
        "faults.detection_latency_ms": detector.get("detection_latency_ms", 0.0),
        "faults.quarantine_ms": detector.get("quarantine_ms", 0.0),
        "faults.suspicion_episodes": detector.get("suspicion_episodes", 0),
        "obs.spans": len(result.obs.tracer.spans) if result.obs is not None else 0,
        "obs.ledger_decisions":
            len(result.ledger.decisions) if result.ledger is not None else 0,
        "obs.slo_windows": result.slo.windows_closed if result.slo is not None else 0,
        "obs.slo_violations":
            len(result.slo.violations) if result.slo is not None else 0,
    }


def profile_rows(profile: cProfile.Profile):
    """``(filename, calls, self_seconds, function)`` per profiled function."""
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str):  # a builtin
            yield "~", entry.callcount, entry.inlinetime, code
        else:
            yield (code.co_filename, entry.callcount, entry.inlinetime,
                   f"{code.co_name}:{code.co_firstlineno}")


def run(workload: str, seed: int, scale: float, spawned_at: float,
        traced: bool, recorder: str) -> Dict[str, object]:
    phases = Phases(spawned_at)
    import repro.bench  # noqa: F401  (what `import repro` costs a CLI user)
    import repro.faults.chaos  # noqa: F401

    phases.import_s = time.time() - spawned_at
    phases.wrap_environment_run()
    profile = cProfile.Profile() if traced else None
    duration_ms = DURATION_MS[workload] * scale

    runs = [phases.timed(call, profile)
            for call in calls_of(workload, duration_ms, seed, recorder)]
    rows = [simulated(made, summary) for made, _, summary in runs]

    reference = 0
    max_rate = rows[0]["tput_tps"]
    open_loop = workload == "openloop-dynamast"
    if open_loop:
        reference = spec.OPEN_LOOP_RATES.index(spec.REFERENCE_RATE)
        max_rate = max(
            (rate for rate, row in zip(spec.OPEN_LOOP_RATES, rows) if meets_limit(row)),
            default=0,
        )
    (ref_made, ref_result, _), ref = runs[reference], rows[reference]
    attempted = sum(row["attempted"] for row in rows)
    failed = sum(row["failed"] for row in rows)
    events = sum(result.events_processed for _, result, _ in runs)
    counts = counts_of(ref_result, ref, events, attempted)
    counts["sim.core.events_per_host_s"] = events / phases.simulate_s
    for index, rate in enumerate(spec.OPEN_LOOP_RATES):
        counts[f"workloads.openloop.p99_ms.r{rate}"] = (
            rows[index]["p99_ms"] if open_loop else 0.0
        )

    out: Dict[str, object] = {
        "workload": workload,
        "seed": seed,
        "end_to_end": {
            "setup_s": phases.setup_s,
            "wall_s": phases.wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "sim_tput_tps": ref["tput_tps"],
            "sim_mean_ms": ref["mean_ms"],
            "sim_p99_ms": ref["p99_ms"],
            "commit_share": (attempted - failed) / attempted if attempted else 0.0,
            "sim_max_rate_tps": max_rate,
            "sim_min_avail": ref["min_avail"],
        },
        "samples": ref["samples"],
        "attempted": attempted,
        "failed": failed,
        "phases": {name: getattr(phases, name) for name in spec.PHASES},
        "counts": counts,
        "runs": rows,
        "recovered": ref_made.recovered() if hasattr(ref_made, "recovered") else None,
    }
    if profile is not None:
        profiled = list(profile_rows(profile))
        table, unmapped = layers.fold(row[:3] for row in profiled)
        profiled.sort(key=lambda row: -row[2])
        out["layers"] = table
        out["unmapped"] = unmapped
        out["hottest"] = [
            {"function": function, "file": filename,
             "layer": layers.layer_of(filename), "calls": calls,
             "self_s": self_s}
            for filename, calls, self_s, function in profiled[:40]
        ]
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("--workload", required=True, choices=sorted(DURATION_MS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--recorder", default="off")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.scale, args.spawned_at,
                 args.traced, args.recorder)
    print(json.dumps(result), flush=True)
    # Skip tearing down up to 185 MB of simulator objects: 0.4-0.7 s per
    # child that no metric measures, out of a run's time cap.
    os._exit(0)


if __name__ == "__main__":
    main()
