"""Export benchmark results as JSON/CSV for downstream analysis.

The figure benchmarks print human tables; this module serializes runs
— live :class:`~repro.bench.harness.RunResult` or portable
:class:`~repro.bench.parallel.RunSummary`, and dictionaries of them, as
the experiment drivers return — into plain data suitable for plotting
pipelines.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, List, Mapping

from repro.bench.harness import RunMeasurements

#: Columns exported for each run.
FIELDS = (
    "system",
    "workload",
    "clients",
    "throughput",
    "mean_ms",
    "p50_ms",
    "p90_ms",
    "p99_ms",
    "remaster_rate",
    "remastered_fraction",
    "distributed_fraction",
    "abort_rate",
    "aborts",
    "aborts_conflict",
    "aborts_timeout",
    "aborts_site_crash",
    "max_site_utilization",
    "updates_routed",
    "updates_remastered",
    "remaster_operations",
    "partitions_moved",
    "suspicion_episodes",
    "false_suspicions",
    "hedges_launched",
    "hedge_wins",
    "detection_latency_ms",
    "quarantine_ms",
)


def run_to_row(result: RunMeasurements) -> Dict[str, object]:
    """Flatten one run into an export row."""
    latency = result.latency()
    metrics = result.metrics
    commits = max(1, metrics.commits)
    return {
        "system": result.system_name,
        "workload": result.workload_name,
        "clients": result.num_clients,
        "throughput": round(result.throughput, 2),
        "mean_ms": round(latency.mean, 4),
        "p50_ms": round(latency.p50, 4),
        "p90_ms": round(latency.p90, 4),
        "p99_ms": round(latency.p99, 4),
        "remaster_rate": round(result.remaster_rate, 5),
        "remastered_fraction": round(metrics.remaster_fraction(), 5),
        "distributed_fraction": round(metrics.distributed_txns / commits, 5),
        "abort_rate": round(metrics.abort_rate(), 5),
        "aborts": metrics.abort_count,
        "aborts_conflict": metrics.aborts_by_reason.get("conflict", 0),
        "aborts_timeout": metrics.aborts_by_reason.get("timeout", 0),
        "aborts_site_crash": metrics.aborts_by_reason.get("site_crash", 0),
        "max_site_utilization": round(max(result.site_utilization, default=0.0), 4),
        # Selector volume counters (0 for selector-less systems).
        "updates_routed": metrics.selector_counters.get("updates_routed", 0),
        "updates_remastered": metrics.selector_counters.get("updates_remastered", 0),
        "remaster_operations": metrics.selector_counters.get("remaster_operations", 0),
        "partitions_moved": metrics.selector_counters.get("partitions_moved", 0),
        # Failure-detector counters (0 for unfaulted runs).
        "suspicion_episodes": metrics.detector_counters.get("suspicion_episodes", 0),
        "false_suspicions": metrics.detector_counters.get("false_suspicions", 0),
        "hedges_launched": metrics.detector_counters.get("hedges_launched", 0),
        "hedge_wins": metrics.detector_counters.get("hedge_wins", 0),
        # Blank (not 0) when the detector never suspected / no fault was
        # planned — absence of a measurement, not a zero measurement.
        "detection_latency_ms": metrics.detector_counters.get(
            "detection_latency_ms", ""
        ),
        "quarantine_ms": metrics.detector_counters.get("quarantine_ms", ""),
    }


def attach_open_loop(row: Dict[str, object], result: RunMeasurements) -> None:
    """Add ``openloop_*`` columns for an open-loop run.

    No-op for closed-loop runs, preserving their exact export schema.
    Open-loop rows gain the capacity-planning columns: recorded offered
    rate, goodput ratio (commits / recorded arrivals — the saturation
    signal), shed arrivals, admission-wait p50/p99, and queue depths.
    """
    metrics = result.metrics
    counters = metrics.open_loop_counters
    if not counters:
        return
    from repro.workloads.openloop import goodput_ratio

    window = result.duration_ms - result.warmup_ms
    wait = metrics.admission_wait()
    ratio = goodput_ratio(counters, metrics.commits)
    row["openloop_offered_tps"] = round(
        counters["offered_recorded"] / window * 1000.0, 2
    ) if window > 0 else 0.0
    row["openloop_goodput_ratio"] = round(ratio, 5) if ratio is not None else ""
    row["openloop_shed"] = int(counters.get("shed", 0))
    row["openloop_queued_end"] = int(counters.get("queued_end", 0))
    row["openloop_peak_depth"] = int(counters.get("peak_depth", 0))
    row["openloop_mean_depth"] = round(counters.get("mean_depth", 0.0), 4)
    row["openloop_wait_p50_ms"] = round(wait.p50, 4)
    row["openloop_wait_p99_ms"] = round(wait.p99, 4)
    row["openloop_modeled_clients"] = int(counters.get("modeled_clients", 0))


def attach_mastery(row: Dict[str, object], result: RunMeasurements) -> None:
    """Add ``mastery_<metric>`` columns for a ledger-observed run.

    No-op when no decision ledger was attached, keeping plain exports'
    exact schema.
    """
    summary = result.mastery
    if not summary:
        return
    for name in ("locality_share", "entropy", "churn_partitions",
                 "ping_pong_partitions", "ping_pong_bounces",
                 "convergence_ms"):
        row[f"mastery_{name}"] = summary[name]


def attach_slo(row: Dict[str, object], result: RunMeasurements) -> None:
    """Add ``slo_<metric>`` columns for an SLO-monitored run.

    No-op when no SLO engine watched the run, keeping plain exports'
    exact schema.
    """
    for name, value in sorted(result.slo_verdict.items()):
        row[f"slo_{name}"] = value


def rows_from(results) -> List[Dict[str, object]]:
    """Flatten a RunResult/RunSummary, a mapping of them, or nested mappings."""
    if isinstance(results, RunMeasurements):
        row = run_to_row(results)
        attach_open_loop(row, results)
        attach_mastery(row, results)
        attach_slo(row, results)
        return [row]
    if isinstance(results, Mapping):
        rows: List[Dict[str, object]] = []
        for key, value in results.items():
            for row in rows_from(value):
                row.setdefault("label", str(key))
                rows.append(row)
        return rows
    raise TypeError(f"cannot export {type(results).__name__}")


def to_json(results) -> str:
    """Serialize results to a JSON string."""
    return json.dumps(rows_from(results), indent=2, sort_keys=True)


def to_csv(results) -> str:
    """Serialize results to a CSV string."""
    rows = rows_from(results)
    fields = list(FIELDS)
    if any("label" in row for row in rows):
        fields = ["label"] + fields
    # Open-loop, ledger and SLO runs carry extra columns; keep the
    # column set stable across rows by taking the union in order.
    fields += sorted({
        key for row in rows for key in row if key.startswith("openloop_")
    })
    fields += sorted({
        key for row in rows for key in row if key.startswith("mastery_")
    })
    fields += sorted({
        key for row in rows for key in row if key.startswith("slo_")
    })
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fields, extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def write_json(results, path: str) -> None:
    with open(path, "w") as handle:
        handle.write(to_json(results))


def write_csv(results, path: str) -> None:
    with open(path, "w") as handle:
        handle.write(to_csv(results))
