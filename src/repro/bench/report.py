"""Plain-text tables for benchmark output (paper-vs-measured rows)."""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_row(cells: Sequence, widths: Sequence[int]) -> str:
    """Format one row with right-aligned numeric cells."""
    parts = []
    for cell, width in zip(cells, widths):
        if isinstance(cell, float):
            text = f"{cell:,.2f}"
        elif isinstance(cell, int):
            text = f"{cell:,}"
        else:
            text = str(cell)
        if isinstance(cell, (int, float)):
            parts.append(text.rjust(width))
        else:
            parts.append(text.ljust(width))
    return "  ".join(parts)


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Print a titled, aligned table to stdout."""
    rows = [list(row) for row in rows]
    widths: List[int] = []
    for column in range(len(headers)):
        cells = [headers[column]] + [
            f"{row[column]:,.2f}" if isinstance(row[column], float)
            else f"{row[column]:,}" if isinstance(row[column], int)
            else str(row[column])
            for row in rows
        ]
        widths.append(max(len(str(cell)) for cell in cells))
    print()
    print(f"== {title} ==")
    print(format_row(headers, widths))
    print("  ".join("-" * width for width in widths))
    for row in rows:
        print(format_row(row, widths))


def ratio(numerator: float, denominator: float) -> float:
    """Safe ratio for speedup reporting."""
    if denominator <= 0:
        return float("inf") if numerator > 0 else 0.0
    return numerator / denominator


def print_run_report(result) -> None:
    """Print the standard per-run report for one run, live or portable.

    Latency table per txn type, protocol activity (including the abort
    rate and per-type abort counts), and — for observed runs — a
    summary of every sampled timeline.
    """
    metrics = result.metrics
    rows = []
    for txn_type in metrics.txn_types():
        summary = result.latency(txn_type)
        rows.append([txn_type, summary.count, summary.mean, summary.p90,
                     summary.p99])
    print_table(
        f"{result.system_name} on {result.workload_name}: "
        f"{result.throughput:,.0f} txn/s",
        ["txn type", "count", "mean ms", "p90 ms", "p99 ms"],
        rows,
    )
    activity = [
        ["remaster/ship fraction", f"{metrics.remaster_fraction():.2%}"],
        ["distributed txns",
         f"{metrics.distributed_txns / max(1, metrics.commits):.2%}"],
        ["abort rate", f"{result.abort_rate:.2%}"],
        ["site utilization", " ".join(f"{u:.2f}" for u in result.site_utilization)],
    ]
    if metrics.selector_counters:
        counters = metrics.selector_counters
        activity.append(["updates routed", f"{counters['updates_routed']:,}"])
        activity.append(
            ["updates remastered", f"{counters['updates_remastered']:,}"]
        )
        activity.append(
            ["remaster operations", f"{counters['remaster_operations']:,}"]
        )
        activity.append(
            ["partitions moved", f"{counters['partitions_moved']:,}"]
        )
    if metrics.detector_counters:
        detector = metrics.detector_counters
        labels = {
            "suspicion_episodes": "suspicion episodes",
            "false_suspicions": "false suspicions",
            "suspected_sites": "suspected sites (at end)",
            "hedges_launched": "hedged reads launched",
            "hedge_wins": "hedged reads won",
        }
        for key, label in labels.items():
            if key in detector:
                activity.append([label, f"{detector[key]:,}"])
        for key, label in (
            ("detection_latency_ms", "detection latency"),
            ("quarantine_ms", "quarantine time"),
        ):
            if key in detector:
                activity.append([label, f"{detector[key]:,.2f} ms"])
    for txn_type, count in sorted(result.aborts_by_type.items()):
        activity.append([f"aborts ({txn_type})", f"{count:,}"])
    for reason, count in sorted(result.aborts_by_reason.items()):
        activity.append([f"aborts [{reason}]", f"{count:,}"])
    print_table("protocol activity", ["metric", "value"], activity)
    if metrics.open_loop_counters:
        print_open_loop(result)
    print_mastering(result)
    print_slo(result)
    if result.timelines:
        print_table(
            "sampled timelines (mean / max over run)",
            ["timeline", "samples", "mean", "max"],
            [
                [name, len(timeline.samples), timeline.mean(), timeline.maximum()]
                for name, timeline in sorted(result.timelines.items())
            ],
        )
    if result.obs is not None:
        print_attribution(result)


def print_open_loop(result) -> None:
    """Print the traffic table of an open-loop run.

    The capacity-planning view: offered vs goodput over the recorded
    window (their ratio is the saturation signal — see docs/SCALE.md),
    shedding, and admission-queue depth/wait.
    """
    from repro.workloads.openloop import goodput_ratio

    metrics = result.metrics
    counters = metrics.open_loop_counters
    window = result.duration_ms - result.warmup_ms
    offered_tps = (
        counters["offered_recorded"] / window * 1000.0 if window > 0 else 0.0
    )
    ratio_value = goodput_ratio(counters, metrics.commits)
    wait = metrics.admission_wait()
    rows = [
        ["modeled clients", f"{int(counters.get('modeled_clients', 0)):,}"],
        ["offered (recorded)", f"{int(counters['offered_recorded']):,} "
         f"({offered_tps:,.0f} arrivals/s)"],
        ["goodput", f"{metrics.commits:,} ({result.throughput:,.0f} txn/s)"],
        ["goodput / offered",
         "n/a" if ratio_value is None else f"{ratio_value:.2%}"],
        ["shed arrivals", f"{int(counters.get('shed', 0)):,}"],
        ["still queued at end", f"{int(counters.get('queued_end', 0)):,}"],
        ["queue depth peak / mean",
         f"{int(counters.get('peak_depth', 0)):,} / "
         f"{counters.get('mean_depth', 0.0):.2f}"],
        ["admission wait p50 / p99",
         f"{wait.p50:,.2f} / {wait.p99:,.2f} ms"],
    ]
    print_table("open-loop traffic", ["metric", "value"], rows)


def print_mastering(result) -> None:
    """Print the mastering summary and top movers of a ledger-observed
    run. Prints nothing for a run without a ledger.
    """
    ledger = result.ledger
    if ledger is None:
        return
    summary = ledger.summary()
    convergence = summary["convergence_ms"]
    rows = [
        ["decisions", f"{int(summary['decisions']):,}"],
        ["updates routed", f"{int(summary['updates_routed']):,}"],
        ["updates remastered", f"{int(summary['updates_remastered']):,}"],
        ["partitions moved", f"{int(summary['partitions_moved']):,}"],
        ["locality share", f"{summary['locality_share']:.2%}"],
        ["mastership entropy", f"{summary['entropy']:.3f}"],
        ["churning partitions", f"{int(summary['churn_partitions']):,}"],
        ["ping-pong partitions", f"{int(summary['ping_pong_partitions']):,}"],
        ["ping-pong bounces", f"{int(summary['ping_pong_bounces']):,}"],
        ["convergence",
         "never" if convergence < 0 else f"{convergence:,.0f} ms "
         f"(<= {summary['convergence_threshold']:.0%} per "
         f"{summary['convergence_window_ms']:g} ms window)"],
    ]
    print_table("mastering (decision ledger)", ["metric", "value"], rows)
    timeline = ledger.timeline()
    movers = timeline.top_movers(top=5)
    if movers:
        print_table(
            "most remastered partitions",
            ["partition", "moves", "timeline"],
            [[partition, moves, timeline.render(partition, max_intervals=6)]
             for partition, moves in movers],
        )


def print_slo(result) -> None:
    """Print the objective, incident and fault-correlation tables of an
    SLO-monitored run. Prints nothing for an unmonitored run.
    """
    slo = result.slo
    if slo is None:
        return
    print_table(
        "SLO objectives",
        ["objective", "metric", "bound", "threshold", "windows",
         "breached", "incidents"],
        [
            [row["objective"], row["metric"], row["bound"],
             "unarmed" if row["threshold"] is None
             else f"{row['threshold']:,.3f}",
             row["windows"], row["breached_windows"], row["incidents"]]
            for row in slo.objective_rows()
        ],
    )
    episodes = list(slo.incidents) + list(slo.violations)
    if episodes:
        print_table(
            "incidents",
            ["kind", "objective", "onset ms", "clear ms", "peak sev",
             "blamed sites", "detail"],
            [
                [inc.kind, inc.objective, f"{inc.onset_ms:,.0f}",
                 "open" if inc.clear_ms is None else f"{inc.clear_ms:,.0f}",
                 f"{inc.peak_severity:,.2f}",
                 ",".join(str(s) for s in inc.blamed_sites) or "-",
                 (inc.detail or "")[:60]]
                for inc in episodes
            ],
        )
    if slo.correlation:
        print_table(
            "fault correlation (vs injector ground truth)",
            ["fault window", "kinds", "sites", "detected",
             "MTTD ms", "MTTR ms", "incidents"],
            [
                [f"[{span['start_ms']:,.0f}, {span['end_ms']:,.0f})",
                 ",".join(span["kinds"]), ",".join(map(str, span["sites"])),
                 "yes" if span["detected"] else "MISS",
                 "-" if span["detection_ms"] is None
                 else f"{span['detection_ms']:,.0f}",
                 "-" if span["recovery_ms"] is None
                 else f"{span['recovery_ms']:,.0f}",
                 ",".join(sorted(set(span["incidents"]))) or "-"]
                for span in slo.correlation
            ],
        )
    summary = slo.summary()
    verdict = [
        ["incidents (SLO)", f"{int(summary['incidents']):,}"],
        ["violations (invariant)", f"{int(summary['violations']):,}"],
        ["true positives", f"{int(summary['true_positives']):,}"],
        ["false positives", f"{int(summary['false_positives']):,}"],
        ["fault spans detected",
         f"{int(summary['detected_spans']):,} / {int(summary['fault_spans']):,}"],
        ["MTTD", "n/a" if summary["mttd_mean_ms"] < 0
         else f"{summary['mttd_mean_ms']:,.0f} ms"],
        ["MTTR", "n/a" if summary["mttr_mean_ms"] < 0
         else f"{summary['mttr_mean_ms']:,.0f} ms"],
        ["windows evaluated", f"{int(summary['windows_evaluated']):,}"],
    ]
    print_table("SLO verdict", ["metric", "value"], verdict)


def print_attribution(result) -> None:
    """Print the latency-budget table of an observed run.

    Imports lazily so unobserved bench paths never load the causal
    layer.
    """
    from repro.obs.attribution import (
        AttributionReport, budget_headers, budget_rows,
    )

    report = AttributionReport.from_result(result)
    if not report.txns:
        return
    print_table(
        "latency attribution (share of quantile latency per category)",
        budget_headers(),
        budget_rows(report),
    )
    blame = report.blame(top=5)
    if blame:
        print_table(
            "p95+ tail blame",
            ["category", "track", "ms", "share"],
            [[b["category"], b["track"], f"{b['ms']:,.1f}",
              f"{b['share']:.1%}"] for b in blame],
        )
