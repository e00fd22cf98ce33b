"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``bench`` — run one system x workload combination and print a
  metrics report;
* ``compare`` — run several systems on the same workload and print a
  comparison table;
* ``trace`` — run one combination with full observability and export
  Chrome-trace / JSON-lines files for Perfetto;
* ``explain`` — run one combination traced and attribute commit
  latency to causal categories (``--txn`` waterfalls, ``--vs`` /
  ``--diff`` budget comparisons, ``--export`` JSON reports);
* ``masters`` — run one combination with the decision ledger attached
  and report mastership: locality share, windowed remaster rate,
  convergence time, per-partition timelines, ``--why`` decision
  waterfalls, JSONL/CSV/Prometheus export;
* ``chaos`` — run a named fault scenario against one system and print
  the availability timeline (optionally exporting it as CSV);
  ``--masters`` adds mastering re-convergence after each transition;
  ``--slo`` evaluates the SLO/invariant monitors over every run;
* ``slo`` — run one system under a fault scenario (or unfaulted with
  ``--scenario none``) with the streaming SLO engine attached: windowed
  objectives, burn-rate incidents, runtime invariant checks, and
  MTTD/MTTR against the injector's ground truth; exports JSONL/CSV/
  Prometheus and a self-contained HTML dashboard (``--html``);
* ``perf`` — run the pinned determinism matrix and write its
  fingerprints to ``BENCH_perf.json``, or (``--check``) compare them
  exactly against the committed report; ``--cores`` adds the jobs-level
  parity/fan-out sweep; ``--scale`` runs the open-loop saturation
  matrix instead (``BENCH_scale.json``: per-system saturation knees,
  exact-fingerprint + RSS-budget gates) and ``--scale --render-tables``
  re-renders the committed report's knee tables as markdown without
  running anything;
* ``experiments`` — list the per-figure experiment drivers.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

# What only some commands run (drivers, tables, recorders) is imported
# inside their handlers: ``--help`` loads none of it.
from repro.bench.harness import ALL_SYSTEMS, run_benchmark
from repro.sim.config import DEFENSES, ClusterConfig

WORKLOADS = ("ycsb", "tpcc", "smallbank")

#: Remaster decisions ``repro masters`` lists, most recent last.
RECENT_DECISIONS = 10


def make_workload_spec(name: str, args):
    """Describe a workload from CLI arguments as picklable pure data
    (a :class:`~repro.bench.parallel.WorkloadSpec`).

    The spec form is what ``bench`` / ``compare`` rows carry (and ship
    to worker processes under ``--jobs``); :func:`make_workload` builds
    the same workload in-process from it for the live-recorder
    commands, so both construct identical generators.
    """
    from repro.bench.parallel import WorkloadSpec

    if name == "ycsb":
        return WorkloadSpec.of("ycsb", zipf_theta=args.skew)
    if name in WORKLOADS:
        return WorkloadSpec.of(name)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def make_workload(name: str, args):
    """Instantiate a workload from CLI arguments."""
    return make_workload_spec(name, args).build()


def job_count(text: str) -> int:
    """An argparse type for ``--jobs``: fewer than one worker process
    would silently run serially (or fail after printing a plan), so it
    is refused (exit 2, naming the flag)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", choices=WORKLOADS, default="ycsb")
    parser.add_argument("--clients", type=int, default=32)
    parser.add_argument("--sites", type=int, default=4)
    parser.add_argument("--cores", type=int, default=4)
    parser.add_argument("--duration", type=float, default=1000.0,
                        help="simulated milliseconds")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--skew", type=float, default=0.0,
                        help="[ycsb] Zipfian theta")


def run_rows(systems, args, jobs: int = 1):
    """Run one ``RunSpec`` row per system (``bench`` and ``compare``)."""
    from repro.bench.experiments import run_suite

    return run_suite(
        make_workload_spec(args.workload, args),
        systems=systems,
        cluster=dict(num_sites=args.sites, cores_per_site=args.cores),
        num_clients=args.clients,
        duration_ms=args.duration,
        warmup_ms=args.duration / 4,
        seed=args.seed,
        jobs=jobs,
    )


def run_live(system: str, args, obs=None, ledger=None):
    """Run one system with a live recorder the command reads afterwards
    (``trace`` / ``explain`` / ``masters``); everything else is a row."""
    return run_benchmark(
        system,
        make_workload(args.workload, args),
        num_clients=args.clients,
        duration_ms=args.duration,
        warmup_ms=args.duration / 4,
        cluster_config=ClusterConfig(
            num_sites=args.sites, cores_per_site=args.cores
        ),
        seed=args.seed,
        obs=obs,
        ledger=ledger,
    )


def cmd_bench(args) -> int:
    from repro.bench.report import print_run_report

    print_run_report(run_rows([args.system], args)[args.system])
    return 0


def cmd_trace(args) -> int:
    from repro.bench.report import print_run_report, print_table
    from repro.obs import Observability
    from repro.obs.export import (
        flame_summary,
        reconcile_with_metrics,
        write_chrome_trace,
        write_jsonl,
    )

    obs = Observability()
    result = run_live(args.system, args, obs=obs)
    print_run_report(result)

    trace_path = f"{args.out}.trace.json"
    events_path = f"{args.out}.events.jsonl"
    write_chrome_trace(obs.tracer, trace_path, timelines=result.timelines)
    write_jsonl(obs.tracer, events_path)
    print(f"wrote {trace_path} (open in https://ui.perfetto.dev "
          f"or chrome://tracing)", file=sys.stderr)
    print(f"wrote {events_path}", file=sys.stderr)

    print()
    print(flame_summary(obs.tracer))
    print_table(
        "trace vs metrics reconciliation",
        ["phase", "trace ms", "metrics ms", "delta"],
        [
            [row["phase"], row["trace_ms"], row["metrics_ms"],
             f"{row['delta']:.2%}"]
            for row in reconcile_with_metrics(obs.tracer, result.metrics)
        ],
    )
    return 0


def _explain_report(system: str, args):
    """Run ``system`` observed and build its attribution report."""
    from repro.obs import Observability
    from repro.obs.attribution import AttributionReport

    obs = Observability()
    result = run_live(system, args, obs=obs)
    report = AttributionReport.from_result(result, seed=args.seed)
    report.meta["sites"] = args.sites
    return report


def _print_budget(report) -> None:
    from repro.bench.report import print_table
    from repro.obs.attribution import budget_headers, budget_rows

    meta = report.meta
    print_table(
        f"latency budget: {meta.get('system')} on {meta.get('workload')} "
        f"(seed {meta.get('seed')}, {len(report.txns)} committed txns, "
        f"coverage {report.coverage():.6f})",
        budget_headers(),
        budget_rows(report),
    )
    blame = report.blame()
    if blame:
        print_table(
            "p95+ tail blame (who owns the tail)",
            ["category", "track", "ms", "share"],
            [[b["category"], b["track"], f"{b['ms']:,.1f}", f"{b['share']:.1%}"]
             for b in blame],
        )
    edges = report.edge_summary
    rows = [[kind, count] for kind, count in edges.get("kinds", {}).items()]
    for holder, count in edges.get("lock_blame", {}).items():
        rows.append([f"lock wait-for holder: {holder}", count])
    for origin, count in edges.get("refresh_origins", {}).items():
        rows.append([f"refresh lag origin: {origin}", count])
    if rows:
        print_table("causal edges", ["edge", "count"], rows)


def _print_diff(diff) -> None:
    from repro.bench.report import print_table

    print_table(
        f"budget diff: {diff['a']} ({diff['a_txns']} txns) vs "
        f"{diff['b']} ({diff['b_txns']} txns)",
        ["category", f"{diff['a']} ms", f"{diff['b']} ms", "delta ms",
         f"{diff['a']} share", f"{diff['b']} share"],
        [
            [row["category"], f"{row['a_ms']:,.1f}", f"{row['b_ms']:,.1f}",
             f"{row['delta_ms']:+,.1f}", f"{row['a_share']:.1%}",
             f"{row['b_share']:.1%}"]
            for row in diff["rows"]
        ],
    )


def cmd_explain(args) -> int:
    import json

    from repro.obs.attribution import (
        EXEMPLARS,
        AttributionError,
        diff_reports,
        render_waterfall,
    )

    if args.diff:
        try:
            loaded = []
            for path in args.diff:
                with open(path) as handle:
                    loaded.append(json.load(handle))
            diff = diff_reports(*loaded)
        except (OSError, json.JSONDecodeError, AttributionError) as exc:
            print(f"repro explain: error: {exc}", file=sys.stderr)
            return 2
        _print_diff(diff)
        return 0

    report = _explain_report(args.system, args)
    if not report.txns:
        print("repro explain: error: no committed transactions to attribute "
              "(run longer or with more clients)", file=sys.stderr)
        return 2

    if args.txn is not None:
        txn = report.find(args.txn)
        if txn is None:
            print(f"repro explain: error: txn {args.txn} was not attributed "
                  f"(unknown id, aborted, or started during warmup)",
                  file=sys.stderr)
            return 2
        print(render_waterfall(txn))
        return 0

    _print_budget(report)
    print()
    print(f"== {EXEMPLARS} worst transactions (waterfalls) ==")
    for txn in report.tail_exemplars():
        print()
        print(render_waterfall(txn))

    if args.vs:
        vs_report = _explain_report(args.vs, args)
        _print_budget(vs_report)
        try:
            diff = diff_reports(report.to_dict(), vs_report.to_dict())
        except AttributionError as exc:
            print(f"repro explain: error: {exc}", file=sys.stderr)
            return 2
        _print_diff(diff)

    if args.export:
        with open(args.export, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        print(f"wrote {args.export}", file=sys.stderr)
    return 0


def cmd_masters(args) -> int:
    from repro.bench.report import print_mastering, print_table
    from repro.obs.mastery import (
        CONVERGENCE_THRESHOLD,
        WINDOW_MS,
        DecisionLedger,
        render_decision,
    )

    ledger = DecisionLedger()
    result = run_live(args.system, args, ledger=ledger)

    if args.why is not None:
        if not 0 <= args.why < len(ledger.decisions):
            print(f"repro masters: error: decision {args.why} was not "
                  f"recorded (this run made {len(ledger.decisions)} "
                  f"decisions, numbered from 0)", file=sys.stderr)
            return 2
        print(render_decision(ledger.decisions[args.why]))
        return 0

    print_mastering(result)
    series = ledger.rate_series(WINDOW_MS)
    print_table(
        f"windowed remaster rate ({WINDOW_MS:g} ms windows)",
        ["window start", "routed", "remastered", "moved", "fraction"],
        [
            [f"{window.start_ms:g}", window.routed, window.remastered,
             window.partitions_moved, f"{window.remaster_fraction:.2%}"]
            for window in series
        ],
    )
    convergence = ledger.convergence_time()
    print()
    if convergence is None:
        print(f"convergence: never settled at <= {CONVERGENCE_THRESHOLD:.0%} "
              f"remastered per window")
    else:
        print(f"convergence: {convergence:,.0f} ms from run start "
              f"(<= {CONVERGENCE_THRESHOLD:.0%} remastered per {WINDOW_MS:g} ms "
              f"window, steady through run end)")

    print_table(
        f"last {RECENT_DECISIONS} remaster decisions (--why <seq> for "
        f"the score waterfall)",
        ["seq", "at ms", "txn", "chosen", "runner-up", "margin",
         "tie", "moved"],
        [
            [record.seq, f"{record.at_ms:g}", record.txn_id,
             record.chosen,
             "-" if record.runner_up is None else record.runner_up,
             f"{record.margin:.3g}", record.tie_break,
             record.partitions_moved]
            for record in ledger.decisions[-RECENT_DECISIONS:]
        ],
    )

    if args.export_jsonl:
        ledger.write_jsonl(args.export_jsonl)
        print(f"wrote {args.export_jsonl}", file=sys.stderr)
    if args.export_csv:
        ledger.write_csv(args.export_csv)
        print(f"wrote {args.export_csv}", file=sys.stderr)
    if args.prometheus:
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        ledger.to_registry(registry)
        with open(args.prometheus, "w") as handle:
            handle.write(registry.to_prometheus())
        print(f"wrote {args.prometheus}", file=sys.stderr)
    return 0


def cmd_compare(args) -> int:
    from repro.bench.report import print_table

    systems = args.systems.split(",") if args.systems else list(ALL_SYSTEMS)
    results = run_rows(systems, args, jobs=args.jobs)
    print(f"ran {len(results)} systems (jobs={args.jobs})", file=sys.stderr)
    rows = []
    for system, result in results.items():
        combined = result.latency()
        rows.append([
            system,
            result.throughput,
            combined.mean,
            combined.p99,
            f"{result.metrics.remaster_fraction():.1%}",
        ])
    print_table(
        f"{args.workload}, {args.clients} clients, {args.sites} sites",
        ["system", "txn/s", "mean ms", "p99 ms", "remaster/ship"],
        rows,
    )
    return 0


def cmd_slo(args) -> int:
    from repro.bench.report import print_slo
    from repro.faults.chaos import run_chaos
    from repro.faults.plan import FaultPlan
    from repro.obs.slo import SloEngine, quick_slos

    engine = quick_slos() if args.quick else SloEngine()
    # "none" runs unfaulted: the objectives and invariants still
    # evaluate, but there is no ground truth to correlate against, so
    # any incident is a false positive by definition.
    plan = FaultPlan() if args.scenario == "none" else None
    report = run_chaos(
        args.system,
        args.scenario,
        num_sites=args.sites,
        num_clients=args.clients,
        duration_ms=args.duration,
        seed=args.seed,
        plan=plan,
        slo=engine,
        defenses=args.defenses,
    )
    print(f"\n== repro slo: {args.system} under {args.scenario} "
          f"({args.sites} sites, {args.duration:g} ms, "
          f"defenses={args.defenses}, window={engine.window_ms:g} ms) ==")
    print_slo(report.result)
    if args.html:
        from repro.obs.dashboard import write_dashboard

        write_dashboard(report.result, args.html,
                        title=f"{args.system} / {args.scenario}")
        print(f"wrote {args.html}", file=sys.stderr)
    if args.export_jsonl:
        engine.write_jsonl(args.export_jsonl)
        print(f"wrote {args.export_jsonl}", file=sys.stderr)
    if args.export_csv:
        engine.write_csv(args.export_csv)
        print(f"wrote {args.export_csv}", file=sys.stderr)
    if args.prometheus:
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        engine.to_registry(registry)
        with open(args.prometheus, "w") as handle:
            handle.write(registry.to_prometheus(labels={
                "system": args.system, "scenario": args.scenario,
            }))
        print(f"wrote {args.prometheus}", file=sys.stderr)
    return 0


def cmd_chaos(args) -> int:
    from repro.bench.report import print_mastering, print_slo, print_table
    from repro.faults.chaos import run_chaos

    systems = args.systems.split(",") if args.systems else [args.system]
    scenarios = args.scenarios.split(",") if args.scenarios else [args.scenario]
    if len(systems) > 1 or len(scenarios) > 1 or args.jobs > 1:
        return _chaos_matrix(args, systems, scenarios)
    # A single-cell "matrix" (--systems X --scenarios Y) runs on the
    # classic serial path.
    args.system, args.scenario = systems[0], scenarios[0]

    obs = None
    if args.explain:
        from repro.obs import Observability

        obs = Observability()
    ledger = None
    if args.masters:
        from repro.obs.mastery import DecisionLedger

        ledger = DecisionLedger()
    slo = None
    if args.slo:
        from repro.obs.slo import SloEngine

        slo = SloEngine()
    report = run_chaos(
        args.system,
        args.scenario,
        num_sites=args.sites,
        num_clients=args.clients,
        duration_ms=args.duration,
        seed=args.seed,
        obs=obs,
        ledger=ledger,
        slo=slo,
        defenses=args.defenses,
    )
    print_table(
        f"chaos: {args.system} under {args.scenario} "
        f"({args.sites} sites, {args.duration:g} ms, "
        f"defenses={args.defenses})",
        ["bucket ms", "commit/s", "abort/s", "sites up"],
        [
            [f"{bucket.start_ms:g}", bucket.commits_per_s,
             bucket.aborts_per_s, bucket.sites_up]
            for bucket in report.buckets
        ],
    )
    summary = [
        ["commits", f"{report.commits:,}"],
        ["steady commit/s", f"{report.steady_rate():,.0f}"],
        ["min commit/s", f"{report.min_rate():,.0f}"],
        ["final commit/s", f"{report.final_rate():,.0f}"],
        ["p99 commit ms", f"{report.result.metrics.latency().p99:,.2f}"],
    ]
    for reason, count in sorted(report.aborts_by_reason.items()):
        summary.append([f"aborts ({reason})", f"{count:,}"])
    detector = report.result.metrics.detector_counters if report.result else {}
    for key in ("suspicion_episodes", "false_suspicions",
                "hedges_launched", "hedge_wins"):
        if detector.get(key):
            summary.append([key.replace("_", " "), f"{detector[key]:,}"])
    for key in ("detection_latency_ms", "quarantine_ms"):
        if key in detector:
            summary.append(
                [key[:-3].replace("_", " "), f"{detector[key]:,.2f} ms"]
            )
    for at_ms, kind, site in report.fault_events:
        summary.append([f"{kind} site{site}", f"at {at_ms:g} ms"])
    print_table("chaos summary", ["metric", "value"], summary)
    if args.explain:
        blame = report.dip_blame()
        if blame is not None:
            steady, degraded, shifts = blame
            print_table(
                "availability-dip attribution (share of commit latency)",
                ["category", "steady", "degraded", "shift"],
                [
                    [category, f"{steady[category]:.1%}",
                     f"{degraded[category]:.1%}", f"{delta:+.1%}"]
                    for category, delta in shifts
                ],
            )
    if args.masters:
        mastering = report.mastering_summary()
        if mastering is not None:
            print_mastering(report.result)
            rows = []
            for entry in mastering["reconvergence"]:
                settled = entry["reconvergence_ms"]
                rows.append([
                    f"{entry['kind']} site{entry['site']}",
                    f"{entry['at_ms']:g}",
                    "never" if settled is None else f"{settled:,.0f} ms",
                ])
            if rows:
                print_table(
                    "mastering re-convergence after fault transitions",
                    ["event", "at ms", "re-converged in"],
                    rows,
                )
    if args.slo:
        print_slo(report.result)
    if args.out:
        report.write_csv(args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _chaos_matrix(args, systems, scenarios) -> int:
    """Fan a (system x scenario) matrix over worker processes."""
    from repro.bench.report import print_table
    from repro.faults.chaos import run_chaos_matrix

    if args.explain:
        print("repro chaos: error: --explain needs a live tracer and is "
              "only available for single serial runs (drop --jobs/"
              "--systems/--scenarios)", file=sys.stderr)
        return 2
    reports = run_chaos_matrix(
        systems,
        scenarios,
        jobs=args.jobs,
        num_sites=args.sites,
        num_clients=args.clients,
        duration_ms=args.duration,
        seed=args.seed,
        mastery=args.masters,
        slo=args.slo,
        defenses=args.defenses,
    )
    rows = []
    headers = ["system", "scenario", "commits", "aborts", "steady/s",
               "min/s", "final/s", "p99 ms", "detect ms", "quarant ms",
               "recovered"]
    if args.masters:
        headers += ["locality", "converged"]
    if args.slo:
        headers += ["incidents", "TP", "FP", "MTTD ms"]
    for (system, scenario), report in reports.items():
        aborts = sum(report.aborts_by_reason.values())
        detector = report.result.metrics.detector_counters
        row = [
            system, scenario, report.commits, aborts,
            f"{report.steady_rate():,.0f}", f"{report.min_rate():,.0f}",
            f"{report.final_rate():,.0f}",
            f"{report.result.metrics.latency().p99:,.2f}",
            "-" if "detection_latency_ms" not in detector
            else f"{detector['detection_latency_ms']:,.1f}",
            "-" if "quarantine_ms" not in detector
            else f"{detector['quarantine_ms']:,.0f}",
            "yes" if report.recovered() else "NO",
        ]
        if args.masters:
            mastering = report.mastering_summary()
            if mastering is None:
                row += ["-", "-"]
            else:
                summary = mastering["summary"]
                converged = summary["convergence_ms"]
                row += [
                    f"{summary['locality_share']:.1%}",
                    "never" if converged < 0 else f"{converged:,.0f} ms",
                ]
        if args.slo:
            verdict = report.result.slo.summary()
            mttd = verdict["mttd_mean_ms"]
            row += [
                int(verdict["incidents"]),
                int(verdict["true_positives"]),
                int(verdict["false_positives"]),
                "n/a" if mttd < 0 else f"{mttd:,.0f}",
            ]
        rows.append(row)
    print_table(
        f"chaos matrix: {len(systems)} system(s) x {len(scenarios)} "
        f"scenario(s) ({args.sites} sites, {args.duration:g} ms, "
        f"jobs={args.jobs})",
        headers,
        rows,
    )
    if args.out:
        base, dot, extension = args.out.rpartition(".")
        if not dot:
            base, extension = args.out, "csv"
        for (system, scenario), report in reports.items():
            path = f"{base}.{system}.{scenario}.{extension}"
            report.write_csv(path)
            print(f"wrote {path}", file=sys.stderr)
    return 0


def cmd_perf(args) -> int:
    from repro.bench import perf, scale

    harness = scale if args.scale else perf
    out = args.out or harness.DEFAULT_REPORT
    try:
        if args.scale:
            if args.cores:
                raise ValueError("--cores applies to the perf matrix, not --scale")
            return scale.main(
                smoke=args.smoke,
                check=args.check,
                out=out,
                jobs=args.jobs,
                render_tables=args.render_tables,
            )
        for flag in ("smoke", "render_tables"):
            if getattr(args, flag):
                raise ValueError(f"--{flag.replace('_', '-')} requires --scale")
        return perf.main(
            check=args.check,
            out=out,
            jobs=args.jobs,
            cores=args.cores or None,
        )
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"repro perf{' --scale' if args.scale else ''}: error: {exc}",
              file=sys.stderr)
        return 2


def cmd_experiments(_args) -> int:
    from repro.bench import experiments
    from repro.bench.report import print_table

    drivers = [
        ("fig4a_ycsb_uniform", "Fig 4a: YCSB uniform 50/50 throughput vs clients"),
        ("fig4b_ycsb_write_heavy", "Fig 4b: YCSB uniform 90/10 throughput"),
        ("tpcc_default_suite", "Figs 4c/4d/8e/8f: TPC-C latency, default mix"),
        ("fig4e_neworder_mix", "Fig 4e: throughput vs %New-Order"),
        ("cross_warehouse_sweep", "§VI-B3/Fig 8g: latency vs %cross-warehouse"),
        ("skew_suite", "§VI-B4: skewed YCSB throughput"),
        ("fig5b_adaptivity", "Fig 5b: adaptivity to workload change"),
        ("fig5a_sensitivity", "Fig 5a/§VI-B6: hyperparameter sensitivity"),
        ("fig7_breakdown", "Fig 7/App D: latency breakdown + overheads"),
        ("fig6b_database_size", "Fig 6b: database size scaling"),
        ("fig6c_site_scaling", "Fig 6c: 4 -> 16 site scalability"),
        ("smallbank_suite", "Figs 8a-8d: SmallBank"),
    ]
    print_table(
        "experiment drivers (repro.bench.experiments)",
        ["driver", "reproduces"],
        [[name, description] for name, description in drivers],
    )
    for name, _ in drivers:
        assert hasattr(experiments, name), f"missing driver {name}"
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` parser: one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="repro", description="DynaMast reproduction toolkit"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    bench = commands.add_parser("bench", help="run one system on one workload")
    bench.add_argument("system", choices=ALL_SYSTEMS)
    add_common_arguments(bench)
    bench.set_defaults(fn=cmd_bench)

    compare = commands.add_parser("compare", help="compare systems on a workload")
    compare.add_argument("--systems", default="",
                         help="comma-separated subset (default: all five)")
    compare.add_argument("--jobs", type=job_count, default=1,
                         help="worker processes to fan the systems over "
                              "(results are bit-identical to --jobs 1)")
    add_common_arguments(compare)
    compare.set_defaults(fn=cmd_compare)

    trace = commands.add_parser(
        "trace", help="run one system traced and export Perfetto/Chrome trace"
    )
    trace.add_argument("--system", choices=ALL_SYSTEMS, default="dynamast")
    trace.add_argument("--out", default="repro-run",
                       help="output prefix (<out>.trace.json, <out>.events.jsonl)")
    add_common_arguments(trace)
    trace.set_defaults(fn=cmd_trace)

    explain = commands.add_parser(
        "explain", help="attribute commit latency to causal categories"
    )
    explain.add_argument("--system", choices=ALL_SYSTEMS, default="dynamast")
    explain.add_argument("--txn", type=int, default=None,
                         help="print one transaction's critical-path waterfall")
    explain.add_argument("--vs", choices=ALL_SYSTEMS, default="",
                         help="also run this system and diff the two budgets")
    explain.add_argument("--diff", nargs=2, metavar=("A.json", "B.json"),
                         help="compare two exported reports (no run); exits 2 "
                              "on malformed or mismatched pairs")
    explain.add_argument("--export", default="",
                         help="write the attribution report as JSON")
    add_common_arguments(explain)
    explain.set_defaults(fn=cmd_explain)

    masters = commands.add_parser(
        "masters", help="run one system with the decision ledger and "
                        "report mastership timelines and convergence"
    )
    masters.add_argument("--system", choices=ALL_SYSTEMS, default="dynamast")
    masters.add_argument("--why", type=int, default=None, metavar="SEQ",
                         help="print one decision's provenance waterfall "
                              "and exit")
    masters.add_argument("--export-jsonl", default="",
                         help="write the full ledger (repro-masters/1 JSONL)")
    masters.add_argument("--export-csv", default="",
                         help="write the windowed remaster-rate series as CSV")
    masters.add_argument("--prometheus", default="",
                         help="write mastering metrics in Prometheus text "
                              "exposition format")
    add_common_arguments(masters)
    masters.set_defaults(fn=cmd_masters)

    from repro.faults.plan import SCENARIOS

    chaos = commands.add_parser(
        "chaos", help="run a fault scenario and print the availability timeline"
    )
    chaos.add_argument("--system", choices=ALL_SYSTEMS, default="dynamast")
    chaos.add_argument("--scenario", choices=SCENARIOS, default="crash-restart")
    chaos.add_argument("--systems", default="",
                       help="comma-separated systems for a fan-out matrix")
    chaos.add_argument("--scenarios", default="",
                       help="comma-separated scenarios for a fan-out matrix")
    chaos.add_argument("--jobs", type=job_count, default=1,
                       help="worker processes for the matrix (bit-identical "
                            "to serial)")
    chaos.add_argument("--sites", type=int, default=3)
    chaos.add_argument("--clients", type=int, default=16)
    chaos.add_argument("--duration", type=float, default=10_000.0,
                       help="simulated milliseconds")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--out", default="", help="write the timeline as CSV")
    chaos.add_argument("--explain", action="store_true",
                       help="trace the run and attribute the availability dip")
    chaos.add_argument("--masters", action="store_true",
                       help="attach the decision ledger and report mastering "
                            "re-convergence after each fault transition")
    chaos.add_argument("--slo", action="store_true",
                       help="attach the streaming SLO engine: incident "
                            "ledger and MTTD/MTTR per run (matrix runs get "
                            "incident/TP/FP columns)")
    chaos.add_argument("--defenses", choices=DEFENSES, default="fixed",
                       help="gray-failure defense preset: 'fixed' (classic "
                            "strike detector, fixed timeout) or 'adaptive' "
                            "(phi-accrual detection, adaptive deadlines, "
                            "hedged reads, health-aware remastering)")
    chaos.set_defaults(fn=cmd_chaos)

    slo = commands.add_parser(
        "slo", help="run one system SLO-monitored and report incidents, "
                    "invariants, and MTTD/MTTR vs injected faults"
    )
    slo.add_argument("--system", choices=ALL_SYSTEMS, default="dynamast")
    slo.add_argument("--scenario", choices=SCENARIOS + ("none",),
                     default="fail_slow_master",
                     help="fault scenario ('none' runs unfaulted: every "
                          "incident is then a false positive)")
    slo.add_argument("--sites", type=int, default=3)
    slo.add_argument("--clients", type=int, default=16)
    slo.add_argument("--duration", type=float, default=10_000.0,
                     help="simulated milliseconds")
    slo.add_argument("--seed", type=int, default=0)
    slo.add_argument("--quick", action="store_true",
                     help="2-window baseline calibration for short smoke "
                          "runs (default: 4 windows)")
    slo.add_argument("--html", default="",
                     help="write a self-contained HTML dashboard")
    slo.add_argument("--export-jsonl", default="",
                     help="write the incident ledger and window series "
                          "(repro-slo/1 JSONL)")
    slo.add_argument("--export-csv", default="",
                     help="write incidents and violations as CSV")
    slo.add_argument("--prometheus", default="",
                     help="write the verdict counters in Prometheus text "
                          "exposition format")
    slo.add_argument("--defenses", choices=DEFENSES, default="adaptive",
                     help="gray-failure defense preset (default: "
                          "%(default)s — SLO runs usually study the "
                          "defended stack)")
    slo.set_defaults(fn=cmd_slo)

    perf = commands.add_parser(
        "perf", help="run the pinned determinism matrix / check its pins"
    )
    perf.add_argument("--scale", action="store_true",
                      help="run the open-loop saturation matrix instead "
                           "(BENCH_scale.json: knees + RSS budgets)")
    perf.add_argument("--smoke", action="store_true",
                      help="with --scale: the cheap per-system subset")
    perf.add_argument("--render-tables", action="store_true",
                      help="with --scale: print the committed report's knee "
                           "tables as markdown and exit (no runs; the "
                           "source for EXPERIMENTS.md / docs/SCALE.md)")
    perf.add_argument("--check", action="store_true",
                      help="compare fingerprints exactly against the "
                           "committed report instead of writing; exit 1 on "
                           "any mismatch")
    perf.add_argument("--out", default=None,
                      help="report path to write (default: BENCH_perf.json, "
                           "or BENCH_scale.json with --scale)")
    perf.add_argument("--jobs", type=job_count, default=1,
                      help="worker processes for the matrix (simulated "
                           "results are bit-identical to serial)")
    perf.add_argument("--cores", type=int, default=0,
                      help="run the multi-core sweep at jobs levels "
                           "{1, 2, N}; records machine.parallel.sweep "
                           "(elapsed / fan-out speedup / efficiency per "
                           "level) with fingerprint parity enforced")
    perf.set_defaults(fn=cmd_perf)

    experiments = commands.add_parser("experiments", help="list figure drivers")
    experiments.set_defaults(fn=cmd_experiments)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    from repro.bench.parallel import SpecExecutionError

    try:
        return args.fn(args)
    except (ValueError, SpecExecutionError) as exc:
        # Bad run parameters and configs (check_run_params, the workload
        # configs' __post_init__), in this process or a worker.
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
