"""Open-loop scale harness: saturation knees at big topologies
(``repro perf --scale``).

Where :mod:`repro.bench.perf` pins closed-loop outcomes per case, this
harness pins *capacity*: for each system it walks a ladder of
offered rates under an open-loop arrival curve and locates the
**saturation knee** — the highest offered rate at which goodput still
keeps up (goodput/offered >= :data:`KNEE_THRESHOLD`). Past the knee an
open-loop system does not "slow down gracefully": admission queues
grow, waits explode, and the goodput ratio collapses; the knee is the
number a capacity plan needs (docs/SCALE.md explains how to read the
curves).

Results go to ``BENCH_scale.json`` (schema ``repro-scale/1``): like
``BENCH_perf.json`` it is gated on simulated fingerprints
(machine-independent, exact), plus a peak-RSS budget per case. The
matrix below is pinned the same way the perf matrix is: the cases,
seeds, curves, and ladders are part of the schema, and editing them
means regenerating the committed report.

Determinism: everything here is a pure function of the pinned
:class:`~repro.bench.parallel.RunSpec` list. Fan-out over ``--jobs``
must be bit-identical to a serial sweep — the scale-smoke CI job runs
the smoke subset at ``--jobs 2`` against the committed fingerprints to
pin exactly that. This module reads no host clock (the per-point wall
figures come from ``RunSummary.wall_clock_s``, measured by the blessed
reader inside the harness), so the determinism guard applies to it in
full.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.parallel import (
    RunSpec,
    WorkloadSpec,
    execute_specs,
    host_stanza,
    load_report,
    write_report,
)
from repro.sim.config import ClusterConfig
from repro.workloads.openloop import OpenLoopSpec, goodput_ratio

#: Bump when the report layout or the pinned matrix changes shape.
SCHEMA = "repro-scale/1"

#: Where ``repro perf --scale`` writes (and ``--check`` reads).
DEFAULT_REPORT = "BENCH_scale.json"

#: A ladder point "keeps up" while goodput/offered stays at or above
#: this; the knee is the highest offered rate that does.
KNEE_THRESHOLD = 0.90


@dataclass(frozen=True)
class ScaleCase:
    """One pinned capacity case: a system under a rate ladder.

    ``open_loop`` describes the curve at multiplier 1.0; each ladder
    entry scales every ``*_tps`` parameter, so the ladder sweeps offered
    rate without changing the curve's shape or timing. All pure data —
    the whole case flattens into picklable :class:`RunSpec` rows.
    """

    name: str
    system: str
    workload: WorkloadSpec
    open_loop: OpenLoopSpec
    ladder: Tuple[float, ...]
    sites: int
    duration_ms: float = 600.0
    warmup_ms: float = 150.0
    seed: int = 11
    #: Peak-RSS budget per ladder point, asserted by ``--check``. The
    #: budget is a documented honesty bound (docs/SCALE.md), set from
    #: measurement plus headroom — not a tuning target.
    rss_budget_mb: int = 512

    def specs(self) -> List[RunSpec]:
        """One RunSpec per ladder point, in ladder order."""
        return [
            RunSpec(
                system=self.system,
                workload=self.workload,
                duration_ms=self.duration_ms,
                warmup_ms=self.warmup_ms,
                cluster=ClusterConfig(num_sites=self.sites, seed=self.seed),
                seed=self.seed,
                # Streaming histograms, not raw sample lists: latency
                # memory stays constant no matter how many arrivals a
                # ladder point admits — part of the memory-lean story.
                streaming_metrics=True,
                open_loop=self.open_loop.scaled(multiplier),
                label=f"{self.name}@x{multiplier:g}",
            )
            for multiplier in self.ladder
        ]

    def table_keys(self) -> int:
        """Modeled table size in keys (for the report header)."""
        params = dict(self.workload.params)
        if self.workload.name == "ycsb":
            return params.get("num_partitions", 2000) * params.get(
                "keys_per_partition", 100
            )
        if self.workload.name == "smallbank":
            return params.get("users", 10000) * 2
        return 0


def _knee_ycsb(**overrides) -> WorkloadSpec:
    """The shared YCSB shape of the per-system knee cases: 200k keys,
    paper skew, RMW-heavy (scans are batch reads that would dominate
    cost without probing the update path the knee is about)."""
    params = dict(num_partitions=2000, zipf_theta=0.75, rmw_fraction=0.9)
    params.update(overrides)
    return WorkloadSpec.of("ycsb", **params)


def _per_system_case(system: str, ladder: Tuple[float, ...],
                     rss_budget_mb: int) -> ScaleCase:
    return ScaleCase(
        name=f"{system}-constant-8x20k",
        system=system,
        workload=_knee_ycsb(),
        open_loop=OpenLoopSpec.of(
            "constant",
            rate_tps=2000.0,
            modeled_clients=20_000,
            # Two admission slots per site: the honest capacity knob.
            # With wider slots no system saturates inside an affordable
            # ladder; at 2 the knees separate per system (docs/SCALE.md).
            admission_concurrency=2,
        ),
        ladder=ladder,
        sites=8,
        duration_ms=500.0,
        warmup_ms=125.0,
        rss_budget_mb=rss_budget_mb,
    )


#: The pinned matrix: one knee ladder per system at 8 sites / 20k
#: modeled clients / 200k keys, plus the flagship diurnal case at
#: 16 sites / 100k modeled clients / 1M keys. Multipliers are pinned
#: per system so every ladder straddles that system's knee. Each
#: budget is 1.5x the case's highest rung over two serial
#: regenerations on CPython 3.11 (``make scale JOBS=1``: one process
#: runs the matrix in this order, so a rung reports the process's
#: high-water mark so far), rounded up to a multiple of 8 — headroom
#: for interpreter variance, not for growth.
SCALE_MATRIX: Sequence[ScaleCase] = (
    # Measured 36 MB (35.5-35.7).
    _per_system_case("dynamast", (0.5, 1.0, 2.0, 4.0, 8.0), rss_budget_mb=56),
    # Measured 40 MB each.
    _per_system_case("single-master", (0.5, 1.0, 2.0, 4.0, 8.0), rss_budget_mb=64),
    _per_system_case("multi-master", (0.5, 1.0, 2.0, 4.0, 8.0), rss_budget_mb=64),
    _per_system_case("partition-store", (0.5, 1.0, 2.0, 4.0, 8.0), rss_budget_mb=64),
    # Measured 55 MB (54.7-54.8).
    _per_system_case("leap", (0.5, 1.0, 2.0, 4.0, 8.0), rss_budget_mb=88),
    ScaleCase(
        name="dynamast-diurnal-16x100k",
        system="dynamast",
        workload=WorkloadSpec.of(
            "ycsb", num_partitions=10_000, zipf_theta=0.75, rmw_fraction=1.0
        ),
        open_loop=OpenLoopSpec.of(
            "diurnal",
            base_tps=2000.0,
            peak_tps=8000.0,
            period_ms=400.0,
            modeled_clients=100_000,
            admission_concurrency=2,
        ),
        # x2.5 is the knee (ratio ~0.96); x3 collapses (~0.87), so the
        # ladder shows the knee as a knee, not as its highest rung.
        ladder=(1.0, 2.0, 2.5, 3.0),
        sites=16,
        duration_ms=600.0,
        warmup_ms=150.0,
        # Measured 67-70 MB at x3.
        rss_budget_mb=112,
    ),
)

#: CI subset (``--smoke``): the five cheap per-system ladders; the
#: flagship stays local/full-matrix only to keep the CI job short.
SMOKE_CASES = tuple(
    case.name for case in SCALE_MATRIX if case.name.endswith("-constant-8x20k")
)


def select_cases(smoke: bool = False) -> List[ScaleCase]:
    if smoke:
        return [case for case in SCALE_MATRIX if case.name in SMOKE_CASES]
    return list(SCALE_MATRIX)


def point_row(case: ScaleCase, multiplier: float, summary) -> Dict:
    """Flatten one ladder point's summary into a report row."""
    metrics = summary.metrics
    counters = metrics.open_loop_counters
    window = case.duration_ms - case.warmup_ms
    wait = metrics.admission_wait()
    ratio = goodput_ratio(counters, metrics.commits)
    return {
        "multiplier": multiplier,
        "offered_tps": round(summary.offered_rate, 2),
        "goodput_tps": round(summary.throughput, 2),
        "goodput_ratio": round(ratio, 4) if ratio is not None else None,
        "latency_p50_ms": round(metrics.latency().p50, 3),
        "latency_p99_ms": round(metrics.latency().p99, 3),
        "admission_wait_p99_ms": round(wait.p99, 3),
        "shed": int(counters.get("shed", 0)),
        "queued_end": int(counters.get("queued_end", 0)),
        "peak_depth": int(counters.get("peak_depth", 0)),
        "offered": int(counters.get("offered", 0)),
        "commits": metrics.commits,
        #: Machine-independent pin (the --check subject).
        "fingerprint": summary.fingerprint,
        #: Host-side context; never compared, budget-asserted only.
        "wall_s": round(summary.wall_clock_s, 4),
        "peak_rss_kb": summary.peak_rss_kb,
        "events_processed": summary.events_processed,
        "window_ms": window,
    }


def find_knee(points: Sequence[Dict]) -> Optional[Dict]:
    """The highest-offered ladder point that still keeps up.

    ``None`` when even the lowest rung collapses (the ladder starts
    past saturation — a matrix bug worth noticing, not hiding).
    """
    knee = None
    for point in points:
        ratio = point.get("goodput_ratio")
        if ratio is None or ratio < KNEE_THRESHOLD:
            continue
        if knee is None or point["offered_tps"] > knee["offered_tps"]:
            knee = point
    return knee


def run_cases(cases: Sequence[ScaleCase], jobs: int = 1,
              progress=None) -> Dict[str, Dict]:
    """Run every ladder point of every case; return per-case payloads.

    All points flatten into one spec list so ``--jobs`` parallelism
    spans cases *and* rungs; results regroup deterministically because
    ``execute_specs`` returns summaries in spec order.
    """
    flat: List = []
    for case in cases:
        for multiplier, spec in zip(case.ladder, case.specs()):
            flat.append((case, multiplier, spec))
    summaries = execute_specs([spec for _, _, spec in flat], jobs=jobs)
    payloads: Dict[str, Dict] = {}
    for (case, multiplier, _spec), summary in zip(flat, summaries):
        entry = payloads.setdefault(case.name, {
            "system": case.system,
            "workload": case.workload.name,
            "workload_params": dict(case.workload.params),
            "sites": case.sites,
            "modeled_clients": case.open_loop.modeled_clients,
            "table_keys": case.table_keys(),
            "curve": case.open_loop.curve,
            "curve_params": dict(case.open_loop.curve_params),
            "admission_concurrency": case.open_loop.admission_concurrency,
            "duration_ms": case.duration_ms,
            "warmup_ms": case.warmup_ms,
            "seed": case.seed,
            "rss_budget_mb": case.rss_budget_mb,
            "points": [],
        })
        row = point_row(case, multiplier, summary)
        entry["points"].append(row)
        if progress is not None:
            progress(case.name, row)
    for name, entry in payloads.items():
        entry["knee"] = find_knee(entry["points"])
    return payloads


def build_report(cases: Sequence[ScaleCase], jobs: int = 1,
                 progress=None) -> Dict:
    return {
        "schema": SCHEMA,
        # No generated_at: this module reads no host clock (determinism
        # guard); the git history timestamps the committed report.
        "machine": host_stanza(),
        "settings": {"jobs": jobs, "knee_threshold": KNEE_THRESHOLD},
        "cases": run_cases(cases, jobs=jobs, progress=progress),
    }


def check_report(current: Dict, committed: Dict) -> List[str]:
    """Compare a fresh run against the committed report.

    Returns a list of failure strings (empty = pass). Two gates:

    * **fingerprints, exactly** — simulated outcomes are machine-
      independent, so any drift means the simulation changed and the
      committed report must be regenerated deliberately;
    * **peak RSS within budget** — each ladder point of the fresh run
      must fit its case's ``rss_budget_mb``. Budgets gate the *fresh*
      run (this machine), not the committed numbers.
    """
    failures: List[str] = []
    for name, entry in current["cases"].items():
        base = committed["cases"].get(name)
        if base is None:
            failures.append(f"{name}: not in committed report")
            continue
        fresh_points = entry["points"]
        base_points = base["points"]
        if len(fresh_points) != len(base_points):
            failures.append(
                f"{name}: ladder length {len(fresh_points)} != committed "
                f"{len(base_points)}"
            )
            continue
        for fresh, pinned in zip(fresh_points, base_points):
            label = f"{name}@x{fresh['multiplier']:g}"
            if fresh["fingerprint"] != pinned["fingerprint"]:
                failures.append(
                    f"{label}: fingerprint {fresh['fingerprint']} != committed "
                    f"{pinned['fingerprint']}"
                )
            budget_kb = entry["rss_budget_mb"] * 1024
            if fresh["peak_rss_kb"] > budget_kb:
                failures.append(
                    f"{label}: peak RSS {fresh['peak_rss_kb']} KB over the "
                    f"{entry['rss_budget_mb']} MB budget"
                )
    return failures


def _first_collapsed(points: Sequence[Dict], knee: Optional[Dict],
                     threshold: float) -> Optional[Dict]:
    """The lowest rung past the knee that fails to keep up."""
    for point in points:
        ratio = point.get("goodput_ratio")
        if ratio is not None and ratio >= threshold:
            continue
        if knee is None or point["offered_tps"] > knee["offered_tps"]:
            return point
    return None


def knee_tables(report: Dict) -> Dict[str, str]:
    """Markdown knee tables rendered from a report payload.

    The canonical source of the saturation tables in EXPERIMENTS.md
    and docs/SCALE.md — those files embed this output verbatim
    (``tests/test_scale.py`` pins it), so the docs can never drift from
    the committed ``BENCH_scale.json``. Keys:

    * ``"summary"`` — the three-column per-system table (EXPERIMENTS.md);
    * ``"detail"`` — the five-column per-system table (docs/SCALE.md);
    * one key per non-ladder case name (e.g. the diurnal flagship) —
      that case's full ladder table, knee row bolded (docs/SCALE.md).
    """
    threshold = report.get("settings", {}).get("knee_threshold",
                                               KNEE_THRESHOLD)
    cases = report["cases"]
    ordered = [case.name for case in SCALE_MATRIX if case.name in cases]
    ordered += [name for name in sorted(cases) if name not in ordered]

    summary = ["| System | Knee (offered/s) | First collapsed rung |",
               "|---|---|---|"]
    detail = ["| system | knee (offered/s) | ratio at knee | "
              "first collapsed rung | ratio there |",
              "|---|---|---|---|---|"]
    tables: Dict[str, str] = {}
    for name in ordered:
        entry = cases[name]
        points = entry["points"]
        knee = entry.get("knee")
        collapse = _first_collapsed(points, knee, threshold)
        if name.endswith("-constant-8x20k"):
            system = entry["system"]
            if knee is None:
                plain_knee, bold_knee, knee_ratio = "none", "none", "-"
            else:
                plain_knee = (f"{knee['offered_tps']:,.0f} "
                              f"(x{knee['multiplier']:g})")
                bold_knee = (f"**{knee['offered_tps']:,.0f}** "
                             f"(x{knee['multiplier']:g})")
                knee_ratio = f"{knee['goodput_ratio']:.2f}"
            if collapse is None:
                summary_cell, rung_cell, rung_ratio = "-", "-", "-"
            else:
                ratio = collapse.get("goodput_ratio")
                rung_ratio = "-" if ratio is None else f"{ratio:.2f}"
                rung_cell = (f"x{collapse['multiplier']:g} = "
                             f"{collapse['offered_tps']:,.0f}/s")
                summary_cell = (f"x{collapse['multiplier']:g}: "
                                f"ratio {rung_ratio}")
            summary.append(f"| {system} | {plain_knee} | {summary_cell} |")
            detail.append(f"| {system} | {bold_knee} | {knee_ratio} | "
                          f"{rung_cell} | {rung_ratio} |")
        else:
            lines = ["| multiplier | offered/s | goodput/s | ratio | "
                     "wait p99 | peak RSS |",
                     "|---|---|---|---|---|---|"]
            for point in points:
                ratio = point.get("goodput_ratio")
                cells = [
                    f"x{point['multiplier']:g}",
                    f"{point['offered_tps']:,.0f}",
                    f"{point['goodput_tps']:,.0f}",
                    "-" if ratio is None else f"{ratio:.2f}",
                    f"{point['admission_wait_p99_ms']:,.1f} ms",
                    f"{point['peak_rss_kb'] // 1024} MB",
                ]
                if knee is not None and point["multiplier"] == knee["multiplier"]:
                    cells[:4] = [f"**{cell}**" for cell in cells[:4]]
                lines.append("| " + " | ".join(cells) + " |")
            tables[name] = "\n".join(lines)
    tables["summary"] = "\n".join(summary)
    tables["detail"] = "\n".join(detail)
    return tables


def render_tables(report: Dict) -> str:
    """All knee tables as one printable markdown document."""
    tables = knee_tables(report)
    parts = [
        "<!-- generated by `repro perf --scale --render-tables` from the "
        "committed BENCH_scale.json -->",
        "",
        "Per-system knees (EXPERIMENTS.md):",
        "",
        tables.pop("summary"),
        "",
        "Per-system knees, detailed (docs/SCALE.md):",
        "",
        tables.pop("detail"),
    ]
    for name in sorted(tables):
        parts += ["", f"{name} ladder (docs/SCALE.md):", "", tables[name]]
    return "\n".join(parts) + "\n"


#: Alias for :func:`main`, whose ``render_tables`` flag shadows the name.
_render_tables_text = render_tables


def main(
    *,
    smoke: bool = False,
    check: bool = False,
    out: str = DEFAULT_REPORT,
    baseline_path: str = DEFAULT_REPORT,
    jobs: int = 1,
    render_tables: bool = False,
    emit=print,
) -> int:
    """Drive a scale run; returns a process exit code.

    ``check=False``: run the matrix (or the ``--smoke`` subset) and
    write ``out``. ``check=True``: run, compare fingerprints exactly
    and RSS against budget versus the committed ``baseline_path``;
    never writes; exit 1 on any failure. ``render_tables=True``: load
    the committed ``baseline_path`` and print its knee tables as
    markdown (the EXPERIMENTS.md / docs/SCALE.md source) without
    running anything.
    """
    if render_tables:
        emit(_render_tables_text(load_report(baseline_path, SCHEMA)).rstrip("\n"))
        return 0
    committed = load_report(baseline_path, SCHEMA) if check else None
    cases = select_cases(smoke=smoke)
    points = sum(len(case.ladder) for case in cases)
    emit(f"scale: running {len(cases)} case(s), {points} ladder point(s), "
         f"jobs={jobs}" + (" [smoke]" if smoke else ""))
    payload = build_report(
        cases,
        jobs=jobs,
        progress=lambda name, row: emit(
            f"  {name:<28} x{row['multiplier']:<4g} "
            f"offered {row['offered_tps']:>9,.0f}/s  "
            f"goodput {row['goodput_tps']:>9,.0f}/s  "
            f"ratio {row['goodput_ratio'] if row['goodput_ratio'] is not None else '-':>6}  "
            f"wait p99 {row['admission_wait_p99_ms']:>8,.1f} ms  "
            f"rss {row['peak_rss_kb'] // 1024:>4} MB"
        ),
    )
    for name, entry in payload["cases"].items():
        knee = entry["knee"]
        if knee is None:
            emit(f"  {name}: no knee found — every rung past saturation")
        else:
            emit(f"  {name}: knee at x{knee['multiplier']:g} — "
                 f"{knee['offered_tps']:,.0f} offered/s, "
                 f"{knee['goodput_tps']:,.0f} goodput/s "
                 f"(ratio {knee['goodput_ratio']:.2f})")

    if check:
        failures = check_report(payload, committed)
        for failure in failures:
            emit(f"  FAIL {failure}")
        if failures:
            emit(f"scale: {len(failures)} check(s) failed vs {baseline_path}")
            return 1
        emit(f"scale: fingerprints identical and RSS within budget vs "
             f"{baseline_path}")
        return 0

    write_report(payload, out)
    emit(f"wrote {out}")
    return 0
