"""Determinism-and-parity matrix (``repro perf``).

Runs nine pinned (system x workload x scale) closed-loop cases through
:func:`repro.bench.parallel.execute_specs` and pins each one's
*simulated* outcome — run fingerprint, events dispatched, commits — in
``BENCH_perf.json`` (schema ``repro-perf/4``). ``--check`` re-runs the
matrix and compares those three fields **exactly** against the
committed report; ``--cores N`` re-runs it at jobs levels {1, 2, N},
enforces the same equality between levels and records the measured
fan-out — the report's only host-specific content.

Nothing here gates on a timing: simulated results are
machine-independent, and a single wall-clock draw on a shared host
resolves nothing. Wall, RSS and profiles are claimed with ``python3 -m
perfbench`` and ``make pairs`` (CONTRIBUTING.md, "Claiming a gain").
The matrix is part of the schema: editing it means regenerating the
committed report in the same change.

Still a blessed wall-clock reader (with :mod:`repro.bench.harness`):
the sweep times each jobs level and :func:`calibrate` scores the host
for ``perfbench``; neither feeds back into a simulation.
"""

from __future__ import annotations

import os
import time
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

#: Bump when the report layout or the pinned matrix changes shape.
#: /4: case rows are parameters plus the three pins, nothing host-side;
#: ``machine`` (host stanza + jobs sweep) exists on ``--cores`` reports.
SCHEMA = "repro-perf/4"

#: Where ``repro perf`` writes (and ``--check`` reads) by default.
DEFAULT_REPORT = "BENCH_perf.json"

#: The per-case fields ``--check`` and the sweep compare, exactly.
PINNED = ("fingerprint", "sim_events", "commits")


def _case(name: str, system: str, workload: WorkloadSpec, clients: int = 16,
          duration_ms: float = 800.0, sites: int = 3) -> RunSpec:
    return RunSpec(
        system=system,
        workload=workload,
        num_clients=clients,
        duration_ms=duration_ms,
        warmup_ms=duration_ms / 4,
        cluster=ClusterConfig(num_sites=sites),
        seed=11,
        label=name,
    )


# Workload knobs are pinned here, not taken from the CLI: the matrix
# must mean the same thing in every report it is compared against.
_YCSB = WorkloadSpec.of("ycsb", num_partitions=200, rmw_fraction=0.5,
                        zipf_theta=0.5)
_YCSB_SKEW = WorkloadSpec.of("ycsb", num_partitions=200, rmw_fraction=0.5,
                             zipf_theta=0.9)

#: The pinned matrix: every system on the shared YCSB scale, plus
#: skew / multi-workload / larger-scale cells for the primary system.
PERF_MATRIX: Tuple[RunSpec, ...] = (
    _case("dynamast-ycsb", "dynamast", _YCSB),
    _case("single-master-ycsb", "single-master", _YCSB),
    _case("multi-master-ycsb", "multi-master", _YCSB),
    _case("partition-store-ycsb", "partition-store", _YCSB),
    _case("leap-ycsb", "leap", _YCSB),
    _case("dynamast-ycsb-skew", "dynamast", _YCSB_SKEW),
    _case("dynamast-tpcc", "dynamast",
          WorkloadSpec.of("tpcc", warehouses=4, items=1000)),
    _case("dynamast-smallbank", "dynamast",
          WorkloadSpec.of("smallbank", users=4000)),
    _case("dynamast-ycsb-large", "dynamast", _YCSB, clients=32,
          duration_ms=1500.0, sites=4),
)


def calibrate(loops: int = 200_000, rounds: int = 3) -> float:
    """Score this host: kops/s of a fixed pure-Python integer loop.

    Best-of-``rounds`` to shrug off scheduler noise. The loop is
    deliberately interpreter-bound (no allocation, no C fast paths) so
    the score tracks the same resource the simulator burns. Not used
    here; ``perfbench/driver.py`` stamps it on its reports.
    """
    best = 0.0
    for _ in range(rounds):
        start = time.perf_counter()
        acc = 0
        for i in range(loops):
            acc = (acc * 31 + i) % 1_000_003
        elapsed = time.perf_counter() - start
        if elapsed > 0:
            best = max(best, loops / elapsed / 1000.0)
    return round(best, 1)


def case_params(spec: RunSpec) -> Dict:
    """The pinned parameters of one matrix row, as the report stores them."""
    return {
        "system": spec.system,
        "workload": spec.workload.name,
        "workload_params": dict(spec.workload.params),
        "clients": spec.num_clients,
        "sites": spec.cluster.num_sites,
        "duration_ms": spec.duration_ms,
        "seed": spec.seed,
    }


def run_cases(specs: Sequence[RunSpec],
              jobs: int = 1) -> Tuple[Dict[str, Dict], float]:
    """Execute ``specs`` at one jobs level: ``(machine-independent rows
    by case name, elapsed host seconds)``."""
    started = time.perf_counter()
    summaries = execute_specs(specs, jobs=jobs)
    elapsed = time.perf_counter() - started
    rows = {
        spec.label: dict(
            case_params(spec),
            fingerprint=summary.fingerprint,
            sim_events=summary.events_processed,
            commits=summary.metrics.commits,
        )
        for spec, summary in zip(specs, summaries)
    }
    return rows, elapsed


def sweep_levels(cores: int) -> List[int]:
    """The jobs levels a ``--cores N`` sweep runs: {1, 2, N}, sorted."""
    if cores < 1:
        raise ValueError(f"--cores must be >= 1, got {cores}")
    return sorted({1, 2, cores} if cores >= 2 else {1})


def run_sweep(specs: Sequence[RunSpec], cores: int = 2, emit=print,
              executor=run_cases) -> Dict:
    """Run the matrix at each sweep level and assemble the report.

    The jobs=1 pass supplies the case rows. Higher levels re-run the
    same specs over worker processes and must reproduce every pinned
    field of the serial pass (``RuntimeError`` otherwise). Each level
    adds a sweep row: ``fanout_speedup`` is elapsed@jobs=1 over
    elapsed@jobs=j — the wall-clock win of fanning out on *this* host,
    which CI's parallel-parity job asserts >= 1.3 on multi-core runners
    — and ``efficiency`` is that per worker. ``limited_by_host`` marks
    a sweep with more workers than ``machine.cpu_count``, so a
    host-limited fan-out reads differently from a flat one.
    ``executor`` is injectable for unit tests.
    """
    levels = sweep_levels(cores)
    sweep: List[Dict] = []
    serial_rows: Dict[str, Dict] = {}
    serial_elapsed = 0.0
    for level in levels:
        rows, elapsed = executor(specs, level)
        if level == 1:
            serial_rows, serial_elapsed = rows, elapsed
        else:
            mismatched = sorted(
                name for name, row in rows.items()
                if any(row[key] != serial_rows[name][key] for key in PINNED)
            )
            if mismatched:
                raise RuntimeError(
                    f"parity violated at jobs={level}: {', '.join(mismatched)}"
                )
        fanout = serial_elapsed / elapsed if elapsed else 0.0
        sweep.append({
            "jobs": level,
            "elapsed_s": round(elapsed, 4),
            "fanout_speedup": round(fanout, 3),
            "efficiency": round(fanout / level, 3),
        })
        if emit is not None:
            emit(f"  sweep jobs={level}: {elapsed:.1f}s elapsed, "
                 f"fan-out x{fanout:.2f}")
    return {
        "schema": SCHEMA,
        "machine": dict(host_stanza(), parallel={
            "limited_by_host": max(levels) > (os.cpu_count() or 1),
            "sweep": sweep,
        }),
        "cases": serial_rows,
    }


def check_report(current: Dict, committed: Dict) -> List[str]:
    """Compare a fresh run against the committed report, exactly.

    Returns failure strings (empty = pass): one per pinned field that
    differs and one per case present on only one side. Simulated
    outcomes are machine-independent, so any drift means the simulation
    changed and the report must be regenerated deliberately.
    """
    failures: List[str] = []
    for name in sorted(set(current["cases"]) | set(committed["cases"])):
        fresh = current["cases"].get(name)
        pinned = committed["cases"].get(name)
        if fresh is None or pinned is None:
            side = "fresh run" if pinned is None else "committed report"
            failures.append(f"{name}: only in the {side}")
            continue
        failures += [
            f"{name}: {key} {fresh[key]} != committed {pinned.get(key)}"
            for key in PINNED if fresh[key] != pinned.get(key)
        ]
    return failures


def main(*, check: bool = False, out: str = DEFAULT_REPORT, jobs: int = 1,
         cores: Optional[int] = None, emit=print) -> int:
    """Drive a perf run; returns a process exit code.

    ``check=False``: run the matrix over ``jobs`` workers — or, with
    ``cores``, the jobs sweep — and write ``out``. ``check=True``: run
    it and compare the pins against the committed :data:`DEFAULT_REPORT`;
    never writes; exit 1 on any mismatch.
    """
    # Load up front so a missing or stale file fails before the matrix runs.
    committed = load_report(DEFAULT_REPORT, SCHEMA) if check else None
    emit(f"perf: running {len(PERF_MATRIX)} case(s), "
         + (f"cores sweep {sweep_levels(cores)}" if cores else f"jobs={jobs}"))
    if cores:
        payload = run_sweep(PERF_MATRIX, cores=cores, emit=emit)
    else:
        payload = {"schema": SCHEMA, "cases": run_cases(PERF_MATRIX, jobs)[0]}
    for name, row in payload["cases"].items():
        emit(f"  {name:<24} {row['fingerprint']}  "
             f"{row['sim_events']:>9,} events  {row['commits']:>7,} commits")

    if check:
        failures = check_report(payload, committed)
        for failure in failures:
            emit(f"  FAIL {failure}")
        if failures:
            emit(f"perf: {len(failures)} check(s) failed vs {DEFAULT_REPORT}")
            return 1
        emit(f"perf: {', '.join(PINNED)} identical to {DEFAULT_REPORT}")
        return 0

    write_report(payload, out)
    emit(f"wrote {out}")
    return 0
