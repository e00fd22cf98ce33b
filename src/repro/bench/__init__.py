"""Benchmark harness: one run and its metrics.

:func:`~repro.bench.harness.run_benchmark` assembles a cluster, a
system, and a workload, drives ``num_clients`` closed-loop clients for
a simulated duration, and returns a :class:`~repro.bench.harness.RunResult`
with throughput, per-transaction-type latency distributions, the
latency breakdown of Figure 7, remastering/2PC/shipping counts, and
network traffic by category. Passing an
:class:`~repro.workloads.openloop.OpenLoopSpec` switches the run to
open-loop traffic — rate-curve arrivals through per-site admission
queues, with 100k+ modeled clients aggregated into one pool.

This package exports only what every run executes. The rest is
imported from its defining module (DESIGN.md §8, "Import floor"):

* :mod:`repro.bench.parallel` — ``RunSpec`` / ``WorkloadSpec`` rows,
  ``execute_specs`` (serial or over worker processes, returning
  ``RunResult.portable()`` forms), ``run_fingerprint``;
* :mod:`repro.bench.experiments` — a driver for every table and figure
  of the paper's evaluation, exercised by the ``benchmarks/`` tree;
* :mod:`repro.bench.report` — printed tables;
* :mod:`repro.bench.perf` / :mod:`repro.bench.scale` — the pinned
  determinism matrix and the open-loop saturation knees
  (``repro perf [--scale]``).
"""

from repro.bench.harness import RunResult, run_benchmark
from repro.bench.metrics import LatencySummary, Metrics

__all__ = ["LatencySummary", "Metrics", "RunResult", "run_benchmark"]
