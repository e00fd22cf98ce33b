"""Serial-vs-parallel bit-identity, pinned for every driver.

The non-negotiable contract of :mod:`repro.bench.parallel`: a parallel
sweep produces fingerprints bit-identical to the serial sweep — for
``run_suite``, ``run_repeated``, the perf matrix, and the chaos
fan-out — and the ``jobs=1`` path is itself bit-identical to calling
:func:`~repro.bench.harness.run_benchmark` directly (the pre-engine
code path). Scales are tiny; what matters is that every driver's
parallel plumbing funnels through the same simulation.
"""

import pytest

from repro.bench.harness import run_benchmark
from repro.bench.parallel import RunSummary, WorkloadSpec, run_fingerprint
from repro.bench.perf import run_cases
from repro.bench.repeat import run_repeated
from repro.bench.experiments import run_suite
from repro.faults.chaos import run_chaos, run_chaos_matrix
from repro.sim.config import ClusterConfig
from tests.test_perf_harness import TINY_MATRIX

SYSTEMS = ("dynamast", "single-master")
TINY = dict(num_clients=4, duration_ms=200.0, warmup_ms=40.0)
CLUSTER = dict(num_sites=2, cores_per_site=2)


def tiny_workload_spec():
    return WorkloadSpec.of("ycsb", num_partitions=16, rmw_fraction=0.5)


class TestRunSuiteParity:
    def test_parallel_matches_serial(self):
        spec = tiny_workload_spec()
        serial = run_suite(spec, systems=SYSTEMS, cluster=CLUSTER,
                           seed=3, jobs=1, **TINY)
        parallel = run_suite(spec, systems=SYSTEMS, cluster=CLUSTER,
                             seed=3, jobs=2, **TINY)
        assert list(parallel) == list(SYSTEMS)  # deterministic order
        for system in SYSTEMS:
            assert isinstance(parallel[system], RunSummary)
            assert parallel[system].fingerprint == run_fingerprint(serial[system])

    def test_jobs1_matches_direct_run_benchmark(self):
        """The serial path is the pre-engine path, bit for bit."""
        spec = tiny_workload_spec()
        suite = run_suite(spec, systems=("dynamast",), cluster=CLUSTER,
                          seed=3, jobs=1, **TINY)
        direct = run_benchmark(
            "dynamast", spec.build(),
            cluster_config=ClusterConfig(**CLUSTER), seed=3, **TINY,
        )
        assert run_fingerprint(suite["dynamast"]) == run_fingerprint(direct)

    def test_observed_runs_fold_identical_attribution(self):
        spec = tiny_workload_spec()
        serial = run_suite(spec, systems=("dynamast",), cluster=CLUSTER,
                           seed=3, jobs=1, observed=True, **TINY)
        parallel = run_suite(spec, systems=("dynamast",), cluster=CLUSTER,
                             seed=3, jobs=2, observed=True, **TINY)
        live, summary = serial["dynamast"], parallel["dynamast"]
        assert summary.fingerprint == run_fingerprint(live)
        assert summary.attribution_shares  # folded worker-side
        assert summary.attribution_shares == live.portable().attribution_shares

    def test_mastery_runs_fold_identical_summaries(self):
        """--jobs N mastering runs carry the same scalars as serial,
        and attaching the ledger never perturbs the simulation."""
        spec = tiny_workload_spec()
        kwargs = dict(systems=SYSTEMS, cluster=CLUSTER, seed=3, **TINY)
        plain = run_suite(spec, jobs=1, **kwargs)
        serial = run_suite(spec, jobs=1, mastery=True, **kwargs)
        parallel = run_suite(spec, jobs=2, mastery=True, **kwargs)
        for system in SYSTEMS:
            live, summary = serial[system], parallel[system]
            # Passive recorder: mastering-observed == unobserved.
            assert summary.fingerprint == run_fingerprint(plain[system])
            assert summary.fingerprint == run_fingerprint(live)
            # The folded scalars match the live ledger's summary.
            assert summary.mastery == live.ledger.summary()
            assert summary.mastery["updates_routed"] > 0

    def test_faulted_suite_parity(self):
        spec = tiny_workload_spec()
        kwargs = dict(systems=("dynamast",), cluster=CLUSTER, seed=3,
                      fault_scenario="crash", **TINY)
        serial = run_suite(spec, jobs=1, **kwargs)
        parallel = run_suite(spec, jobs=2, **kwargs)
        assert parallel["dynamast"].fingerprint == \
            run_fingerprint(serial["dynamast"])
        assert parallel["dynamast"].fault_events  # the crash happened

    def test_factory_callable_requires_serial(self):
        with pytest.raises(ValueError, match="Spawn safety"):
            run_suite(lambda: None, systems=("dynamast",), jobs=2)


class TestRunRepeatedParity:
    def test_parallel_matches_serial_across_seeds(self):
        spec = tiny_workload_spec()
        kwargs = dict(seeds=(1, 2), cluster_config=ClusterConfig(**CLUSTER),
                      **TINY)
        serial = run_repeated("dynamast", spec, jobs=1, **kwargs)
        parallel = run_repeated("dynamast", spec, jobs=2, **kwargs)
        for live, summary in zip(serial.runs, parallel.runs):
            assert summary.fingerprint == run_fingerprint(live)
        assert parallel.throughput == serial.throughput
        assert parallel.mean_latency == serial.mean_latency
        assert parallel.p99_latency == serial.p99_latency

    def test_factory_callable_requires_serial(self):
        with pytest.raises(ValueError, match="Spawn safety"):
            run_repeated("dynamast", lambda: None, jobs=2)


class TestPerfMatrixParity:
    def test_parallel_matrix_simulated_quantities_match_serial(self):
        """The perf rows are simulated quantities only, so a fanned-out
        matrix must equal the serial one row for row, in spec order."""
        serial, _ = run_cases(TINY_MATRIX, jobs=1)
        parallel, _ = run_cases(TINY_MATRIX, jobs=2)
        assert list(parallel) == [spec.label for spec in TINY_MATRIX]
        assert parallel == serial
        assert all(row["sim_events"] and row["commits"]
                   for row in serial.values())


class TestChaosMatrixParity:
    def test_matrix_cell_matches_run_chaos(self):
        kwargs = dict(num_sites=2, num_clients=4, duration_ms=1500.0,
                      bucket_ms=250.0, seed=4)
        single = run_chaos("dynamast", "crash", **kwargs)
        matrix = run_chaos_matrix(("dynamast",), ("crash",), jobs=2, **kwargs)
        cell = matrix[("dynamast", "crash")]
        assert cell.commits == single.commits
        assert cell.aborts_by_reason == single.aborts_by_reason
        assert cell.fault_events == single.fault_events
        assert cell.buckets == single.buckets
        assert cell.steady_rate() == single.steady_rate()

    def test_matrix_order_is_systems_outer_scenarios_inner(self):
        matrix = run_chaos_matrix(
            ("dynamast", "single-master"), ("crash", "partition"),
            jobs=1, num_sites=2, num_clients=2, duration_ms=400.0, seed=4,
        )
        assert list(matrix) == [
            ("dynamast", "crash"), ("dynamast", "partition"),
            ("single-master", "crash"), ("single-master", "partition"),
        ]
