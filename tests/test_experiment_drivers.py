"""Micro-scale smoke tests for the experiment drivers.

The real figure regenerations live under ``benchmarks/``; these tests
only verify the drivers' plumbing (argument handling, result shapes) at
a few milliseconds of simulated time.
"""

from repro.bench.experiments import run_suite
from repro.bench.parallel import RunSummary, WorkloadSpec

TINY_YCSB = WorkloadSpec.of("ycsb", num_partitions=40, affinity_txns=30)


class TestRunSuite:
    def test_runs_requested_systems(self):
        results = run_suite(
            TINY_YCSB,
            systems=("dynamast", "partition-store"),
            cluster=dict(num_sites=2, cores_per_site=2),
            num_clients=4,
            duration_ms=150.0,
            warmup_ms=30.0,
        )
        assert set(results) == {"dynamast", "partition-store"}
        for result in results.values():
            assert isinstance(result, RunSummary)
            assert result.metrics.commits > 0

    def test_fresh_workload_per_system(self):
        """Each system must get its own workload instance (generators
        hold mutable state): a spec builds a new one per call."""
        first, second = TINY_YCSB.build(), TINY_YCSB.build()
        assert first is not second
        assert first.order is not second.order

    def test_seed_passthrough(self):
        def run(seed):
            results = run_suite(
                TINY_YCSB,
                systems=("dynamast",),
                cluster=dict(num_sites=2, cores_per_site=2),
                num_clients=3,
                duration_ms=120.0,
                warmup_ms=0.0,
                seed=seed,
            )
            return results["dynamast"].metrics.commits

        assert run(1) == run(1)
        assert run(1) != run(2)

    def test_smallbank_suite_shape(self):
        results = run_suite(
            WorkloadSpec.of("smallbank", users=500),
            systems=("dynamast",),
            cluster=dict(num_sites=2, cores_per_site=2),
            num_clients=4,
            duration_ms=150.0,
            warmup_ms=30.0,
        )
        types = set(results["dynamast"].metrics.txn_types())
        assert types <= {"single_update", "two_row_update", "balance"}
        assert types
