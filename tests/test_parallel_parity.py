"""Serial-vs-parallel bit-identity, pinned for every driver.

The non-negotiable contract of :mod:`repro.bench.parallel`: a parallel
sweep produces fingerprints bit-identical to the serial sweep — for
``run_suite``, ``run_repeated``, the perf matrix, and the chaos
fan-out — and the ``jobs=1`` path is itself bit-identical to calling
:func:`~repro.bench.harness.run_benchmark` directly (the reference).
Every driver runs the same :class:`RunSpec` rows at every ``jobs``, so
what is pinned here is that a worker process changes nothing, that
every flag a row can carry works at both, and that no recorder a flag
attaches perturbs the simulation. Scales are tiny.
"""

import pytest

from repro.bench.harness import ALL_SYSTEMS, run_benchmark
from repro.bench.parallel import (
    RunSpec,
    RunSummary,
    WorkloadSpec,
    execute_spec,
    execute_specs,
    run_fingerprint,
)
from repro.bench.perf import run_cases
from repro.bench.repeat import run_repeated
from repro.bench.experiments import run_suite
from repro.faults.chaos import run_chaos, run_chaos_matrix
from repro.obs import Observability
from repro.sim.config import ClusterConfig
from repro.workloads.openloop import OpenLoopSpec
from tests.test_perf_harness import TINY_MATRIX

SYSTEMS = ("dynamast", "single-master")
TINY = dict(num_clients=4, duration_ms=200.0, warmup_ms=40.0)
CLUSTER = dict(num_sites=2, cores_per_site=2)


def tiny_workload_spec():
    return WorkloadSpec.of("ycsb", num_partitions=16, rmw_fraction=0.5)


def recorder_spec(system, **flags):
    return RunSpec(system=system, workload=tiny_workload_spec(),
                   cluster=ClusterConfig(**CLUSTER), seed=3, **TINY, **flags)


def at_both_jobs(systems, **flags):
    """The rows ``run_suite`` builds, plus ``flags``, at jobs 1 and 2."""
    specs = [recorder_spec(system, **flags) for system in systems]
    return (dict(zip(systems, execute_specs(specs, jobs=1))),
            dict(zip(systems, execute_specs(specs, jobs=2))))


def assert_same_runs(serial, parallel):
    for left, right in zip(serial, parallel):
        assert isinstance(left, RunSummary) and isinstance(right, RunSummary)
        assert left.fingerprint == right.fingerprint
        assert left.metrics.commits > 0


class TestRunSuiteParity:
    def test_parallel_matches_serial(self):
        spec = tiny_workload_spec()
        serial = run_suite(spec, systems=SYSTEMS, cluster=CLUSTER,
                           seed=3, jobs=1, **TINY)
        parallel = run_suite(spec, systems=SYSTEMS, cluster=CLUSTER,
                             seed=3, jobs=2, **TINY)
        assert list(parallel) == list(serial) == list(SYSTEMS)  # deterministic order
        assert_same_runs(serial.values(), parallel.values())

    def test_jobs1_matches_direct_run_benchmark(self):
        """The spec path is the plain ``run_benchmark`` call, bit for bit."""
        spec = tiny_workload_spec()
        suite = run_suite(spec, systems=("dynamast",), cluster=CLUSTER,
                          seed=3, jobs=1, **TINY)
        direct = run_benchmark(
            "dynamast", spec.build(),
            cluster_config=ClusterConfig(**CLUSTER), seed=3, **TINY,
        )
        assert suite["dynamast"].fingerprint == run_fingerprint(direct)

    def test_mastery_runs_fold_identical_summaries(self):
        serial, parallel = at_both_jobs(SYSTEMS, mastery=True)
        assert_same_runs(serial.values(), parallel.values())
        for system in SYSTEMS:
            assert parallel[system].mastery == serial[system].mastery
            assert serial[system].mastery["updates_routed"] > 0

    def test_faulted_suite_parity(self):
        serial, parallel = at_both_jobs(("dynamast",), fault_scenario="crash")
        assert_same_runs(serial.values(), parallel.values())
        assert parallel["dynamast"].fault_events  # the crash happened

    @pytest.mark.parametrize("flag,folded", [
        (dict(slo=True), "slo_verdict"),
        (dict(open_loop=OpenLoopSpec.of("constant", rate_tps=2000.0)),
         "offered_rate"),
    ])
    def test_every_run_spec_flag_works_at_both_jobs(self, flag, folded):
        """``slo`` died at jobs=1 and both were refused at jobs=2 while
        the drivers kept their own allow-list of RunSpec fields."""
        serial, parallel = at_both_jobs(SYSTEMS, **flag)
        assert_same_runs(serial.values(), parallel.values())
        for system in SYSTEMS:
            assert getattr(serial[system], folded)
            assert getattr(parallel[system], folded) == \
                getattr(serial[system], folded)


class TestRunRepeatedParity:
    def test_parallel_matches_serial_across_seeds(self):
        spec = tiny_workload_spec()
        kwargs = dict(seeds=(1, 2), cluster_config=ClusterConfig(**CLUSTER),
                      **TINY)
        serial = run_repeated("dynamast", spec, jobs=1, **kwargs)
        parallel = run_repeated("dynamast", spec, jobs=2, **kwargs)
        assert_same_runs(serial.runs, parallel.runs)
        assert serial.runs[0].fingerprint != serial.runs[1].fingerprint
        assert parallel.throughput == serial.throughput
        assert parallel.mean_latency == serial.mean_latency
        assert parallel.p99_latency == serial.p99_latency


def recorded_run(system, recorder):
    """One tiny run with ``recorder`` switched on."""
    if recorder == "observed":  # a live tracer, which no RunSpec carries
        return run_benchmark(
            system, tiny_workload_spec().build(),
            cluster_config=ClusterConfig(**CLUSTER), seed=3,
            obs=Observability(), **TINY,
        )
    (summary,) = execute_specs([recorder_spec(system, **{recorder: True})])
    return summary


#: Recorder -> what it recorded on a run.
RECORDERS = {
    "observed": lambda run: len(run.obs.tracer.spans),
    "mastery": lambda run: run.mastery,
    "slo": lambda run: run.slo_verdict,
}


class TestPassiveRecorders:
    """Every recorder records and changes nothing simulated — on every
    system."""

    @pytest.fixture(scope="class")
    def plain(self):
        specs = [recorder_spec(system) for system in ALL_SYSTEMS]
        return dict(zip(ALL_SYSTEMS, execute_specs(specs)))

    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    @pytest.mark.parametrize("flag", RECORDERS)
    def test_on_equals_off(self, plain, flag, system):
        recorded = recorded_run(system, flag)
        assert run_fingerprint(recorded) == plain[system].fingerprint
        assert recorded.metrics.commits > 0
        assert RECORDERS[flag](recorded)  # it did record
        assert not plain[system].mastery and not plain[system].slo_verdict
        if flag == "mastery" and system == "dynamast":
            assert recorded.mastery["decisions"] > 0


class TestOneResultShape:
    def test_live_result_and_its_portable_form_agree(self):
        """``mastery`` and ``slo_verdict`` read the same off a live
        result as off the summary folded from it."""
        live = execute_spec(recorder_spec("dynamast", mastery=True, slo=True))
        summary = live.portable()
        for name in ("mastery", "slo_verdict"):
            folded = getattr(summary, name)
            assert folded and isinstance(folded, dict)
            assert getattr(live, name) == folded
        assert live.ledger is not None and summary.ledger is None

    def test_detached_recorder_is_not_folded(self):
        """A recorder taken off a live result before ``portable()`` is
        not folded; the attribute stays assignable."""
        live = execute_spec(recorder_spec("dynamast", mastery=True))
        ledger, live.ledger = live.ledger, None
        assert live.portable().mastery == {}
        live.ledger = ledger
        assert live.portable().mastery


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
