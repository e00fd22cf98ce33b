"""Serial-vs-parallel bit-identity, pinned for every driver.

The non-negotiable contract of :mod:`repro.bench.parallel`: a parallel
sweep produces fingerprints bit-identical to the serial sweep — for
``run_suite``, the perf matrix, and the chaos
fan-out — and the ``jobs=1`` path is itself bit-identical to calling
:func:`~repro.bench.harness.run_benchmark` directly (the reference).
Every driver runs the same :class:`RunSpec` rows at every ``jobs``, so
what is pinned here is that a worker process changes nothing, that
every flag a row can carry works at both, and that no recorder a flag
attaches perturbs the simulation. Scales are tiny.
"""

import pytest

from repro.bench.harness import ALL_SYSTEMS, RunResult, run_benchmark
from repro.bench.parallel import (
    RunSpec,
    WorkloadSpec,
    execute_spec,
    execute_specs,
    run_fingerprint,
)
from repro.bench.perf import run_cases
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
        assert isinstance(left, RunResult) and isinstance(right, RunResult)
        assert left.fingerprint == right.fingerprint
        assert left.metrics.commits > 0


#: What a RunSpec flag leaves on a run, comparable across processes.
FLAG_RECORDS = {
    "slo": lambda run: run.slo.to_jsonl(),
    "offered_rate": lambda run: run.offered_rate,
}


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
            summary = serial[system].ledger.summary()
            assert parallel[system].ledger.summary() == summary
            assert summary["updates_routed"] > 0

    def test_a_ledger_does_not_depend_on_the_runs_before_it(self):
        """Transaction ids start at 1 in every run: the second row at
        ``jobs=1`` used to number its transactions after the first
        row's, and its ledger named other ``txn_id``s than at ``jobs=2``."""
        specs = [recorder_spec("dynamast"), recorder_spec("dynamast", mastery=True)]
        serial = execute_specs(specs, jobs=1)[1].ledger
        assert serial.summary()["updates_remastered"] > 0
        assert execute_specs(specs, jobs=2)[1].ledger.to_jsonl() == serial.to_jsonl()

    def test_faulted_suite_parity(self):
        serial, parallel = at_both_jobs(("dynamast",), fault_scenario="crash")
        assert_same_runs(serial.values(), parallel.values())
        assert parallel["dynamast"].fault_events  # the crash happened

    @pytest.mark.parametrize("flag,recorded", [
        (dict(slo=True), "slo"),
        (dict(open_loop=OpenLoopSpec.of("constant", rate_tps=2000.0)),
         "offered_rate"),
    ])
    def test_every_run_spec_flag_works_at_both_jobs(self, flag, recorded):
        """``slo`` died at jobs=1 and both were refused at jobs=2 while
        the drivers kept their own allow-list of RunSpec fields."""
        read = FLAG_RECORDS[recorded]
        serial, parallel = at_both_jobs(SYSTEMS, **flag)
        assert_same_runs(serial.values(), parallel.values())
        for system in SYSTEMS:
            assert read(serial[system])
            assert read(parallel[system]) == read(serial[system])


def recorded_run(system, recorder):
    """One tiny run with ``recorder`` switched on."""
    if recorder == "observed":  # a live tracer, which no RunSpec carries
        return run_benchmark(
            system, tiny_workload_spec().build(),
            cluster_config=ClusterConfig(**CLUSTER), seed=3,
            obs=Observability(), **TINY,
        )
    (result,) = execute_specs([recorder_spec(system, **{recorder: True})])
    return result


#: Recorder -> what it recorded on a run.
RECORDERS = {
    "observed": lambda run: len(run.obs.tracer.spans),
    "mastery": lambda run: run.ledger.summary(),
    "slo": lambda run: run.slo.summary(),
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
        assert plain[system].ledger is None and plain[system].slo is None
        if flag == "mastery" and system == "dynamast":
            assert recorded.ledger.summary()["decisions"] > 0


class TestOneResultShape:
    def test_live_result_and_its_portable_form_agree(self):
        """The portable form carries the live result's recorders whole."""
        live = execute_spec(recorder_spec("dynamast", mastery=True, slo=True))
        portable = live.portable()
        assert portable.ledger is live.ledger and portable.slo is live.slo
        assert portable.ledger.summary()["decisions"] > 0
        assert portable.slo.summary()["windows_evaluated"] > 0
        assert portable.fingerprint == live.fingerprint

    def test_detached_recorder_is_not_folded(self):
        """A recorder taken off a live result before ``portable()`` is
        not carried; the attribute stays assignable."""
        live = execute_spec(recorder_spec("dynamast", mastery=True))
        ledger, live.ledger = live.ledger, None
        assert live.portable().ledger is None
        live.ledger = ledger
        assert live.portable().ledger is ledger


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
        kwargs = dict(num_sites=2, num_clients=4, duration_ms=1500.0, seed=4)
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
