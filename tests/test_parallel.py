"""The multi-process experiment engine: executor, specs, transport.

Covers :mod:`repro.bench.parallel` at the unit level — ordering,
failure surfacing, and the pickling contract every spawn-shipped type
must honor. The serial-vs-parallel bit-identity of the experiment
drivers is pinned separately in ``tests/test_parallel_parity.py``.

Spawn safety note: the worker callables below are module-level on
purpose — a lambda or closure would fail to pickle, which is exactly
the rule CONTRIBUTING.md ("Spawn safety") documents.
"""

import gc
import pickle
import subprocess
import sys
import weakref

import pytest

from repro.bench import parallel
from repro.bench.harness import RunResult, run_benchmark
from repro.bench.parallel import (
    ParallelExecutor,
    RunSpec,
    SpecExecutionError,
    WorkloadSpec,
    _spec_worker,
    execute_specs,
    run_fingerprint,
)
from repro.core.strategy import StrategyWeights
from repro.faults.plan import SCENARIOS, FaultPlan, build_scenario
from repro.sim.config import ClusterConfig
from repro.workloads import YCSBConfig, YCSBWorkload, build_workload


def _square(value):
    return value * value


def _explode_on_three(value):
    if value == 3:
        raise RuntimeError("boom at three")
    return value * 10


def tiny_spec(system="dynamast", **overrides):
    base = dict(
        system=system,
        workload=WorkloadSpec.of("ycsb", num_partitions=16),
        num_clients=4,
        duration_ms=150.0,
        warmup_ms=30.0,
        cluster=ClusterConfig(num_sites=2, cores_per_site=2),
        seed=9,
    )
    base.update(overrides)
    return RunSpec(**base)


def run_spec_serially(spec):
    """The reference result: run_benchmark called directly."""
    return run_benchmark(
        spec.system,
        spec.workload.build(),
        num_clients=spec.num_clients,
        duration_ms=spec.duration_ms,
        warmup_ms=spec.warmup_ms,
        cluster_config=spec.cluster,
        seed=spec.seed,
    )


#: One short unobserved run, as a subprocess program; binds ``result``.
SHORT_RUN = (
    "from repro.bench import run_benchmark\n"
    "from repro.bench.parallel import run_fingerprint\n"
    "from repro.sim.config import ClusterConfig\n"
    "from repro.workloads import build_workload\n"
    "result = run_benchmark('dynamast', build_workload('ycsb', num_partitions=16),"
    " num_clients=4, duration_ms=150.0, warmup_ms=30.0,"
    " cluster_config=ClusterConfig(num_sites=2), seed=11)\n"
    "assert result.metrics.commits > 0\n"
)

#: Modules an unobserved run never executes, so never imports.
FLOOR_EXCLUDES = (
    "_hashlib", "html",
    "repro.obs.slo", "repro.obs.mastery", "repro.obs.dashboard",
    "repro.obs.export", "repro.obs.attribution", "repro.obs.causal",
    "repro.bench.scale", "repro.bench.experiments", "repro.bench.report",
)

#: Fault machinery an unfaulted run never executes, so never imports
#: unless something else (the chaos driver) asks for it.
FAULT_MACHINERY = (
    "repro.faults.plan", "repro.faults.injector", "repro.faults.detector",
    "repro.faults.deadlines",
)


class TestWorkloadSpec:
    def test_builds_registered_workload(self):
        workload = WorkloadSpec.of("ycsb", num_partitions=16).build()
        assert isinstance(workload, YCSBWorkload)
        assert workload.config.num_partitions == 16

    def test_params_are_canonically_ordered(self):
        a = WorkloadSpec.of("ycsb", zipf_theta=0.5, num_partitions=16)
        b = WorkloadSpec.of("ycsb", num_partitions=16, zipf_theta=0.5)
        assert a == b

    def test_unknown_name_fails_lazily_with_known_names(self):
        spec = WorkloadSpec.of("ycsb2")  # constructing is fine
        with pytest.raises(ValueError, match="ycsb2.*smallbank|smallbank.*ycsb2"):
            spec.build()

    def test_registry_rejects_unknown_param(self):
        with pytest.raises(TypeError):
            build_workload("ycsb", bogus_knob=1)


class TestParallelExecutorSerial:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            ParallelExecutor(0)

    def test_serial_maps_in_order(self):
        assert ParallelExecutor(1).map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_serial_failure_raise_names_the_item(self):
        with pytest.raises(SpecExecutionError, match="boom at three"):
            ParallelExecutor(1).map(_explode_on_three, [3])


class TestParallelExecutorPool:
    def test_pool_preserves_submission_order(self):
        assert ParallelExecutor(2).map(_square, [3, 1, 2, 4]) == [9, 1, 4, 16]

    def test_pool_failure_is_attributed_not_broken_pool(self):
        with pytest.raises(SpecExecutionError) as raised:
            ParallelExecutor(2).map(_explode_on_three, [1, 3, 5])
        error = raised.value
        assert error.item == 3
        assert "BrokenProcessPool" not in str(error)
        assert "boom at three" in str(error)
        # The worker's traceback rides along for debugging.
        assert "RuntimeError" in error.worker_traceback

    def test_pool_machinery_is_imported_only_by_a_parallel_map(self):
        """``import repro.bench`` must not pay for multiprocessing and
        the process-pool module (20-35 ms inside every serial run's
        set-up); the first ``jobs>1`` map imports them and still works."""
        code = (
            "import sys, repro.bench, repro.cli, repro.faults.chaos\n"
            "from repro.bench.parallel import ParallelExecutor\n"
            "assert ParallelExecutor(1).map(abs, [-1, -2]) == [1, 2]\n"
            "for name in ('multiprocessing', 'concurrent.futures.process'):\n"
            "    assert name not in sys.modules, name + ' imported eagerly'\n"
            "assert ParallelExecutor(2).map(abs, [-3, -1, -2]) == [3, 1, 2]\n"
            "assert 'multiprocessing' in sys.modules\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr

    def test_an_unobserved_run_imports_only_what_it_executes(self):
        """The import floor every figure point pays: no OpenSSL (the
        named streams and the fingerprint hash with the builtin
        SHA-256), no recorder, report, dashboard or driver module; and,
        unless the chaos driver was imported, no fault plan, injector,
        detector or deadline module either."""
        for imports, excluded in (
            ("repro.bench, repro.cli, repro.faults.chaos", FLOOR_EXCLUDES),
            ("repro.bench, repro.cli", FLOOR_EXCLUDES + FAULT_MACHINERY),
        ):
            code = (
                f"import sys, {imports}\n"
                + SHORT_RUN
                + f"loaded = [name for name in {excluded!r} if name in sys.modules]\n"
                "assert not loaded, loaded\n"
            )
            done = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                timeout=120,
            )
            assert done.returncode == 0, done.stderr

    def test_hashlib_fallback_hashes_identically(self):
        """Without the builtin SHA-256 module (``_sha2`` on CPython
        >= 3.12, ``_sha256`` before) the streams and the fingerprint
        fall back to ``hashlib``, with the same digests."""
        outputs = []
        for prelude in ("", "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"):
            code = (
                "import sys\n" + prelude + SHORT_RUN
                + "from repro.sim import rand\n"
                "streams = rand.RandomStreams(11)\n"
                "print(run_fingerprint(result), [streams.stream(name).random()"
                " for name in (rand.WORKLOAD_STREAM, 'read-routing',"
                " rand.FAULTS_STREAM, rand.ARRIVALS_STREAM)])\n"
                "print(rand.sha256.__module__, '_hashlib' in sys.modules)\n"
            )
            done = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                timeout=120,
            )
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout.splitlines())
        (lean, lean_source), (fallback, fallback_source) = outputs
        assert lean == fallback
        assert lean_source.endswith("False") and "hashlib" not in lean_source
        assert fallback_source.endswith("True")


class TestSpecFailurePaths:
    """A bad spec yields a clean, attributed error — and only for
    its own slot; neighbors in the same pool still succeed."""

    def test_bad_specs_do_not_poison_good_ones(self):
        good = tiny_spec()
        unknown_workload = tiny_spec(
            workload=WorkloadSpec.of("no-such-workload"), label="bad-workload"
        )
        bad_config = tiny_spec(
            workload=WorkloadSpec.of("ycsb", rmw_fraction=1.5), label="bad-config"
        )
        # The pool's per-slot outcomes, before map raises the first error.
        outcomes = ParallelExecutor(2)._run_pool(
            _spec_worker, [good, unknown_workload, bad_config]
        )
        assert isinstance(outcomes[0], RunResult)
        assert outcomes[0].metrics.commits > 0

        for outcome, label in ((outcomes[1], "bad-workload"),
                               (outcomes[2], "bad-config")):
            assert isinstance(outcome, SpecExecutionError)
            assert label in str(outcome)  # names the offending spec
            assert "BrokenProcessPool" not in str(outcome)

    @pytest.mark.parametrize("field,overrides", [
        ("system", dict(system="no-such-system")),
        ("duration_ms", dict(duration_ms=0.0)),
        ("warmup_ms", dict(duration_ms=100.0, warmup_ms=200.0)),
        ("warmup_ms", dict(duration_ms=100.0, warmup_ms=100.0)),
        ("warmup_ms", dict(warmup_ms=-1.0)),
        ("num_clients", dict(num_clients=0)),
        ("num_clients", dict(num_clients=-3)),
        ("fault_scenario", dict(fault_scenario="meteor-strike")),
    ])
    def test_bad_run_parameters_fail_in_the_parent_by_field(self, field, overrides):
        """A row that could only report ``commits 0`` is refused at
        construction, before any worker is spawned — and by
        ``run_benchmark`` itself for callers that bypass specs."""
        with pytest.raises(ValueError, match=field):
            tiny_spec(**overrides)
        direct = {key: value for key, value in overrides.items()
                  if key in ("system", "num_clients", "duration_ms", "warmup_ms")}
        if direct:
            params = dict(system="dynamast", num_clients=4, duration_ms=150.0,
                          warmup_ms=30.0)
            params.update(direct)
            with pytest.raises(ValueError, match=field):
                run_benchmark(params.pop("system"),
                              build_workload("ycsb", num_partitions=16), **params)

    def test_open_loop_rows_need_no_clients(self):
        from repro.workloads.openloop import OpenLoopSpec

        spec = tiny_spec(num_clients=0,
                         open_loop=OpenLoopSpec.of("constant", rate_tps=500.0))
        assert spec.num_clients == 0

    def test_raise_mode_still_finishes_the_batch_first(self):
        good = tiny_spec()
        bad = tiny_spec(workload=WorkloadSpec.of("nope"), label="doomed")
        with pytest.raises(SpecExecutionError, match="doomed"):
            execute_specs([bad, good], jobs=1)

    def test_unknown_workload_error_names_known_workloads(self):
        bad = tiny_spec(workload=WorkloadSpec.of("nope"))
        with pytest.raises(SpecExecutionError, match="ycsb"):
            execute_specs([bad], jobs=1)


class TestPortableResults:
    def test_portable_summary_pickles_and_round_trips(self):
        result = run_spec_serially(tiny_spec())
        portable = result.portable()
        clone = pickle.loads(pickle.dumps(portable))
        assert clone.metrics.commits == result.metrics.commits
        assert clone.fingerprint == run_fingerprint(result)
        assert clone.throughput == result.throughput
        assert clone.latency().mean == result.latency().mean

    def test_portable_drops_live_handles(self):
        result = run_spec_serially(tiny_spec())
        assert result.system is not None  # the live run keeps its cluster
        portable = result.portable()
        assert portable.system is None and portable.obs is None
        assert portable.ledger is None and portable.slo is None
        assert result.system is not None  # the live result is untouched

    def test_fingerprint_ignores_host_side_measurements(self):
        result = run_spec_serially(tiny_spec())
        before = run_fingerprint(result)
        result.wall_clock_s *= 100.0
        result.events_processed += 12345
        assert run_fingerprint(result) == before

    def test_summary_carries_worker_measurements(self):
        """``run_benchmark`` stamps the host measurements and the
        fingerprint; the portable form keeps them."""
        summary = run_spec_serially(tiny_spec()).portable()
        assert summary.wall_clock_s > 0
        assert summary.events_processed > 0
        assert summary.peak_rss_kb > 0
        assert summary.fingerprint == run_fingerprint(summary)

    def test_a_swept_run_keeps_no_cluster_alive(self, monkeypatch):
        """A jobs=1 sweep holds one portable result per row; neither it
        nor its ledger or SLO engine keeps the cluster reachable."""
        clusters = []
        execute_spec = parallel.execute_spec

        def execute(spec):
            result = execute_spec(spec)
            clusters.append(weakref.ref(result.system.cluster))
            return result

        monkeypatch.setattr(parallel, "execute_spec", execute)
        (result,) = execute_specs([tiny_spec(mastery=True, slo=True)], jobs=1)
        assert result.ledger is not None and result.slo is not None
        gc.unfreeze()  # the run loop froze its heap; let collect see it
        gc.collect()
        assert clusters and clusters[0]() is None


class TestPickleRoundTrips:
    """Every type a RunSpec or a portable RunResult transports must pickle."""

    def test_cluster_config(self):
        config = ClusterConfig(num_sites=5, cores_per_site=3)
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config

    def test_strategy_weights(self):
        weights = StrategyWeights.for_ycsb()
        clone = pickle.loads(pickle.dumps(weights))
        assert clone == weights

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_fault_plan_every_named_scenario(self, scenario):
        plan = build_scenario(scenario, num_sites=3, duration_ms=2000.0)
        clone = pickle.loads(pickle.dumps(plan))
        assert isinstance(clone, FaultPlan)
        assert clone.crashes == plan.crashes
        assert clone.links == plan.links
        clone.validate(num_sites=3)

    @pytest.mark.parametrize("streaming", [False, True])
    def test_folded_metrics(self, streaming):
        result = run_spec_serially(tiny_spec())
        if streaming:
            result = run_benchmark(
                "dynamast",
                YCSBWorkload(YCSBConfig(num_partitions=16)),
                num_clients=4,
                duration_ms=150.0,
                warmup_ms=30.0,
                cluster_config=ClusterConfig(num_sites=2, cores_per_site=2),
                seed=9,
                streaming_metrics=True,
            )
        metrics = result.metrics
        clone = pickle.loads(pickle.dumps(metrics))
        assert clone.commits == metrics.commits
        assert clone.latency().mean == pytest.approx(metrics.latency().mean)
        assert clone.aborts_by_reason == metrics.aborts_by_reason

    def test_finalized_recorders_are_data(self):
        """The ledger and the finalized SLO engine hold no live handle:
        they pickle, and every export reads the same after the trip."""
        (result,) = execute_specs([tiny_spec(mastery=True, slo=True)])
        assert result.slo.sites == () and result.slo.injector is None
        clone = pickle.loads(pickle.dumps(result))
        for name in ("ledger", "slo"):
            recorder, copied = getattr(result, name), getattr(clone, name)
            assert copied.to_jsonl() == recorder.to_jsonl()
            assert copied.summary() == recorder.summary() != {}
        assert clone.fingerprint == result.fingerprint

    def test_run_spec(self):
        spec = tiny_spec(
            weights=StrategyWeights.for_ycsb(), fault_scenario="crash", mastery=True
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
