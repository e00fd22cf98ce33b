"""Open-loop traffic: client pools, admission queues, harness wiring.

Pins the three contracts the open-loop engine rests on:

* **lean pools** — every workload's client pool, which closed- and
  open-loop clients share, is array-backed or stateless;
* **admission accounting** — ``offered == admitted + shed`` and
  ``admitted == taken + queued`` at every instant, extended by the
  engine to ``taken == completed + in_flight``;
* **determinism** — open-loop runs fingerprint identically run-to-run
  and across ``--jobs`` fan-out, and their specs pickle losslessly
  (the spawn-safety contract).
"""

import pickle
import random
from array import array

import pytest

from repro.bench.harness import run_benchmark
from repro.bench.parallel import (
    RunSpec,
    WorkloadSpec,
    execute_specs,
    run_fingerprint,
)
from repro.sim.config import ClusterConfig
from repro.sim.core import Environment, SimulationError
from repro.sim.resources import AdmissionQueue
from repro.workloads import (
    WORKLOAD_REGISTRY,
    SmallBankWorkload,
    TPCCConfig,
    TPCCWorkload,
    YCSBClientPool,
    YCSBConfig,
    YCSBWorkload,
    build_workload,
)
from repro.workloads.openloop import OpenLoopSpec, goodput_ratio, offered_rate_tps
from repro.workloads.smallbank import SmallBankConfig
from repro.workloads.tpcc import TPCCClientPool
from tests.test_obs_registry import exposition, parse_exposition, sorted_digest


class TestLeanPools:
    """Closed-loop clients and the open-loop engine draw from one pool
    per run, so every pool keeps O(1) machine words per client."""

    @pytest.mark.parametrize("name", sorted(WORKLOAD_REGISTRY))
    def test_every_pool_is_array_backed_or_stateless(self, name):
        workload = build_workload(name)
        pool = workload.client_pool(1000)
        if pool is workload:
            return  # stateless: a client is nothing but its id
        columns = [value for value in vars(pool).values() if value is not workload]
        assert columns
        assert all(isinstance(column, array) and len(column) == 1000
                   for column in columns)

    def test_ycsb_pool_is_array_backed(self):
        pool = YCSBWorkload(YCSBConfig(num_partitions=10)).client_pool(1000)
        assert isinstance(pool, YCSBClientPool)
        assert isinstance(pool._affinity, array)
        assert isinstance(pool._remaining, array)

    def test_tpcc_pool_is_array_backed(self):
        pool = TPCCWorkload(TPCCConfig(warehouses=3)).client_pool(1000)
        assert isinstance(pool, TPCCClientPool)
        assert isinstance(pool._home, array)
        rng = random.Random(1)
        pool.turn(7, rng, 0.0)
        # The first turn draws the home warehouse; later turns keep it.
        home = pool._home[7]
        assert 0 <= home < 3 and pool._home[8] == -1
        turn = pool.turn(7, rng, 1.0)
        assert pool._home[7] == home and turn.txn.client_id == 7

    def test_smallbank_pool_is_stateless(self):
        workload = SmallBankWorkload(SmallBankConfig(users=50))
        assert workload.client_pool(1000) is workload

    def test_pool_rejects_empty_population(self):
        for workload in (YCSBWorkload(YCSBConfig(num_partitions=10)), TPCCWorkload()):
            with pytest.raises(ValueError):
                workload.client_pool(0)


class TestAdmissionQueue:
    def test_conservation_with_backlog(self):
        env = Environment()
        queue = AdmissionQueue(env)
        for item in range(5):
            assert queue.offer(item)
        taken = []

        def drain():
            for _ in range(3):
                taken.append((yield queue.take()))
                yield env.timeout(1.0)

        env.process(drain())
        env.run()
        assert taken == [0, 1, 2]
        assert queue.offered == queue.admitted + queue.shed == 5
        assert queue.admitted == queue.taken + len(queue)
        assert queue.peak_depth == 5

    def test_bounded_queue_sheds(self):
        env = Environment()
        queue = AdmissionQueue(env, capacity=2)
        results = [queue.offer(i) for i in range(5)]
        assert results == [True, True, False, False, False]
        assert queue.shed == 3
        assert queue.offered == queue.admitted + queue.shed == 5

    def test_fast_path_hands_to_waiting_getter(self):
        env = Environment()
        queue = AdmissionQueue(env, capacity=1)
        got = []

        def getter():
            got.append((yield queue.take()))

        env.process(getter())
        env.run()  # getter now parked on an empty queue

        def offer_two():
            # First offer lands on the waiting getter (never queued);
            # second occupies the single backlog slot.
            assert queue.offer("direct")
            assert queue.offer("queued")
            assert not queue.offer("shed")
            yield env.timeout(0.0)

        env.process(offer_two())
        env.run()
        assert got == ["direct"]
        assert queue.taken == 1 and len(queue) == 1
        assert queue.admitted == queue.taken + len(queue)
        assert queue.peak_depth == 1  # the direct handoff never queued

    def test_mean_depth_is_time_weighted(self):
        env = Environment()
        queue = AdmissionQueue(env)

        def script():
            queue.offer("a")  # depth 1 over [0, 10)
            yield env.timeout(10.0)
            queue.offer("b")  # depth 2 over [10, 20)
            yield env.timeout(10.0)
            yield queue.take()
            yield queue.take()  # depth 0 from 20 on

        env.process(script())
        env.run(until=40.0)
        # depth 1 over [0,10), depth 2 over [10,20), 0 after: area 30.
        assert queue.mean_depth(40.0) == pytest.approx(30.0 / 40.0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(SimulationError):
            AdmissionQueue(Environment(), capacity=-1)


class TestOpenLoopSpec:
    def test_of_sorts_curve_params(self):
        spec = OpenLoopSpec.of("diurnal", peak_tps=800.0, base_tps=100.0,
                               period_ms=200.0)
        assert [name for name, _ in spec.curve_params] == [
            "base_tps", "peak_tps", "period_ms"]
        curve = spec.build_curve()
        assert curve.peak() == 800.0

    def test_scaled_multiplies_only_rates(self):
        spec = OpenLoopSpec.of("diurnal", base_tps=100.0, peak_tps=800.0,
                               period_ms=200.0)
        doubled = dict(spec.scaled(2.0).curve_params)
        assert doubled == {"base_tps": 200.0, "peak_tps": 1600.0,
                           "period_ms": 200.0}

    def test_validation(self):
        with pytest.raises(ValueError):
            OpenLoopSpec(modeled_clients=0)
        with pytest.raises(ValueError):
            OpenLoopSpec(admission_concurrency=0)
        with pytest.raises(ValueError):
            OpenLoopSpec(queue_capacity=-1)

    def test_pickle_round_trip(self):
        spec = OpenLoopSpec.of("diurnal", base_tps=50.0, peak_tps=500.0,
                               period_ms=100.0, modeled_clients=64,
                               queue_capacity=32)
        assert pickle.loads(pickle.dumps(spec)) == spec


def open_loop_spec(**overrides):
    base = dict(rate_tps=400.0, modeled_clients=64, admission_concurrency=2)
    base.update(overrides)
    return OpenLoopSpec.of("constant", **base)


def tiny_run(system="dynamast", open_loop=None, seed=9, **overrides):
    workload = YCSBWorkload(YCSBConfig(num_partitions=16))
    base = dict(
        duration_ms=200.0,
        warmup_ms=50.0,
        cluster_config=ClusterConfig(num_sites=2, cores_per_site=2),
        seed=seed,
        open_loop=open_loop or open_loop_spec(),
    )
    base.update(overrides)
    return run_benchmark(system, workload, **base)


class TestHarnessIntegration:
    def test_counters_conserve(self):
        result = tiny_run()
        counters = result.metrics.open_loop_counters
        assert counters["offered"] > 0
        assert counters["offered"] == counters["admitted"] + counters["shed"]
        assert counters["admitted"] == counters["taken"] + counters["queued_end"]
        assert counters["taken"] == counters["completed"] + counters["in_flight"]
        assert result.offered_rate == pytest.approx(
            offered_rate_tps(counters, 150.0))
        ratio = goodput_ratio(counters, result.metrics.commits)
        assert ratio is not None and 0.0 < ratio <= 1.0

    def test_bounded_queue_sheds_under_overload(self):
        result = tiny_run(open_loop=open_loop_spec(
            rate_tps=4000.0, admission_concurrency=1, queue_capacity=4))
        counters = result.metrics.open_loop_counters
        assert counters["shed"] > 0
        assert counters["peak_depth"] <= 4
        assert counters["offered"] == counters["admitted"] + counters["shed"]

    def test_admission_wait_summarized(self):
        result = tiny_run()
        wait = result.metrics.admission_wait()
        assert wait.count > 0
        assert wait.p99 >= wait.p50 >= 0.0

    def test_queue_state_reaches_prometheus(self):
        result = tiny_run(open_loop=open_loop_spec(
            rate_tps=4000.0, admission_concurrency=1, queue_capacity=4))
        text = exposition(result.metrics)
        shed = {labels: float(value) for name, labels, value in parse_exposition(text)
                if name == "repro_openloop_queue_shed_total"}
        assert shed == {f'{{site="{entry["site"]}"}}': entry["shed"]
                        for entry in result.metrics.open_loop_sites}
        assert text.count("# TYPE repro_openloop_queue_depth gauge") == 1
        assert "repro_admission_wait_ms_count" in text
        # Sorted-line digest of the deleted Metrics.to_prometheus,
        # re-taken once when each wire leg became its own timed phase
        # (the network and other phase totals moved by float rounding).
        assert sorted_digest(text) == (
            "fed714e50d13637e89b3b42b400c070cd4374907d902ecce9f54d0c4ab6edbef")

    def test_closed_loop_runs_have_no_open_loop_counters(self):
        workload = YCSBWorkload(YCSBConfig(num_partitions=16))
        result = run_benchmark(
            "dynamast", workload, num_clients=4, duration_ms=150.0,
            warmup_ms=30.0,
            cluster_config=ClusterConfig(num_sites=2, cores_per_site=2),
            seed=9)
        assert result.metrics.open_loop_counters == {}
        assert result.offered_rate == 0.0

    def test_run_to_run_fingerprint_stability(self):
        first = run_fingerprint(tiny_run().portable())
        second = run_fingerprint(tiny_run().portable())
        assert first == second

    def test_seed_changes_fingerprint(self):
        assert run_fingerprint(tiny_run(seed=9).portable()) != \
            run_fingerprint(tiny_run(seed=10).portable())

    def test_streaming_metrics_match_exact_fingerprint_inputs(self):
        # Streaming histograms fold admission waits identically enough
        # for the fingerprint's rounded sums to agree with exact mode.
        exact = tiny_run()
        streaming = tiny_run(streaming_metrics=True)
        assert exact.metrics.admission_wait_total() == pytest.approx(
            streaming.metrics.admission_wait_total())
        assert exact.metrics.open_loop_counters == \
            streaming.metrics.open_loop_counters


def open_loop_run_spec(seed=9, **overrides):
    base = dict(
        system="dynamast",
        workload=WorkloadSpec.of("ycsb", num_partitions=16),
        duration_ms=200.0,
        warmup_ms=50.0,
        cluster=ClusterConfig(num_sites=2, cores_per_site=2),
        seed=seed,
        open_loop=open_loop_spec(),
    )
    base.update(overrides)
    return RunSpec(**base)


class TestSpecTransport:
    def test_run_spec_pickle_round_trip(self):
        spec = open_loop_run_spec()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.open_loop == spec.open_loop

    def test_jobs_parity(self):
        specs = [open_loop_run_spec(seed=9), open_loop_run_spec(seed=10)]
        serial = [s.fingerprint for s in execute_specs(specs, jobs=1)]
        fanned = [s.fingerprint for s in execute_specs(specs, jobs=2)]
        assert serial == fanned
        assert len(set(serial)) == 2

    def test_summary_carries_open_loop_counters(self):
        summary = execute_specs([open_loop_run_spec()], jobs=1)[0]
        counters = summary.metrics.open_loop_counters
        assert counters["offered"] > 0
        assert summary.offered_rate > 0
