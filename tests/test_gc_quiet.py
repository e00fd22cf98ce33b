"""The GC-quiet run loop: the switch is restored, and it is safe.

``Environment.run`` suspends the cyclic garbage collector for the
dispatch loop (DESIGN.md §8, "host cost outside any layer"). Three
things make that sound and all are pinned here: the caller's collector
setting always comes back; a run produces no cyclic garbage — reference
counting frees everything — so suspending the collector cannot grow
memory *during* a run; and a finished simulation,
which is one big cycle (left frozen, so that no young collection walks
it), is thawed and collected when the next one starts, so it cannot
grow memory *across* runs either.
"""

import gc
import weakref

import pytest

from repro.bench.harness import ALL_SYSTEMS, run_benchmark
from repro.faults.chaos import run_chaos
from repro.sim import core
from repro.sim.config import ClusterConfig
from repro.sim.core import Environment
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def collector(request):
    """Run the test with the collector on, then off; restore after."""
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if before else gc.disable)()


class TestCollectorSettingRestored:
    def test_after_run(self, collector):
        env = Environment()
        seen = []

        def ticker():
            for _ in range(3):
                yield env.timeout(1.0)
                seen.append(gc.isenabled())

        env.process(ticker())
        env.run(until=10.0)
        assert seen == [False, False, False]
        assert gc.isenabled() is collector

    def test_after_run_until_complete(self, collector):
        """``run()`` without ``until`` leaves through the drained queue."""
        env = Environment()

        def worker():
            yield env.timeout(1.0)
            return gc.isenabled()

        process = env.process(worker())
        env.run()
        assert process.value is False
        assert gc.isenabled() is collector

    def test_after_unhandled_failure_propagates_out_of_run(self, collector):
        env = Environment()

        def crasher():
            yield env.timeout(1.0)
            raise RuntimeError("boom")

        env.process(crasher())
        with pytest.raises(RuntimeError, match="boom"):
            env.run()
        assert gc.isenabled() is collector

    def test_step_leaves_the_collector_alone(self, collector):
        env = Environment()
        env.timeout(1.0)
        env.step()
        assert gc.isenabled() is collector

    def test_a_run_freezes_its_heap_only_if_it_suspended_the_collector(
        self, collector
    ):
        gc.unfreeze()
        env = Environment()
        env.timeout(1.0)
        env.run()
        try:
            assert (gc.get_freeze_count() > 0) is collector
        finally:
            gc.unfreeze()


#: Unreachable objects a run may leave for the cyclic collector. The
#: measured value is 0 for every unfaulted system and 0-60 with a crash
#: (interrupted generators); a change that starts leaking cycles per
#: transaction or per event lands in the thousands.
CYCLE_BUDGET = 500


def _workload():
    return YCSBWorkload(
        YCSBConfig(num_partitions=40, rmw_fraction=0.5, zipf_theta=0.5)
    )


def _unreachable_after(run):
    """Cyclic garbage ``run()`` leaves while its result is still alive."""
    gc.collect()
    gc.disable()  # nothing may collect between the run and the count
    try:
        result = run()
        gc.unfreeze()  # the run loop froze what it allocated; count it too
        found = gc.collect()
        assert result is not None
        return found
    finally:
        gc.enable()


class TestRunsLeaveNoCyclicGarbage:
    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    def test_unfaulted_run(self, system):
        found = _unreachable_after(lambda: run_benchmark(
            system, _workload(), num_clients=8, duration_ms=300.0,
            warmup_ms=75.0, cluster_config=ClusterConfig(num_sites=3), seed=7,
        ))
        assert found < CYCLE_BUDGET

    def test_crash_restart_run(self):
        found = _unreachable_after(lambda: run_chaos(
            "dynamast", "crash-restart", num_sites=3, num_clients=8,
            duration_ms=300.0, bucket_ms=50.0, seed=7, workload=_workload(),
        ))
        assert found < CYCLE_BUDGET


class TestFinishedSimulationsAreReclaimed:
    """Dropping a finished run frees nothing by reference count (the
    environment, its waiting processes and their frames form one
    cycle); the kernel owes it a collection and pays when the next
    simulation starts. Without that, a process running simulation
    after simulation kept all of them: six perfbench-size TPC-C runs
    peaked at 481 MB against 190, and ``make scale-smoke`` broke its
    RSS budgets."""

    @pytest.fixture
    def explicit_collections_only(self):
        """Threshold 0: the collector stays *enabled* but never runs on
        its own, so only the kernel's repayment can free a cycle."""
        thresholds = gc.get_threshold()
        gc.collect()
        gc.set_threshold(0)
        yield
        gc.set_threshold(*thresholds)

    def finished_run(self):
        result = run_benchmark(
            "dynamast", _workload(), num_clients=4, duration_ms=60.0,
            warmup_ms=10.0, cluster_config=ClusterConfig(num_sites=2), seed=7,
        )
        assert result.events_processed > 1000
        return weakref.ref(result.system.cluster.env)

    def test_next_environment_collects_a_dropped_run(
        self, explicit_collections_only, monkeypatch
    ):
        monkeypatch.setattr(core, "_SWEEP_AFTER_EVENTS", 1000)
        dropped = self.finished_run()
        assert dropped() is not None  # a cycle: refcounting cannot free it
        assert gc.get_freeze_count() > 0  # and frozen: no collection sees it
        Environment()
        assert gc.get_freeze_count() == 0
        assert dropped() is None

    def test_small_runs_do_not_pay_a_collection_each(
        self, explicit_collections_only, monkeypatch
    ):
        monkeypatch.setattr(core, "_unswept_events", 0)
        dropped = self.finished_run()  # far below the real 2**17 events
        Environment()
        assert dropped() is not None

    def test_a_caller_with_the_collector_off_is_left_alone(
        self, explicit_collections_only, monkeypatch
    ):
        monkeypatch.setattr(core, "_SWEEP_AFTER_EVENTS", 1000)
        gc.disable()
        try:
            dropped = self.finished_run()
            Environment()
            assert dropped() is not None
        finally:
            gc.enable()
