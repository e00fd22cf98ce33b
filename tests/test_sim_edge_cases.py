"""Edge-case tests for the simulation kernel's error handling."""

import pytest

from repro.sim.core import Environment, SimulationError
from tests.helpers import run_process


class TestKernelErrors:
    def test_step_on_empty_queue(self):
        with pytest.raises(SimulationError):
            Environment().step()

    def test_deadlock_detected_by_run_until_complete(self):
        env = Environment()
        gate = env.event()  # never triggered

        def stuck():
            yield gate

        process = env.process(stuck())
        with pytest.raises(SimulationError, match="empty event queue"):
            run_process(env, process)

    def test_run_until_complete_propagates_failure(self):
        env = Environment()

        def failing():
            yield env.timeout(1.0)
            raise KeyError("boom")

        process = env.process(failing())
        with pytest.raises(KeyError):
            run_process(env, process)

    def test_process_requires_generator(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.process(lambda: None)

    def test_event_value_before_trigger(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.event().value

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.event().fail("not an exception")

    def test_condition_mixing_environments_rejected(self):
        env_a, env_b = Environment(), Environment()
        event_b = env_b.event()
        with pytest.raises(SimulationError):
            env_a.all_of([env_a.event(), event_b])

    def test_repr_shows_state(self):
        env = Environment()
        event = env.event()
        assert "pending" in repr(event)
        event.succeed()
        assert "ok" in repr(event)


class TestAnyOfFailure:
    def test_first_failure_propagates(self):
        env = Environment()
        bad = env.event()
        caught = []

        def waiter():
            try:
                yield env.any_of([bad, env.timeout(10.0)])
            except ValueError as exc:
                caught.append(str(exc))

        env.process(waiter())

        def failer():
            yield env.timeout(1.0)
            bad.fail(ValueError("first"))

        env.process(failer())
        env.run()
        assert caught == ["first"]

    def test_late_failure_after_trigger_is_defused(self):
        env = Environment()
        slow_fail = env.event()
        results = []

        def waiter():
            value = yield env.any_of([env.timeout(1.0, "fast"), slow_fail])
            results.append(value)

        env.process(waiter())

        def failer():
            yield env.timeout(5.0)
            slow_fail.fail(RuntimeError("late"))

        env.process(failer())
        env.run()  # must not raise: the condition defuses the late failure
        assert results == ["fast"]


class TestAllOfFailure:
    def test_any_child_failure_fails_condition(self):
        env = Environment()
        bad = env.event()
        caught = []

        def waiter():
            try:
                yield env.all_of([env.timeout(1.0), bad])
            except RuntimeError:
                caught.append(env.now)

        env.process(waiter())

        def failer():
            yield env.timeout(2.0)
            bad.fail(RuntimeError("child"))

        env.process(failer())
        env.run()
        assert caught == [2.0]

    def test_values_preserve_event_order(self):
        env = Environment()
        results = []

        def waiter():
            values = yield env.all_of(
                [env.timeout(3.0, "a"), env.timeout(1.0, "b"), env.timeout(2.0, "c")]
            )
            results.append(values)

        env.process(waiter())
        env.run()
        assert results == [["a", "b", "c"]]


class TestBatchedDispatch:
    """Pin the batched zero-delay dispatch against golden orderings.

    The kernel drains the current-timestamp run queue (``_nowq``) FIFO
    before consulting the heap; these tests pin the resulting dispatch
    order so any change to the batching condition shows up as a golden
    sequence mismatch, not a silent reordering.
    """

    def test_zero_delay_batch_preserves_creation_order(self):
        env = Environment()
        trace = []

        def proc(label, delay):
            yield env.timeout(delay)
            trace.append((label, env.now))

        for label, delay in enumerate([0.0, 2.0, 0.0, 1.0, 0.0]):
            env.process(proc(label, delay))
        env.run()
        # Zero-delay processes wake in creation order at t=0, then the
        # heap entries in time order.
        assert trace == [(0, 0.0), (2, 0.0), (4, 0.0), (3, 1.0), (1, 2.0)]

    def test_succeed_and_zero_timeout_interleave_in_trigger_order(self):
        env = Environment()
        trace = []

        def waiter(label, event):
            yield event
            trace.append(label)

        gate_a = env.event()
        gate_b = env.event()
        env.process(waiter("a", gate_a))
        env.process(waiter("b", gate_b))

        def driver():
            gate_a.succeed()          # enters the batch first...
            yield env.timeout(0.0)    # ...then the driver's own wakeup...
            gate_b.succeed()          # ...then gate_b, after the drain began
            trace.append("driver")

        env.process(driver())
        env.run()
        assert trace == ["a", "driver", "b"]

    def test_batch_takes_heap_path_when_entry_due_now(self):
        """An event scheduled at ``now`` while a heap entry is also due
        at ``now`` must round-trip through the heap (eid order decides),
        not jump the queue via the batch."""
        env = Environment()
        trace = []

        def sleeper(label, delay):
            yield env.timeout(delay)
            trace.append((label, env.now))

        def late_zero():
            yield env.timeout(1.0)
            # At t=1 a second heap entry (the other sleeper) is due at
            # exactly now: this zero-delay wakeup must not overtake it.
            yield env.timeout(0.0)
            trace.append(("zero", env.now))

        env.process(late_zero())
        env.process(sleeper("one", 1.0))
        env.run()
        assert trace == [("one", 1.0), ("zero", 1.0)]

    def test_step_loop_is_event_for_event_identical_to_run(self):
        def scenario(env, trace):
            def worker(label, delays):
                for delay in delays:
                    yield env.timeout(delay)
                    trace.append((label, env.now))

            gate = env.event()

            def signaller():
                yield env.timeout(1.5)
                gate.succeed("go")

            def gated():
                value = yield gate
                trace.append(("gate", value, env.now))

            env.process(worker("x", [0.0, 1.0, 0.0]))
            env.process(worker("y", [0.5, 0.0, 2.0]))
            env.process(signaller())
            env.process(gated())

        run_trace, step_trace = [], []
        run_env, step_env = Environment(), Environment()
        scenario(run_env, run_trace)
        scenario(step_env, step_trace)
        run_env.run()
        with pytest.raises(SimulationError, match="empty event queue"):
            while True:
                step_env.step()
        assert step_trace == run_trace
        assert step_env.events_processed == run_env.events_processed
        assert step_env.now == run_env.now


class TestInterruptEdges:
    def test_interrupt_before_initialize_fires(self):
        """A process interrupted before its Initialize event dispatches
        unwinds immediately; the stale Initialize wakeup is ignored."""
        env = Environment()
        started = []

        def proc():
            started.append(True)
            yield env.timeout(1.0)

        process = env.process(proc())
        process.interrupt(RuntimeError("early"))
        assert not process.is_alive
        process.defuse()  # nobody waits on it; silence the failure
        env.run()  # the queued Initialize must be a no-op
        assert started == []

    def test_anyof_over_already_processed_failed_child(self):
        env = Environment()
        bad = env.event()
        bad.fail(ValueError("pre"))
        bad.defuse()
        env.run()  # dispatch it: the child is processed before AnyOf exists
        caught = []

        def waiter():
            try:
                yield env.any_of([bad, env.timeout(5.0)])
            except ValueError as exc:
                caught.append(str(exc))

        env.process(waiter())
        env.run()
        assert caught == ["pre"]


class TestProcessChains:
    def test_deep_chain_of_completed_events(self):
        """Resuming through many already-processed events must not
        recurse (the kernel loops instead)."""
        env = Environment()
        done = []

        def quick(value):
            return value
            yield  # pragma: no cover

        def chained():
            total = 0
            processes = [env.process(quick(i)) for i in range(300)]
            yield env.timeout(1.0)
            for process in processes:
                total += yield process  # all already finished
            done.append(total)

        env.process(chained())
        env.run()
        assert done == [sum(range(300))]

    def test_two_waiters_on_one_process(self):
        env = Environment()
        results = []

        def worker():
            yield env.timeout(2.0)
            return "payload"

        worker_process = None

        def waiter(label):
            value = yield worker_process
            results.append((label, value))

        worker_process = env.process(worker())
        env.process(waiter("x"))
        env.process(waiter("y"))
        env.run()
        assert sorted(results) == [("x", "payload"), ("y", "payload")]
