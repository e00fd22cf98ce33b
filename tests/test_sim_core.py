"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.core import Environment, SimulationError


def test_timeout_advances_clock():
    env = Environment()
    done = []

    def proc():
        yield env.timeout(5.0)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [5.0]
    assert env.now == 5.0


def test_timeout_value_passed_to_process():
    env = Environment()
    seen = []

    def proc():
        value = yield env.timeout(1.0, value="hello")
        seen.append(value)

    env.process(proc())
    env.run()
    assert seen == ["hello"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def proc(delay, label):
        yield env.timeout(delay)
        order.append(label)

    env.process(proc(3.0, "c"))
    env.process(proc(1.0, "a"))
    env.process(proc(2.0, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo_by_schedule_order():
    env = Environment()
    order = []

    def proc(label):
        yield env.timeout(1.0)
        order.append(label)

    for label in "abc":
        env.process(proc(label))
    env.run()
    assert order == ["a", "b", "c"]


def test_run_until_stops_at_time():
    env = Environment()
    fired = []

    def proc():
        yield env.timeout(10.0)
        fired.append(True)

    env.process(proc())
    env.run(until=5.0)
    assert not fired
    assert env.now == 5.0
    env.run(until=20.0)
    assert fired


def test_run_until_in_past_rejected():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(SimulationError):
        env.run(until=1.0)


def test_process_return_value():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        return 42

    process = env.process(proc())
    env.run()
    assert process.value == 42


def test_process_waits_on_another_process():
    env = Environment()
    trace = []

    def child():
        yield env.timeout(2.0)
        trace.append("child")
        return "payload"

    def parent():
        value = yield env.process(child())
        trace.append(f"parent:{value}")

    env.process(parent())
    env.run()
    assert trace == ["child", "parent:payload"]


def test_waiting_on_already_finished_process():
    env = Environment()
    results = []

    def child():
        return 7
        yield  # pragma: no cover - makes this a generator

    def parent(child_process):
        yield env.timeout(5.0)
        value = yield child_process
        results.append((env.now, value))

    child_process = env.process(child())
    env.process(parent(child_process))
    env.run()
    assert results == [(5.0, 7)]


def test_manual_event_succeed():
    env = Environment()
    gate = env.event()
    woken = []

    def waiter():
        value = yield gate
        woken.append((env.now, value))

    def opener():
        yield env.timeout(3.0)
        gate.succeed("open")

    env.process(waiter())
    env.process(opener())
    env.run()
    assert woken == [(3.0, "open")]


def test_event_cannot_trigger_twice():
    env = Environment()
    gate = env.event()
    gate.succeed()
    with pytest.raises(SimulationError):
        gate.succeed()


def test_event_fail_propagates_into_process():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter():
        try:
            yield gate
        except ValueError as exc:
            caught.append(str(exc))

    def failer():
        yield env.timeout(1.0)
        gate.fail(ValueError("boom"))

    env.process(waiter())
    env.process(failer())
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_crash_raises():
    env = Environment()

    def crasher():
        yield env.timeout(1.0)
        raise RuntimeError("unhandled")

    env.process(crasher())
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_crash_propagates_to_waiting_parent():
    env = Environment()
    caught = []

    def crasher():
        yield env.timeout(1.0)
        raise RuntimeError("child died")

    def parent():
        try:
            yield env.process(crasher())
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(parent())
    env.run()
    assert caught == ["child died"]


def test_all_of_waits_for_every_event():
    env = Environment()
    results = []

    def proc():
        values = yield env.all_of([env.timeout(3.0, "a"), env.timeout(1.0, "b")])
        results.append((env.now, values))

    env.process(proc())
    env.run()
    assert results == [(3.0, ["a", "b"])]


def test_all_of_empty_triggers_immediately():
    env = Environment()
    results = []

    def proc():
        values = yield env.all_of([])
        results.append(values)

    env.process(proc())
    env.run()
    assert results == [[]]


def test_any_of_triggers_on_first():
    env = Environment()
    results = []

    def proc():
        value = yield env.any_of([env.timeout(3.0, "slow"), env.timeout(1.0, "fast")])
        results.append((env.now, value))

    env.process(proc())
    env.run()
    assert results == [(1.0, "fast")]


def test_any_of_reports_first_event():
    env = Environment()
    fast = env.timeout(1.0, "fast")
    slow = env.timeout(3.0, "slow")
    condition = env.any_of([slow, fast])
    env.run()
    assert condition.first is fast


def test_process_is_alive():
    env = Environment()

    def proc():
        yield env.timeout(5.0)

    process = env.process(proc())
    assert process.is_alive
    env.run()
    assert not process.is_alive


def test_deterministic_interleaving_is_repeatable():
    def build():
        env = Environment()
        order = []

        def proc(label, delays):
            for delay in delays:
                yield env.timeout(delay)
                order.append((label, env.now))

        env.process(proc("x", [1.0, 2.0, 1.0]))
        env.process(proc("y", [2.0, 1.0, 2.0]))
        env.run()
        return order

    assert build() == build()
