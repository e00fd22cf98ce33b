"""Unit tests for simulated resources: Resource, Store, RWLock."""

import pytest

from repro.sim.core import Environment, SimulationError
from repro.sim.resources import Resource, RWLock, Store


class TestResource:
    def test_capacity_limits_concurrency(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        finish_times = []

        def worker():
            yield from resource.use(10.0)
            finish_times.append(env.now)

        for _ in range(4):
            env.process(worker())
        env.run()
        # Two run at [0, 10), two queue and run at [10, 20).
        assert finish_times == [10.0, 10.0, 20.0, 20.0]

    def test_fifo_granting(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        order = []

        def worker(label):
            request = resource.request()
            yield request
            order.append(label)
            yield env.timeout(1.0)
            resource.release(request)

        for label in "abc":
            env.process(worker(label))
        env.run()
        assert order == ["a", "b", "c"]

    def test_release_wrong_resource_rejected(self):
        env = Environment()
        first = Resource(env, capacity=1)
        second = Resource(env, capacity=1)
        request = first.request()
        with pytest.raises(SimulationError):
            second.release(request)

    def test_cancel_queued_request(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        holder = resource.request()
        queued = resource.request()
        assert not queued.triggered
        resource.release(queued)  # cancel while still queued
        assert resource.queue_length == 0
        resource.release(holder)
        assert resource.in_use == 0

    def test_utilization_accounting(self):
        env = Environment()
        resource = Resource(env, capacity=2)

        def worker():
            yield from resource.use(10.0)

        env.process(worker())
        env.run(until=20.0)
        # One slot busy for 10 of 2*20 slot-ms.
        assert resource.utilization() == pytest.approx(0.25)

    def test_invalid_capacity(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Resource(env, capacity=0)


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)
        received = []

        def consumer():
            item = yield store.get()
            received.append(item)

        store.put("x")
        env.process(consumer())
        env.run()
        assert received == ["x"]

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        received = []

        def consumer():
            item = yield store.get()
            received.append((env.now, item))

        def producer():
            yield env.timeout(5.0)
            store.put("late")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert received == [(5.0, "late")]

    def test_fifo_ordering_of_items_and_getters(self):
        env = Environment()
        store = Store(env)
        received = []

        def consumer(label):
            item = yield store.get()
            received.append((label, item))

        env.process(consumer("first"))
        env.process(consumer("second"))

        def producer():
            yield env.timeout(1.0)
            store.put(1)
            store.put(2)

        env.process(producer())
        env.run()
        assert received == [("first", 1), ("second", 2)]

    def test_len_counts_buffered_items(self):
        env = Environment()
        store = Store(env)
        store.put("a")
        store.put("b")
        assert len(store) == 2

    def test_take_pops_in_fifo_order_without_scheduling_an_event(self):
        env = Environment()
        store = Store(env)
        store.put("a")
        store.put("b")
        assert (store.take(), store.take()) == ("a", "b")
        assert len(store) == 0
        env.run()
        assert env.events_processed == 0  # get().value would have left two
        with pytest.raises(SimulationError):
            store.take()


class TestRWLock:
    def test_concurrent_readers(self):
        env = Environment()
        lock = RWLock(env)
        active = []

        def reader(label):
            yield lock.acquire_read()
            active.append(label)
            yield env.timeout(5.0)
            lock.release_read()

        env.process(reader("r1"))
        env.process(reader("r2"))
        env.run(until=1.0)
        assert sorted(active) == ["r1", "r2"]

    def test_writer_excludes_readers(self):
        env = Environment()
        lock = RWLock(env)
        trace = []

        def writer():
            yield lock.acquire_write()
            trace.append(("w-in", env.now))
            yield env.timeout(5.0)
            lock.release_write()
            trace.append(("w-out", env.now))

        def reader():
            yield env.timeout(1.0)
            yield lock.acquire_read()
            trace.append(("r-in", env.now))
            lock.release_read()

        env.process(writer())
        env.process(reader())
        env.run()
        assert trace == [("w-in", 0.0), ("w-out", 5.0), ("r-in", 5.0)]

    def test_waiting_writer_blocks_later_readers(self):
        env = Environment()
        lock = RWLock(env)
        trace = []

        def early_reader():
            yield lock.acquire_read()
            yield env.timeout(10.0)
            lock.release_read()

        def writer():
            yield env.timeout(1.0)
            yield lock.acquire_write()
            trace.append(("writer", env.now))
            yield env.timeout(5.0)
            lock.release_write()

        def late_reader():
            yield env.timeout(2.0)
            yield lock.acquire_read()
            trace.append(("late-reader", env.now))
            lock.release_read()

        env.process(early_reader())
        env.process(writer())
        env.process(late_reader())
        env.run()
        # The writer queued before the late reader, so the reader waits
        # for the writer even though the lock was in shared mode.
        assert trace == [("writer", 10.0), ("late-reader", 15.0)]

    def test_release_without_hold_rejected(self):
        env = Environment()
        lock = RWLock(env)
        with pytest.raises(SimulationError):
            lock.release_read()
        with pytest.raises(SimulationError):
            lock.release_write()
