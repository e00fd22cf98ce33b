"""Unit tests for simulated resources: Resource, Store, RWLock."""

from collections import deque

import pytest

from repro.faults.errors import SiteDown
from repro.replication.log import UPDATE, LogRecord
from repro.sim.config import ClusterConfig
from repro.sim.core import AnyOf, Environment, SimulationError
from repro.sim.resources import Resource, RWLock, Store
from repro.systems.base import Cluster
from repro.transactions import Transaction


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


class TestGrantedWhenClaimed:
    """A free slot is granted when it is claimed: the request comes
    back processed and its holder runs on in the same dispatch."""

    def test_a_free_slot_is_granted_without_a_dispatch(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        granted = []

        def holder():
            request = resource.request()
            assert request.processed and request.value is None
            yield request
            granted.append(env.events_processed)
            resource.release(request)

        env.process(holder())
        env.step()  # the process's start: it runs past its grant here
        assert granted == [1]
        assert resource.in_use == 0

    def test_a_saturated_resource_queues_requests_fifo(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        holder = resource.request()
        waiters = [resource.request() for _ in range(3)]
        assert [waiter.triggered for waiter in waiters] == [False] * 3
        assert resource.queue_length == 3
        for index, waiter in enumerate(waiters):
            resource.release(holder)
            assert [w.triggered for w in waiters] == (
                [True] * (index + 1) + [False] * (2 - index)
            )
            assert not waiter.processed  # its holder resumes on dispatch
            holder = waiter
        assert resource.queue_length == 0 and resource.in_use == 1

    def test_releasing_a_granted_claim_hands_the_slot_to_the_head_waiter(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        first = resource.request()
        second, third = resource.request(), resource.request()
        resource.release(first)
        assert second.triggered and not third.triggered
        assert (resource.in_use, resource.queue_length) == (1, 1)
        env.run()
        assert second.processed

    def test_an_interrupt_inside_use_frees_the_slot(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        unwound = []

        def worker():
            try:
                yield from resource.use(10.0)
            except SiteDown:
                unwound.append(env.now)

        process = env.process(worker())
        env.step()  # granted at once; now waiting on the service time
        assert resource.in_use == 1
        process.interrupt(SiteDown(0))
        assert unwound == [0.0]
        assert resource.in_use == 0
        assert resource.request().processed

    def test_any_of_resolves_on_a_claim_granted_when_made(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        request = resource.request()
        race = AnyOf(env, [request, env.timeout(5.0)])
        assert race.triggered and race.first is request
        env.run()
        assert race.processed and env.now == 5.0


class TestRefreshAdmittedWhenDelivered:
    def test_an_admissible_refresh_never_waits_on_the_watch(self):
        """Equation 1 already holds for each delivered head, so the
        drainer applies it without registering a watch waiter."""
        cluster = Cluster(ClusterConfig(num_sites=2))
        site0, replica = cluster.sites
        site0.mastered.add(0)
        waits = []
        wait_until = replica.watch.wait_until
        replica.watch.wait_until = lambda predicate: (
            waits.append(predicate) or wait_until(predicate)
        )

        def writer():
            for key in (1, 2, 3):
                txn = Transaction("w", client_id=0, write_set=(("t", key),))
                yield from site0.execute_update(txn)

        cluster.env.process(writer())
        cluster.env.run()
        assert replica.svv.to_tuple() == (3, 0)
        assert waits == [] and replica.watch.pending == 0

    def test_a_refresh_behind_its_dependency_waits_on_the_watch(self):
        cluster = Cluster(ClusterConfig(num_sites=3))
        site0, site1, site2 = cluster.sites
        env = cluster.env
        site0.log.append(LogRecord(UPDATE, origin=0, tvv=(1, 0, 1), keys=(("t", 1),)))
        env.run(until=1.0)
        assert site1.watch.pending == 1 and site1.svv.to_tuple() == (0, 0, 0)
        site2.log.append(LogRecord(UPDATE, origin=2, tvv=(0, 0, 1), keys=(("t", 2),)))
        env.run(until=2.0)
        assert site1.watch.pending == 0 and site1.svv.to_tuple() == (1, 0, 1)


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

    def test_drain_into_moves_items_in_fifo_order_without_scheduling_an_event(self):
        env = Environment()
        store = Store(env)
        store.put("a")
        store.put("b")
        taken = deque(["head"])
        store.drain_into(taken)
        assert list(taken) == ["head", "a", "b"]
        assert len(store) == 0
        env.run()
        assert env.events_processed == 0  # get().value would have left two
        store.drain_into(taken)  # an empty store moves nothing
        assert list(taken) == ["head", "a", "b"]


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
