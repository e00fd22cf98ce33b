"""Focused tests for selector components and less-travelled paths."""

import pytest

from repro.core.partitions import PartitionInfo, PartitionTable
from repro.replication.log import UPDATE, DurableLog, LogRecord
from repro.sim.config import ClusterConfig
from repro.sim.core import Environment, SimulationError
from repro.sim.network import Network
from repro.sim.rand import ZipfGenerator
from repro.sim.resources import RWLock
from repro.sites.data_site import update_record_bytes
import random
from tests.helpers import run_process


class TestPartitionTable:
    def make(self, placement=None):
        return PartitionTable(Environment(), placement or {0: 0, 1: 1, 2: 0})

    def test_master_lookup_and_update(self):
        table = self.make()
        assert table.master_of(1) == 1
        table.set_master(1, 0)
        assert table.master_of(1) == 0

    def test_unknown_partition(self):
        table = self.make()
        with pytest.raises(KeyError):
            table.master_of(99)

    def test_masters_of_and_grouping(self):
        table = self.make()
        assert table.masters_of([0, 1, 2]) == {0, 1}
        groups = table.group_by_master([0, 1, 2])
        assert groups == {0: [0, 2], 1: [1]}

    def test_snapshot_is_copy(self):
        table = self.make()
        snapshot = table.snapshot()
        table.set_master(0, 1)
        assert snapshot[0] == 0

    def test_masters_per_site(self):
        table = self.make()
        masters = list(table.snapshot().values())
        assert [masters.count(site) for site in range(2)] == [2, 1]

    def test_len(self):
        assert len(self.make()) == 3

    def test_an_idle_partition_costs_no_waiter_buffer(self, retained_bytes):
        """1 000 partitions nobody routes to, lock included: an empty
        ``deque`` of waiters alone was 760 B of each one's 955."""
        env = Environment()
        infos, used = retained_bytes(
            lambda: [PartitionInfo(partition, 0, env) for partition in range(1000)]
        )
        assert not any(info.lock.read_locked or info.lock.write_locked for info in infos)
        assert used / 1000 <= 250


class TestRWLockDowngrade:
    def test_downgrade_keeps_shared_hold(self):
        env = Environment()
        lock = RWLock(env)
        trace = []

        def writer():
            yield lock.acquire_write()
            yield env.timeout(1.0)
            lock.downgrade()
            trace.append(("downgraded", env.now))
            yield env.timeout(5.0)
            lock.release_read()

        def reader():
            yield env.timeout(0.5)
            yield lock.acquire_read()
            trace.append(("reader", env.now))
            lock.release_read()

        def other_writer():
            yield env.timeout(0.6)
            yield lock.acquire_write()
            trace.append(("writer2", env.now))
            lock.release_write()

        env.process(writer())
        env.process(reader())
        env.process(other_writer())
        env.run()
        # The queued reader gets in right at downgrade (shared with the
        # downgrader); the second writer waits for both readers to go.
        assert trace == [("downgraded", 1.0), ("reader", 1.0), ("writer2", 6.0)]

    def test_downgrade_without_write_hold(self):
        lock = RWLock(Environment())
        with pytest.raises(SimulationError):
            lock.downgrade()


class TestDurableLogTraffic:
    def test_replication_bytes_accounted_per_subscriber(self):
        env = Environment()
        network = Network(env)
        log = DurableLog(
            env, 0, network=network,
            record_size=lambda r: update_record_bytes(len(r.keys), 2),
        )
        log.subscribe()
        log.subscribe()
        log.append(LogRecord(UPDATE, 0, (1, 0), keys=(("t", 1),)))
        expected = update_record_bytes(1, 2) * 3  # producer + 2 subs
        assert network.traffic.bytes_by_category["replication"] == expected

    def test_marker_bytes_counted_as_remaster(self):
        env = Environment()
        network = Network(env)
        log = DurableLog(env, 0, network=network, record_size=lambda r: 64)
        log.append(LogRecord("release", 0, (1, 0), partitions=(3,)))
        assert network.traffic.bytes_by_category["remaster"] == 64


class TestZipfEdgeCases:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ZipfGenerator(0, 0.5, random.Random(0))
        with pytest.raises(ValueError):
            ZipfGenerator(10, -1.0, random.Random(0))

    def test_uniform_when_theta_zero(self):
        generator = ZipfGenerator(4, 0.0, random.Random(7))
        counts = [0, 0, 0, 0]
        for _ in range(8000):
            counts[generator.sample()] += 1
        assert max(counts) < 1.25 * min(counts)

    def test_single_element(self):
        generator = ZipfGenerator(1, 2.0, random.Random(0))
        assert generator.sample() == 0


class TestLEAPOwnership:
    def test_static_keys_never_ship(self):
        from repro.partitioning.schemes import PartitionScheme
        from repro.systems import Cluster, build_system
        from repro.transactions import Transaction

        cluster = Cluster(ClusterConfig(num_sites=2), replicated=False)
        scheme = PartitionScheme(
            lambda key: None if key[0] == "item" else key[1] // 10, 4
        )
        system = build_system(
            "leap", cluster, scheme=scheme, placement=scheme.range_placement(2)
        )
        assert system.owner_of(("item", 3)) == -1

        txn = Transaction("r", 1, read_set=(("item", 1), ("item", 2)))
        session = system.new_session(1)

        def run():
            return (yield from system.submit(txn, session))

        process = cluster.env.process(run())
        outcome = run_process(cluster.env, process)
        assert outcome.committed
        assert not outcome.remastered
        assert system.records_shipped == 0
