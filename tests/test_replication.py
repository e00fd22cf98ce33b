"""Tests for the durable log, refresh application, and recovery."""

import pytest

from repro.replication import (
    DurableLog,
    LogRecord,
    recover_database,
    recover_mastership,
)
from repro.replication.log import GRANT, RELEASE, UPDATE
from repro.replication.recovery import merge_logs
from repro.sim.config import ClusterConfig
from repro.sim.core import Environment
from repro.systems.base import Cluster
from repro.transactions import Transaction
from repro.versioning import VersionVector
from tests.helpers import assert_converged


def make_cluster(num_sites=2, **overrides):
    config = ClusterConfig(num_sites=num_sites, **overrides)
    return Cluster(config)


class TestDurableLog:
    def test_append_requires_matching_origin(self):
        log = DurableLog(Environment(), origin=0)
        with pytest.raises(ValueError):
            log.append(LogRecord(UPDATE, origin=1, tvv=(0, 1)))

    def test_delivery_after_delay(self):
        env = Environment()
        log = DurableLog(env, origin=0, delivery_delay_ms=2.0)
        queue = log.subscribe()
        received = []

        def consumer():
            record = yield queue.get()
            received.append((env.now, record.seq))

        env.process(consumer())
        log.append(LogRecord(UPDATE, origin=0, tvv=(1,)))
        env.run()
        assert received == [(2.0, 1)]

    def test_order_preserved_across_subscribers(self):
        env = Environment()
        log = DurableLog(env, origin=0, delivery_delay_ms=1.0)
        queues = [log.subscribe(), log.subscribe()]
        seen = {0: [], 1: []}

        def consumer(index):
            while True:
                record = yield queues[index].get()
                seen[index].append(record.seq)

        env.process(consumer(0))
        env.process(consumer(1))
        for seq in range(1, 4):
            log.append(LogRecord(UPDATE, origin=0, tvv=(seq,)))
        env.run()
        assert seen[0] == [1, 2, 3]
        assert seen[1] == [1, 2, 3]

    def test_a_bare_log_keeps_every_record_and_counts_them(self):
        env = Environment()
        log = DurableLog(env, origin=0)
        for seq in range(1, 4):
            log.append(LogRecord(UPDATE, origin=0, tvv=(seq,), keys=(("t", seq),)))
        log.append(LogRecord(RELEASE, origin=0, tvv=(4,), partitions=(1,)))
        assert [record.seq for record in log.records] == [1, 2, 3, 4]
        assert (len(log), log.update_count, log.key_count) == (4, 3, 3)


class TestRefreshApplication:
    def test_update_propagates_to_replica(self):
        cluster = make_cluster(num_sites=2)
        site0, site1 = cluster.sites
        site0.mastered.add(0)
        txn = Transaction("w", client_id=0, write_set=(("t", 1),))

        def run():
            yield from site0.execute_update(txn)

        cluster.env.process(run())
        cluster.env.run()
        assert site0.svv.to_tuple() == (1, 0)
        assert site1.svv.to_tuple() == (1, 0)
        # The replica can now read the new version.
        assert site1.database.read(("t", 1), VersionVector([1, 0])) == (0, 1)
        assert site1.replication.applied == 1

    def test_refresh_blocks_on_dependency(self):
        """Figure 2: R(T2) must wait for R(T1) at a lagging replica."""
        # Site 0's log is slow (5 ms) while site 2's log is fast, so
        # site 1 receives R(T2) (which depends on T1) before R(T1).
        config = ClusterConfig(num_sites=3, log_delivery_ms=0.1)
        cluster = Cluster(config)
        site0, site1, site2 = cluster.sites
        site0.log.delivery_delay_ms = 5.0
        site0.mastered.add(0)
        site2.mastered.add(1)
        applied_times = {}

        def writer0():
            txn = Transaction("w", client_id=0, write_set=(("t", 1),))
            yield from site0.execute_update(txn)

        def writer2():
            # T2 begins at site 2 only after site 2 applied R(T1).
            yield site2.watch.wait_for(VersionVector([1, 0, 0]))
            txn = Transaction("w", client_id=1, write_set=(("t", 2),))
            yield from site2.execute_update(txn)

        def monitor():
            yield site1.watch.wait_for(VersionVector([0, 0, 1]))
            applied_times["r_t2"] = cluster.env.now
            assert site1.svv[0] == 1, "R(T2) applied before its dependency R(T1)"

        cluster.env.process(writer0())
        cluster.env.process(writer2())
        cluster.env.process(monitor())
        cluster.env.run()
        assert site1.svv.to_tuple() == (1, 0, 1)
        # R(T2) could not commit at site 1 before R(T1) arrived at 5 ms.
        assert applied_times["r_t2"] >= 5.0

    def test_refreshes_from_independent_sites_interleave(self):
        cluster = make_cluster(num_sites=3)
        site0, site1, site2 = cluster.sites
        site0.mastered.add(0)
        site1.mastered.add(1)

        def writer(site, key):
            txn = Transaction("w", client_id=site.index, write_set=((key, 1),))
            yield from site.execute_update(txn)

        cluster.env.process(writer(site0, "a"))
        cluster.env.process(writer(site1, "b"))
        cluster.env.run()
        assert site2.svv.to_tuple() == (1, 1, 0)


class TestRecovery:
    def build_history(self):
        cluster = make_cluster(num_sites=2)
        site0, site1 = cluster.sites
        site0.mastered.update({0, 1})

        def scenario():
            txn1 = Transaction("w", client_id=0, write_set=(("t", 1), ("t", 2)))
            yield from site0.execute_update(txn1)
            # Remaster partition 1 from site 0 to site 1, then write there.
            release_vv = yield from site0.release_mastership([1])
            yield from site1.grant_mastership([1], release_vv)
            txn2 = Transaction("w", client_id=0, write_set=(("t", 2),))
            yield from site1.execute_update(txn2)
            return txn1, txn2

        process = cluster.env.process(scenario())
        cluster.env.run()
        txn1, txn2 = process.value
        return cluster, txn1, txn2

    def test_merge_logs_orders_consistently(self):
        cluster, _, _ = self.build_history()
        logs = [site.log for site in cluster.sites]
        ordered = merge_logs(logs)
        kinds = [record.kind for record in ordered]
        assert kinds == [UPDATE, RELEASE, GRANT, UPDATE]

    def test_recover_database_matches_live_replica(self):
        """txn1 commits at site 0 (seq 1), the release is seq 2 there,
        the grant seq 1 at site 1 and txn2 seq 2 at site 1."""
        cluster, _, _ = self.build_history()
        logs = [site.log for site in cluster.sites]
        database, svv = recover_database(cluster.checkpoint, merge_logs(logs))
        live = cluster.sites[0]
        assert svv.to_tuple() == live.svv.to_tuple()
        snapshot = svv
        assert database.read(("t", 1), snapshot) == (0, 1)
        assert database.read(("t", 2), snapshot) == (1, 2)
        assert_converged([live.database, database])

    def test_recover_mastership(self):
        cluster, _, _ = self.build_history()
        logs = [site.log for site in cluster.sites]
        mastership = recover_mastership(
            cluster.checkpoint, merge_logs(logs), initial_mastership={0: 0, 1: 0}
        )
        assert mastership == {0: 0, 1: 1}

    def test_merge_logs_detects_inconsistency(self):
        env = Environment()
        log = DurableLog(env, origin=0)
        # Sequence 2 without sequence 1 can never be applied.
        log.append(LogRecord(UPDATE, origin=0, tvv=(2,)))
        with pytest.raises(ValueError):
            merge_logs([log])

    def test_grant_without_target_rejected(self):
        cluster = make_cluster(num_sites=1)
        log = cluster.sites[0].log
        log.append(LogRecord(GRANT, origin=0, tvv=(1,), partitions=(3,)))
        with pytest.raises(ValueError):
            recover_mastership(cluster.checkpoint, merge_logs([log]), initial_mastership={})
