"""Tests for data-site transaction execution and remastering handlers."""

import pytest

from repro.sim.config import ClusterConfig
from repro.sites.data_site import LOG_DELIVERY_MS, RECORD_BYTES, MastershipError
from repro.systems.base import Cluster
from repro.transactions import Transaction
from repro.versioning import VersionVector
from tests.helpers import run_process


def make_cluster(num_sites=2, **overrides):
    return Cluster(ClusterConfig(num_sites=num_sites, **overrides))


class TestExecuteUpdate:
    def test_commit_assigns_transaction_vector(self):
        cluster = make_cluster()
        site = cluster.sites[0]
        txn = Transaction("w", client_id=0, write_set=(("t", 1),))

        def run():
            return (yield from site.execute_update(txn))

        process = cluster.env.process(run())
        tvv = run_process(cluster.env, process)
        assert tvv.to_tuple() == (1, 0)
        assert site.commits == 1
        assert site.svv.to_tuple() == (1, 0)

    def test_begin_vector_set_after_lock_acquisition(self):
        """Proof of Theorem 1 Case 1: a blocked writer's begin vector
        reflects the earlier conflicting commit."""
        cluster = make_cluster()
        site = cluster.sites[0]
        tvvs = []

        def writer(txn):
            tvv = yield from site.execute_update(txn)
            tvvs.append(tvv)

        first = Transaction("w", client_id=0, write_set=(("t", 1),))
        second = Transaction("w", client_id=1, write_set=(("t", 1),))
        cluster.env.process(writer(first))
        cluster.env.process(writer(second))
        cluster.env.run()
        assert len(tvvs) == 2
        # The second writer began after the first committed, so its
        # begin (and hence commit) vector dominates the first's.
        assert tvvs[1].dominates(tvvs[0])
        assert tvvs[1][0] == 2

    def test_conflicting_writers_serialize(self):
        cluster = make_cluster()
        site = cluster.sites[0]
        second = Transaction("w", client_id=1, write_set=(("t", 1),))

        def writer(txn):
            yield from site.execute_update(txn)

        cluster.env.process(writer(Transaction("w", 0, write_set=(("t", 1),))))
        cluster.env.process(writer(second))
        cluster.env.run()
        assert second.timings["lock_wait"] > 0

    def test_disjoint_writers_do_not_block(self):
        cluster = make_cluster()
        site = cluster.sites[0]
        second = Transaction("w", client_id=1, write_set=(("t", 2),))

        def writer(txn):
            yield from site.execute_update(txn)

        cluster.env.process(writer(Transaction("w", 0, write_set=(("t", 1),))))
        cluster.env.process(writer(second))
        cluster.env.run()
        assert second.timings["lock_wait"] == 0

    def test_min_begin_blocks_until_fresh(self):
        cluster = make_cluster()
        site0, site1 = cluster.sites
        done = []

        def writer_at_site1():
            txn = Transaction("w", client_id=0, write_set=(("t", 2),))
            # Require site 1 to have applied site 0's first commit.
            yield from site1.execute_update(txn, min_begin=VersionVector([1, 0]))
            done.append(cluster.env.now)
            assert site1.svv[0] == 1

        def writer_at_site0():
            yield cluster.env.timeout(1.0)
            txn = Transaction("w", client_id=1, write_set=(("t", 1),))
            yield from site0.execute_update(txn)

        cluster.env.process(writer_at_site1())
        cluster.env.process(writer_at_site0())
        cluster.env.run()
        # Must wait at least for the commit (>= 1 ms) plus log delivery.
        assert done and done[0] >= 1.0 + LOG_DELIVERY_MS

    def test_activity_deregistered_on_commit(self):
        cluster = make_cluster()
        site = cluster.sites[0]
        cluster.activity.begin(0, [7])
        txn = Transaction("w", client_id=0, write_set=(("t", 1),))

        def run():
            yield from site.execute_update(txn, partitions=[7])

        cluster.env.process(run())
        cluster.env.run()
        assert cluster.activity.active(0, 7) == 0


class TestExecuteRead:
    def test_read_returns_snapshot_vector(self):
        cluster = make_cluster()
        site = cluster.sites[0]
        txn = Transaction("r", client_id=0, read_set=(("t", 1),))

        def run():
            return (yield from site.execute_read(txn))

        process = cluster.env.process(run())
        begin = run_process(cluster.env, process)
        assert begin.to_tuple() == (0, 0)
        assert site.read_txns == 1

    def test_read_waits_for_session_freshness(self):
        cluster = make_cluster()
        site0, site1 = cluster.sites
        observed = []

        def reader():
            txn = Transaction("r", client_id=0, read_set=(("t", 1),))
            begin = yield from site1.execute_read(
                txn, min_begin=VersionVector([1, 0])
            )
            observed.append(begin.to_tuple())

        def writer():
            txn = Transaction("w", client_id=1, write_set=(("t", 1),))
            yield from site0.execute_update(txn)

        cluster.env.process(reader())
        cluster.env.process(writer())
        cluster.env.run()
        assert observed == [(1, 0)]

    def test_reads_do_not_block_on_write_locks(self):
        cluster = make_cluster()
        site = cluster.sites[0]
        read_done = []

        def writer():
            txn = Transaction(
                "w", client_id=0, write_set=(("t", 1),), extra_cpu_ms=50.0
            )
            yield from site.execute_update(txn)

        def reader():
            yield cluster.env.timeout(0.5)  # start mid-write
            txn = Transaction("r", client_id=1, read_set=(("t", 1),))
            yield from site.execute_read(txn)
            read_done.append(cluster.env.now)

        cluster.env.process(writer())
        cluster.env.process(reader())
        cluster.env.run()
        # The reader finished long before the 50 ms write released locks.
        assert read_done and read_done[0] < 10.0


class TestRemasteringHandlers:
    def test_release_then_grant_moves_mastership(self):
        cluster = make_cluster()
        site0, site1 = cluster.sites
        site0.mastered.add(5)

        def run():
            release_vv = yield from site0.release_mastership([5])
            grant_vv = yield from site1.grant_mastership([5], release_vv)
            return release_vv, grant_vv

        process = cluster.env.process(run())
        release_vv, grant_vv = run_process(cluster.env, process)
        assert 5 not in site0.mastered
        assert 5 in site1.mastered
        # Release bumped site 0's vector; grant waited to observe it.
        assert release_vv[0] == 1
        assert grant_vv[0] == 1
        assert grant_vv[1] == 1  # the grant marker itself

    def test_release_of_unmastered_partition_rejected(self):
        cluster = make_cluster()

        def run():
            yield from cluster.sites[0].release_mastership([9])

        process = cluster.env.process(run())
        with pytest.raises(MastershipError):
            run_process(cluster.env, process)

    def test_release_waits_for_inflight_writer(self):
        cluster = make_cluster()
        site0, site1 = cluster.sites
        site0.mastered.add(5)
        cluster.activity.begin(0, [5])  # a routed txn is in flight
        release_time = []

        def slow_writer():
            txn = Transaction(
                "w", client_id=0, write_set=(("t", 1),), extra_cpu_ms=20.0
            )
            yield from site0.execute_update(txn, partitions=[5])

        def remaster():
            release_vv = yield from site0.release_mastership([5])
            release_time.append(cluster.env.now)
            yield from site1.grant_mastership([5], release_vv)

        cluster.env.process(slow_writer())
        cluster.env.process(remaster())
        cluster.env.run()
        # The release could not complete until the 20 ms writer committed.
        assert release_time and release_time[0] >= 20.0

    def test_grant_waits_for_release_marker_propagation(self):
        cluster = make_cluster()
        site0, site1 = cluster.sites
        site0.mastered.add(5)
        grant_time = []

        def run():
            release_vv = yield from site0.release_mastership([5])
            yield from site1.grant_mastership([5], release_vv)
            grant_time.append(cluster.env.now)

        cluster.env.process(run())
        cluster.env.run()
        # The grant had to wait for the release marker's log delivery.
        assert grant_time and grant_time[0] >= LOG_DELIVERY_MS

    def test_remastered_write_visible_at_new_master(self):
        """End-to-end: write at old master, remaster, write at new master,
        and confirm the new master saw the old update first (SI proof
        Appendix A, Case 2)."""
        cluster = make_cluster()
        site0, site1 = cluster.sites
        site0.mastered.add(5)

        def run():
            first = Transaction("w", client_id=0, write_set=(("t", 1),))
            tvv1 = yield from site0.execute_update(first)
            release_vv = yield from site0.release_mastership([5])
            grant_vv = yield from site1.grant_mastership([5], release_vv)
            second = Transaction("w", client_id=0, write_set=(("t", 1),))
            tvv2 = yield from site1.execute_update(second, min_begin=grant_vv)
            return first, tvv1, second, tvv2

        process = cluster.env.process(run())
        first, tvv1, second, tvv2 = run_process(cluster.env, process)
        # T2's begin dominates T1's commit: no overlapping write conflict.
        assert tvv2.dominates(tvv1)
        # Both versions exist in order at the new master.
        record = site1.database.record(("t", 1))
        stamps = [(version.origin, version.seq) for version in record.versions()]
        assert stamps[-2:] == [(0, tvv1[0]), (1, tvv2[1])]


class TestTwoPhaseCommitBranches:
    def test_prepare_holds_locks_until_decision(self):
        cluster = make_cluster()
        site = cluster.sites[0]
        trace = []

        def coordinator():
            txn = Transaction("w", client_id=0, write_set=(("t", 1), ("t", 2)))
            begin_vv = yield from site.execute_branch(txn, (("t", 1),))
            yield from site.prepare_branch(txn, (("t", 1),))
            trace.append(("prepared", cluster.env.now))
            yield cluster.env.timeout(10.0)  # uncertainty window
            yield from site.commit_branch(txn, (("t", 1),), begin_vv)
            trace.append(("committed", cluster.env.now))

        def local_writer():
            yield cluster.env.timeout(0.5)
            txn = Transaction("w", client_id=1, write_set=(("t", 1),))
            yield from site.execute_update(txn)
            trace.append(("local", cluster.env.now))

        cluster.env.process(coordinator())
        cluster.env.process(local_writer())
        cluster.env.run()
        labels = [label for label, _ in trace]
        assert labels == ["prepared", "committed", "local"]
        local_time = dict(trace)["local"]
        assert local_time > 10.0  # blocked across the uncertainty window

    def test_abort_branch_releases_locks(self):
        cluster = make_cluster()
        site = cluster.sites[0]
        done = []

        def coordinator():
            txn = Transaction("w", client_id=0, write_set=(("t", 1),))
            yield from site.execute_branch(txn, (("t", 1),))
            yield from site.prepare_branch(txn, (("t", 1),))
            yield from site.abort_branch(txn, (("t", 1),))

        def local_writer():
            yield cluster.env.timeout(0.5)
            txn = Transaction("w", client_id=1, write_set=(("t", 1),))
            yield from site.execute_update(txn)
            done.append(True)

        cluster.env.process(coordinator())
        cluster.env.process(local_writer())
        cluster.env.run()
        assert done
        assert site.commits == 1  # only the local writer committed


class TestDataShipping:
    def test_ship_out_and_install(self):
        cluster = Cluster(ClusterConfig(num_sites=2), replicated=False)
        source, destination = cluster.sites
        keys = (("t", 1), ("t", 2), ("t", 3))

        def run():
            payload = yield from source.ship_out(keys)
            yield from destination.install_shipment(keys)
            return payload

        process = cluster.env.process(run())
        payload = run_process(cluster.env, process)
        assert payload == 3 * RECORD_BYTES

    def test_unreplicated_sites_do_not_propagate(self):
        cluster = Cluster(ClusterConfig(num_sites=2), replicated=False)
        site0, site1 = cluster.sites
        txn = Transaction("w", client_id=0, write_set=(("t", 1),))

        def run():
            yield from site0.execute_update(txn)

        cluster.env.process(run())
        cluster.env.run()
        assert site0.svv.to_tuple() == (1, 0)
        assert site1.svv.to_tuple() == (0, 0)
        assert site1.database.record(("t", 1)) is None
