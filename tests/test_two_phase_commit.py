"""Tests for the 2PC coordination module used by the comparators."""

import pytest

from repro.partitioning.schemes import PartitionScheme
from repro.sim.config import ClusterConfig
from repro.systems import Cluster, build_system
from repro.systems.two_phase_commit import group_writes_by_unit, two_phase_commit
from repro.transactions import Transaction
from repro.versioning import VersionVector
from tests.helpers import run_process


def make_multi_master(num_sites=3, num_partitions=6, keys_per_partition=10):
    cluster = Cluster(ClusterConfig(num_sites=num_sites))
    scheme = PartitionScheme(
        lambda key: None if key[0] == "static" else key[1] // keys_per_partition,
        num_partitions,
    )
    placement = scheme.range_placement(num_sites)
    system = build_system("multi-master", cluster, scheme=scheme, placement=placement)
    return cluster, system


class TestGrouping:
    def test_groups_by_unit(self):
        cluster, system = make_multi_master()
        txn = Transaction(
            "w", 0, write_set=(("t", 1), ("t", 5), ("t", 15), ("t", 25))
        )
        groups = group_writes_by_unit(system, txn)
        assert set(groups) == {0, 1, 2}
        assert groups[0] == (("t", 1), ("t", 5))

    def test_static_table_write_rejected(self):
        cluster, system = make_multi_master()
        txn = Transaction("w", 0, write_set=(("static", 1),))
        with pytest.raises(ValueError):
            group_writes_by_unit(system, txn)


class TestTwoPhaseCommit:
    def test_all_branches_commit(self):
        cluster, system = make_multi_master()
        txn = Transaction("w", 0, write_set=(("t", 5), ("t", 25), ("t", 45)))
        branches = group_writes_by_unit(system, txn)

        def run():
            return (yield from two_phase_commit(system, txn, branches))

        process = cluster.env.process(run())
        merged = run_process(cluster.env, process)
        # Every participant committed its branch and the merged vector
        # reflects all three commits.
        assert [site.commits for site in cluster.sites] == [1, 1, 1]
        assert merged.total() == 3

    def test_coordinator_is_largest_branch(self):
        cluster, system = make_multi_master()
        # Two keys at site 0's units, one key at site 2's.
        txn = Transaction("w", 0, write_set=(("t", 1), ("t", 11), ("t", 41)))
        branches = group_writes_by_unit(system, txn)
        items = sorted(branches.items(), key=lambda item: (-len(item[1]), item[0]))
        coordinator_unit = items[0][0]
        assert system.placement[coordinator_unit] == 0

    def test_uncertainty_window_blocks_local_writer(self):
        cluster, system = make_multi_master()
        finish_times = {}

        def distributed():
            txn = Transaction("w", 0, write_set=(("t", 5), ("t", 45)))
            branches = group_writes_by_unit(system, txn)
            yield from two_phase_commit(system, txn, branches)
            finish_times["2pc"] = cluster.env.now

        def local():
            yield cluster.env.timeout(1.2)  # arrive once the branch holds locks
            txn = Transaction("w", 1, write_set=(("t", 5),))
            yield from cluster.sites[0].execute_update(txn)
            finish_times["local"] = cluster.env.now

        cluster.env.process(distributed())
        cluster.env.process(local())
        cluster.env.run()
        # The local conflicting writer waits out the uncertainty window:
        # it cannot commit before the 2PC branch releases its locks.
        assert finish_times["local"] > finish_times["2pc"] - 1.0
        assert finish_times["local"] > 2.5

    def test_min_begin_enforced_at_branches(self):
        cluster, system = make_multi_master()
        done = []

        def earlier_write():
            txn = Transaction("w", 0, write_set=(("t", 1),))
            yield from cluster.sites[0].execute_update(txn)

        def distributed():
            # Require every branch to have seen site 0's first commit.
            txn = Transaction("w", 1, write_set=(("t", 5), ("t", 45)))
            branches = group_writes_by_unit(system, txn)
            merged = yield from two_phase_commit(
                system, txn, branches, min_begin=VersionVector([1, 0, 0])
            )
            done.append(merged)
            # Site 2's branch waited for the refresh of site 0's commit.
            assert cluster.sites[2].svv[0] >= 1

        def sequence():
            yield cluster.env.process(earlier_write())
            yield cluster.env.process(distributed())

        process = cluster.env.process(sequence())
        run_process(cluster.env, process)
        assert done and done[0].dominates(VersionVector([1, 0, 0]))

    def test_network_traffic_categorized(self):
        cluster, system = make_multi_master()
        txn = Transaction("w", 0, write_set=(("t", 5), ("t", 45)))
        branches = group_writes_by_unit(system, txn)

        def run():
            yield from two_phase_commit(system, txn, branches)

        process = cluster.env.process(run())
        run_process(cluster.env, process)
        assert cluster.network.traffic.bytes_by_category.get("2pc", 0) > 0
        # Three rounds to one remote participant = 3 round trips.
        assert cluster.network.traffic.messages_by_category["2pc"] == 6
