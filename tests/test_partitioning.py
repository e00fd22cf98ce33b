"""Tests for partition schemes and the Schism-style partitioner."""

import random
import subprocess
import sys

import pytest

from repro.partitioning import PartitionScheme, SchismPartitioner
from repro.transactions import Transaction


def simple_scheme(num_partitions=12, keys_per_partition=10):
    return PartitionScheme(lambda key: key[1] // keys_per_partition, num_partitions)


class TestPartitionScheme:
    def test_partition_lookup(self):
        scheme = simple_scheme()
        assert scheme.partition(("t", 0)) == 0
        assert scheme.partition(("t", 25)) == 2

    def test_out_of_range_partition_rejected(self):
        scheme = simple_scheme(num_partitions=2)
        with pytest.raises(ValueError):
            scheme.partition(("t", 999))

    def test_static_table_returns_none(self):
        scheme = PartitionScheme(
            lambda key: None if key[0] == "item" else key[1], 10
        )
        assert scheme.partition(("item", 3)) is None
        assert scheme.partitions_of([("item", 3), ("t", 4)]) == {4}

    def test_range_placement_contiguous(self):
        scheme = simple_scheme(num_partitions=12)
        placement = scheme.range_placement(3)
        assert [placement[p] for p in range(12)] == [0] * 4 + [1] * 4 + [2] * 4

    def test_range_placement_uneven(self):
        scheme = simple_scheme(num_partitions=10)
        placement = scheme.range_placement(4)
        assert set(placement.values()) <= {0, 1, 2, 3}
        assert len(placement) == 10

    def test_round_robin_placement(self):
        scheme = simple_scheme(num_partitions=6)
        placement = scheme.round_robin_placement(3)
        assert [placement[p] for p in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_single_site_placement(self):
        scheme = simple_scheme(num_partitions=4)
        assert set(scheme.single_site_placement(2).values()) == {2}

    def test_hash_placement_deterministic(self):
        scheme = simple_scheme()
        assert scheme.hash_placement(4) == scheme.hash_placement(4)

    def test_owner_lookup(self):
        scheme = simple_scheme(num_partitions=4)
        placement = scheme.range_placement(2)
        owner_of = scheme.owner_lookup(placement)
        assert owner_of(("t", 5)) == 0
        assert owner_of(("t", 35)) == 1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PartitionScheme(lambda key: 0, 0)
        with pytest.raises(ValueError):
            simple_scheme().range_placement(0)


class TestSchism:
    def test_coaccessed_partitions_colocated(self):
        """Partitions always accessed together end up at one site."""
        partitioner = SchismPartitioner(num_partitions=8, num_sites=2)
        # Two strongly-coupled clusters: {0,1,2,3} and {4,5,6,7}.
        for _ in range(50):
            partitioner.observe([0, 1, 2, 3])
            partitioner.observe([4, 5, 6, 7])
        placement = partitioner.placement()
        first = {placement[p] for p in (0, 1, 2, 3)}
        second = {placement[p] for p in (4, 5, 6, 7)}
        assert len(first) == 1
        assert len(second) == 1
        assert first != second
        assert partitioner.cut_weight(placement) == 0

    def test_confirms_range_partitioning_for_range_workload(self):
        """The paper uses Schism to confirm range placement minimizes
        distributed transactions for range-correlated workloads."""
        rng = random.Random(1)
        partitioner = SchismPartitioner(num_partitions=16, num_sites=4)
        for _ in range(400):
            base = rng.randrange(16)
            neighbour = min(15, base + rng.randint(0, 1))
            partitioner.observe([base, neighbour])
        placement = partitioner.placement()
        scheme = PartitionScheme(lambda key: key[1], 16)
        range_placement = scheme.range_placement(4)
        schism_cut = partitioner.cut_weight(placement)
        range_cut = partitioner.cut_weight(range_placement)
        round_robin_cut = partitioner.cut_weight(scheme.round_robin_placement(4))
        # Schism's cut is comparable to range partitioning's and far
        # better than scattering.
        assert schism_cut <= range_cut * 1.5
        assert schism_cut < round_robin_cut / 2

    def test_observe_workload_via_transactions(self):
        partitioner = SchismPartitioner(num_partitions=4, num_sites=2)
        scheme = PartitionScheme(lambda key: key[1], 4)
        txns = [
            Transaction("w", 0, write_set=(("t", 0), ("t", 1))),
            Transaction("w", 0, write_set=(("t", 2), ("t", 3))),
        ]
        partitioner.observe_workload(txns, scheme.partition)
        assert partitioner.graph.has_edge(0, 1)
        assert partitioner.graph.has_edge(2, 3)
        assert not partitioner.graph.has_edge(1, 2)

    def test_rebalance_moves_weight_off_hot_site(self):
        partitioner = SchismPartitioner(num_partitions=6, num_sites=2)
        # Partition 0 is extremely hot and isolated; 1-5 form a cluster.
        for _ in range(100):
            partitioner.observe([0])
        for _ in range(20):
            partitioner.observe([1, 2, 3, 4, 5])
        placement = partitioner.placement()
        # The hot partition should not share a site with the whole
        # cluster (load balance repair).
        cluster_sites = {placement[p] for p in (1, 2, 3, 4, 5)}
        assert placement[0] not in cluster_sites or len(cluster_sites) > 1

    def test_invalid_sites(self):
        with pytest.raises(ValueError):
            SchismPartitioner(num_partitions=4, num_sites=0)

    def test_placement_covers_all_partitions(self):
        partitioner = SchismPartitioner(num_partitions=9, num_sites=3)
        partitioner.observe([1, 2])
        placement = partitioner.placement()
        assert set(placement) == set(range(9))
        assert set(placement.values()) <= {0, 1, 2}


def test_networkx_is_imported_only_by_the_partitioner():
    """``import repro`` must not pay networkx's 110 ms / 14 MB: every
    CLI call, spawn worker and benchmark child imports the package, and
    only :class:`SchismPartitioner` needs the library."""
    code = (
        "import sys, repro.bench, repro.cli, repro.faults.chaos\n"
        "assert 'networkx' not in sys.modules, 'imported eagerly'\n"
        "from repro.partitioning import SchismPartitioner\n"
        "SchismPartitioner(4, 2)\n"
        "assert 'networkx' in sys.modules\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
