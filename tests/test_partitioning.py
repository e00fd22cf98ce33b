"""Tests for partition schemes and the placements they compute."""

import random
from itertools import combinations
from pathlib import Path

import pytest

from repro.partitioning import PartitionScheme
from repro.workloads import YCSBConfig, YCSBWorkload


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

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PartitionScheme(lambda key: 0, 0)
        with pytest.raises(ValueError):
            simple_scheme().range_placement(0)


def cut_weight(txns, scheme, placement):
    """Schism's objective: partition pairs one transaction co-accesses
    that ``placement`` puts at different sites, summed over ``txns``."""
    cut = 0
    for txn in txns:
        sites = [placement[p] for p in sorted(scheme.partitions_of(txn.all_keys()))]
        cut += sum(a != b for a, b in combinations(sites, 2))
    return cut


class TestSchism:
    """What the paper runs Schism for (§VI-B2): confirming that range
    placement minimizes distributed transactions on YCSB. A plain cut
    counter over generated transactions checks the same claim."""

    def test_confirms_range_partitioning_for_range_workload(self):
        workload = YCSBWorkload(YCSBConfig(num_partitions=40))
        pool = workload.client_pool(4)
        txns = []
        for client in range(4):
            rng = random.Random(client)
            txns += [pool.turn(client, rng, float(step)).txn for step in range(100)]
        scheme = workload.scheme
        range_cut = cut_weight(txns, scheme, scheme.range_placement(4))
        round_robin_cut = cut_weight(txns, scheme, scheme.round_robin_placement(4))
        assert workload.fixed_placement(4) == scheme.range_placement(4)
        assert 0 < range_cut < round_robin_cut / 2


def test_the_package_has_no_runtime_dependency():
    """``pip install -e .`` pulls nothing: the simulator is stdlib-only."""
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["dependencies"] == []
