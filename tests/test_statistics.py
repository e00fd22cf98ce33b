"""Unit tests for the site selector's access statistics."""

import random

from repro.core.partitions import PartitionTable
from repro.core.statistics import AccessStatistics, StatisticsConfig
from repro.sim.core import Environment


def make_stats(**overrides):
    defaults = dict(sample_rate=1.0, inter_txn_window_ms=10.0, expiry_ms=100.0)
    defaults.update(overrides)
    return AccessStatistics(StatisticsConfig(**defaults))


class TestWriteFrequencies:
    def test_write_fraction(self):
        stats = make_stats()
        stats.observe(0.0, client_id=1, partitions=[1, 2])
        stats.observe(1.0, client_id=1, partitions=[1])
        assert stats.write_fraction(1) == 1.0  # in every sampled txn
        assert stats.write_fraction(2) == 0.5
        assert stats.write_fraction(99) == 0.0

    def test_empty_stats(self):
        stats = make_stats()
        assert stats.write_fraction(0) == 0.0
        assert stats.intra_probability(0, 1) == 0.0
        assert stats.inter_probability(0, 1) == 0.0

    def test_duplicate_partitions_counted_once(self):
        stats = make_stats()
        stats.observe(0.0, client_id=1, partitions=[3, 3, 3])
        assert stats.partition_writes[3] == 1.0

    def test_site_write_loads_sum_to_one(self):
        stats = make_stats()
        table = PartitionTable(Environment(), {0: 0, 1: 0, 2: 1})
        stats.observe(0.0, 1, [0, 1])
        stats.follow_masters(table, num_sites=3)  # picks up what is there
        stats.observe(1.0, 1, [2])
        loads = stats.site_write_loads()
        assert loads == [2.0 / 3.0, 1.0 / 3.0, 0.0]
        assert sum(loads) == 1.0

    def test_site_write_loads_follow_a_remastering(self):
        stats = make_stats()
        table = PartitionTable(Environment(), {0: 0, 1: 0, 2: 1})
        stats.follow_masters(table, num_sites=3)
        stats.observe(0.0, 1, [0, 1])
        stats.observe(1.0, 1, [2])
        table.set_master(1, 2)
        assert stats.site_write_loads() == [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]

    def test_access_fraction_normalizes_by_mass(self):
        stats = make_stats()
        stats.observe(0.0, 1, [0, 1])
        stats.observe(1.0, 1, [0])
        assert stats.access_fraction(0) == 2.0 / 3.0
        assert stats.access_fraction(1) == 1.0 / 3.0
        assert stats.access_fraction(9) == 0.0


class TestIntraCorrelations:
    def test_intra_probability_symmetric_counts(self):
        stats = make_stats()
        stats.observe(0.0, 1, [1, 2])
        stats.observe(1.0, 1, [1, 3])
        assert stats.intra_probability(1, 2) == 0.5
        assert stats.intra_probability(2, 1) == 1.0
        assert stats.intra_probability(1, 3) == 0.5

    def test_intra_partners(self):
        stats = make_stats()
        stats.observe(0.0, 1, [1, 2, 3])
        assert set(stats.intra_partners(1)) == {2, 3}


class TestInterCorrelations:
    def test_same_client_within_window(self):
        stats = make_stats(inter_txn_window_ms=10.0)
        stats.observe(0.0, client_id=1, partitions=[1])
        stats.observe(5.0, client_id=1, partitions=[2])
        assert stats.inter_probability(1, 2) == 1.0
        # Direction matters: 2 was not followed by 1.
        assert stats.inter_probability(2, 1) == 0.0

    def test_outside_window_not_correlated(self):
        stats = make_stats(inter_txn_window_ms=10.0)
        stats.observe(0.0, client_id=1, partitions=[1])
        stats.observe(50.0, client_id=1, partitions=[2])
        assert stats.inter_probability(1, 2) == 0.0

    def test_different_clients_not_correlated(self):
        stats = make_stats()
        stats.observe(0.0, client_id=1, partitions=[1])
        stats.observe(1.0, client_id=2, partitions=[2])
        assert stats.inter_probability(1, 2) == 0.0


class TestExpiry:
    def test_expired_samples_decrement_counts(self):
        stats = make_stats(expiry_ms=100.0)
        stats.observe(0.0, 1, [1, 2])
        stats.observe(5.0, 1, [3])  # also creates inter pair 1->3, 2->3
        assert stats.partition_writes.get(1) == 1.0
        # A new observation far in the future expires both old samples.
        stats.observe(500.0, 1, [7])
        assert 1 not in stats.partition_writes
        assert 2 not in stats.partition_writes
        assert stats.intra_probability(1, 2) == 0.0
        assert stats.inter_probability(1, 3) == 0.0
        assert stats.partition_writes.get(7) == 1.0
        assert stats.total_writes == 1.0

    def test_max_samples_bound(self):
        stats = make_stats(expiry_ms=1e9, max_samples=5)
        for index in range(10):
            stats.observe(float(index), 1, [index])
        assert len(stats._samples) == 5
        # Early partitions were evicted.
        assert 0 not in stats.partition_writes
        assert 9 in stats.partition_writes


class TestSampling:
    def test_sample_rate_filters(self):
        config = StatisticsConfig(sample_rate=0.5)
        stats = AccessStatistics(config, rng=random.Random(42))
        for index in range(1000):
            stats.observe(float(index), 1, [index % 7])
        assert stats.observed == 1000
        assert 350 < stats.sampled < 650

    def test_full_sampling_without_rng(self):
        stats = AccessStatistics(StatisticsConfig(sample_rate=1.0))
        stats.observe(0.0, 1, [1])
        assert stats.sampled == 1
