"""Property-based tests over the workload generators."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (
    SmallBankConfig,
    SmallBankWorkload,
    TPCCConfig,
    TPCCWorkload,
    YCSBConfig,
    YCSBWorkload,
)


class TestYCSBProperties:
    @given(
        st.integers(min_value=3, max_value=200),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25)
    def test_generated_keys_always_in_range(self, partitions, rmw, seed):
        workload = YCSBWorkload(
            YCSBConfig(num_partitions=partitions, rmw_fraction=rmw, affinity_txns=5)
        )
        rng = random.Random(seed)
        pool = workload.client_pool(1)
        total_keys = partitions * workload.config.keys_per_partition
        for step in range(20):
            txn = pool.turn(0, rng, float(step)).txn
            for table, key in txn.all_keys():
                assert table == "usertable"
                assert 0 <= key < total_keys

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20)
    def test_shuffle_is_permutation(self, seed):
        workload = YCSBWorkload(YCSBConfig(num_partitions=64))
        workload.shuffle_correlations(random.Random(seed))
        assert sorted(workload.order) == list(range(64))
        for partition in range(64):
            assert workload.order[workload.position[partition]] == partition

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=20)
    def test_partition_mapping_consistent_with_scheme(self, seed):
        workload = YCSBWorkload(YCSBConfig(num_partitions=30, affinity_txns=4))
        rng = random.Random(seed)
        pool = workload.client_pool(1)
        txn = pool.turn(0, rng, 0.0).txn
        for key in txn.all_keys():
            partition = workload.scheme.partition(key)
            assert 0 <= partition < 30


class TestTPCCProperties:
    @given(
        st.integers(min_value=2, max_value=12),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25)
    def test_every_key_maps_to_valid_partition(self, warehouses, remote, seed):
        workload = TPCCWorkload(
            TPCCConfig(
                warehouses=warehouses,
                neworder_remote_fraction=remote,
                payment_remote_fraction=remote,
                items=200,
                customers_per_district=60,
            )
        )
        rng = random.Random(seed)
        pool = workload.client_pool(1)
        for step in range(15):
            txn = pool.turn(0, rng, float(step)).txn
            for key in txn.all_keys():
                partition = workload.scheme.partition(key)
                if key[0] == "item":
                    assert partition is None
                else:
                    assert 0 <= partition < workload.config.num_partitions
                unit = workload.placement_unit_of(key)
                if partition is not None:
                    # The unit is the warehouse base of the partition.
                    per = workload.config.partitions_per_warehouse
                    assert unit == (partition // per) * per

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=15)
    def test_writes_never_touch_static_tables(self, seed):
        workload = TPCCWorkload(TPCCConfig(items=100, customers_per_district=30))
        rng = random.Random(seed)
        pool = workload.client_pool(1)
        for step in range(15):
            txn = pool.turn(0, rng, float(step)).txn
            for table, _ in txn.write_set:
                assert table != "item"

    @given(st.integers(min_value=1, max_value=16))
    @settings(max_examples=10)
    def test_fixed_placement_covers_all_partitions(self, sites):
        workload = TPCCWorkload(TPCCConfig(items=100, customers_per_district=30))
        placement = workload.fixed_placement(sites)
        assert set(placement) == set(range(workload.config.num_partitions))
        assert set(placement.values()) <= set(range(sites))


class TestSmallBankProperties:
    @given(
        st.integers(min_value=100, max_value=5000),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25)
    def test_accounts_in_range(self, users, hotspot, seed):
        workload = SmallBankWorkload(
            SmallBankConfig(users=users, hotspot_fraction=hotspot)
        )
        rng = random.Random(seed)
        pool = workload.client_pool(1)
        for step in range(20):
            txn = pool.turn(0, rng, float(step)).txn
            for table, user in txn.all_keys():
                assert table in ("checking", "savings")
                assert 0 <= user < users
            partition_count = workload.config.num_partitions
            for key in txn.all_keys():
                assert 0 <= workload.scheme.partition(key) < partition_count
