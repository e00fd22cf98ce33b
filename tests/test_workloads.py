"""Tests for the workload generators (paper §VI-A.2, Appendices C/F)."""

import random
from collections import Counter

import pytest

from repro.workloads import (
    SmallBankWorkload,
    TPCCConfig,
    TPCCWorkload,
    YCSBConfig,
    YCSBWorkload,
    build_workload,
)
from repro.workloads.smallbank import HOTSPOT_ACCOUNTS, SmallBankConfig
from repro.workloads.tpcc import CUSTOMERS_PER_DISTRICT, MAX_ORDER_LINES, MIN_ORDER_LINES


def drive(workload, txns, rng=None, client_id=0, now_step=1.0):
    """Generate ``txns`` transactions from one client."""
    rng = rng or random.Random(1)
    pool = workload.client_pool(client_id + 1)
    turns = []
    now = 0.0
    for _ in range(txns):
        turns.append(pool.turn(client_id, rng, now))
        now += now_step
    return turns


class TestYCSB:
    def make(self, **overrides):
        defaults = dict(num_partitions=50, affinity_txns=20)
        defaults.update(overrides)
        return YCSBWorkload(YCSBConfig(**defaults))

    def test_rmw_structure(self):
        workload = self.make(rmw_fraction=1.0)
        for turn in drive(workload, 50):
            txn = turn.txn
            assert txn.txn_type == "rmw"
            assert len(txn.write_set) == 3  # paper: RMW updates three keys
            assert txn.read_set == txn.write_set
            for table, key in txn.write_set:
                assert table == "usertable"
                assert 0 <= key < 50 * 100

    def test_rmw_keys_near_base_partition(self):
        workload = self.make(rmw_fraction=1.0)
        scheme = workload.scheme
        for turn in drive(workload, 100):
            partitions = [scheme.partition(k) for k in turn.txn.write_set]
            base = partitions[0]
            # Bernoulli(5, 0.5) - 3 offsets: within [-3, +2] of the base.
            for partition in partitions[1:]:
                offset = (partition - base) % 50
                assert offset <= 2 or offset >= 47

    @pytest.mark.parametrize("field,overrides", [
        ("num_partitions", dict(num_partitions=0)),  # randrange's "empty range"
        ("rmw_fraction", dict(rmw_fraction=1.5)),
        ("affinity_txns", dict(affinity_txns=0)),
        ("zipf_theta", dict(zipf_theta=-0.5)),
    ])
    def test_bad_config_is_refused_at_construction_by_field(self, field, overrides):
        with pytest.raises(ValueError, match=rf"YCSBConfig\.{field} must be"):
            YCSBConfig(**overrides)
        with pytest.raises(ValueError, match=field):
            build_workload("ycsb", **overrides)  # the CLI / WorkloadSpec route

    def test_a_scan_longer_than_the_key_space_wraps_and_is_accepted(self):
        workload = self.make(num_partitions=3, rmw_fraction=0.0)
        for turn in drive(workload, 20):
            assert 2 <= len(turn.txn.scan_set) <= 10
            assert {key[1] // 100 for key in turn.txn.all_keys()} <= {0, 1, 2}

    def test_scan_length_in_paper_range(self):
        workload = self.make(rmw_fraction=0.0)
        lengths = set()
        for turn in drive(workload, 60):
            txn = turn.txn
            assert txn.txn_type == "scan"
            assert txn.is_read_only
            assert 2 <= len(txn.scan_set) <= 10  # one block per partition
            assert txn.scan_count == 100 * len(txn.scan_set)
            lengths.add(len(txn.scan_set))
        assert len(lengths) > 3  # varied lengths

    def test_scan_covers_consecutive_partitions(self):
        workload = self.make(rmw_fraction=0.0)
        scheme = workload.scheme
        turn = drive(workload, 1)[0]
        partitions = sorted({scheme.partition(k) for k in turn.txn.all_keys()})
        span = [(p - partitions[0]) % 50 for p in partitions]
        assert span == list(range(len(partitions)))

    def test_mix_fraction(self):
        workload = self.make(rmw_fraction=0.5)
        kinds = Counter(turn.txn.txn_type for turn in drive(workload, 600))
        assert 0.4 < kinds["rmw"] / 600 < 0.6

    def test_affinity_reset_after_period(self):
        workload = self.make(affinity_txns=10)
        turns = drive(workload, 35)
        resets = [index for index, turn in enumerate(turns) if turn.reset_session]
        assert resets == [10, 20, 30]

    def test_shuffle_changes_neighbourhoods(self):
        workload = self.make()
        before = [workload._neighbour(7, off) for off in (-2, -1, 1, 2)]
        workload.shuffle_correlations(random.Random(3))
        after = [workload._neighbour(7, off) for off in (-2, -1, 1, 2)]
        assert before != after
        # position/order stay mutually inverse.
        for partition in range(50):
            assert workload.order[workload.position[partition]] == partition

    def test_zipf_skews_base_partitions(self):
        workload = self.make(zipf_theta=0.99, rmw_fraction=1.0, affinity_txns=1)
        scheme = workload.scheme
        rng = random.Random(5)
        bases = Counter()
        pool = workload.client_pool(1)
        for index in range(2000):
            turn = pool.turn(0, rng, float(index))
            bases[scheme.partition(turn.txn.write_set[0])] += 1
        top_share = sum(count for p, count in bases.items() if p < 10) / 2000
        assert top_share > 0.25  # popular partitions dominate

    def test_recommended_weights(self):
        assert self.make().recommended_weights().intra_txn == 3.0


class TestTPCC:
    def make(self, **overrides):
        return TPCCWorkload(TPCCConfig(**overrides))

    def test_mix(self):
        workload = self.make()
        kinds = Counter(turn.txn.txn_type for turn in drive(workload, 800))
        assert 0.37 < kinds["new_order"] / 800 < 0.53
        assert 0.37 < kinds["payment"] / 800 < 0.53
        assert 0.04 < kinds["stock_level"] / 800 < 0.17

    @pytest.mark.parametrize("field,overrides", [
        ("warehouses", dict(warehouses=0)),
        ("stock_chunk", dict(stock_chunk=0)),  # a count / chunk below 1
        ("neworder_remote_fraction", dict(neworder_remote_fraction=1.5)),
        ("payment_weight", dict(payment_weight=-0.1, neworder_weight=1.0)),
        ("stocklevel_weight",  # Stock-Level silently never ran
         dict(neworder_weight=0.9, payment_weight=0.9, stocklevel_weight=0.9)),
    ])
    def test_bad_config_is_refused_at_construction_by_field(self, field, overrides):
        with pytest.raises(ValueError, match=rf"TPCCConfig.*{field}.* must "):
            TPCCConfig(**overrides)
        with pytest.raises(ValueError, match=field):
            build_workload("tpcc", **overrides)  # the CLI / WorkloadSpec route

    def test_fig4e_mix_is_accepted(self):
        for fraction in (0.45, 0.90, 0.1, 0.3, 0.7):
            rest = 1.0 - fraction
            TPCCConfig(neworder_weight=fraction, payment_weight=rest / 2,
                       stocklevel_weight=rest / 2)

    def test_neworder_write_set_structure(self):
        workload = self.make(neworder_remote_fraction=0.0)
        for turn in drive(workload, 60):
            txn = turn.txn
            if txn.txn_type != "new_order":
                continue
            tables = Counter(table for table, _ in txn.write_set)
            assert tables["district"] == 1
            assert tables["orders"] == 1
            assert tables["new_orders"] == 1
            assert MIN_ORDER_LINES <= tables["stock"] <= MAX_ORDER_LINES
            assert tables["order_line"] == tables["stock"]
            # All stock from the home warehouse when remote fraction 0.
            home = txn.write_set[0][1][0]
            for table, pk in txn.write_set:
                if table == "stock":
                    assert pk[0] == home

    def test_remote_neworder_touches_other_warehouse(self):
        workload = self.make(neworder_remote_fraction=1.0)
        saw_remote = False
        for turn in drive(workload, 40):
            txn = turn.txn
            if txn.txn_type != "new_order":
                continue
            home = txn.write_set[0][1][0]
            suppliers = {pk[0] for table, pk in txn.write_set if table == "stock"}
            if suppliers - {home}:
                saw_remote = True
        assert saw_remote

    def test_payment_write_set(self):
        workload = self.make(payment_remote_fraction=0.0)
        for turn in drive(workload, 60):
            txn = turn.txn
            if txn.txn_type != "payment":
                continue
            tables = [table for table, _ in txn.write_set]
            assert tables == ["warehouse", "district", "customer", "history"]

    def test_order_ids_monotonic_per_district(self):
        workload = self.make()
        first = workload._order_id(0, 0)
        second = workload._order_id(0, 0)
        other = workload._order_id(0, 1)
        assert second == first + 1
        assert other == 0

    def test_stocklevel_reads_recent_lines(self):
        workload = self.make(stocklevel_weight=1.0, neworder_weight=0.0, payment_weight=0.0)
        rng = random.Random(2)
        warehouse = rng.randrange(workload.config.warehouses)
        # Seed recent lines via a New-Order for this client's warehouse.
        no = workload._make_neworder(0, warehouse, rng)
        sl = workload._make_stocklevel(0, warehouse, rng)
        # District row plus order lines and stock entries.
        tables = Counter(table for table, _ in sl.all_keys())
        assert tables["district"] == 1
        if tables.get("order_line"):
            assert tables["stock"] >= 1
        assert sl.is_read_only

    def test_partition_mapping_in_bounds(self):
        workload = self.make()
        scheme = workload.scheme
        cfg = workload.config
        assert scheme.partition(("item", 17)) is None  # static table
        for key in [
            ("warehouse", 9),
            ("district", (9, 9)),
            ("customer", (9, 9, CUSTOMERS_PER_DISTRICT - 1)),
            ("history", (9, 9, CUSTOMERS_PER_DISTRICT - 1, 12345)),
            ("stock", (9, cfg.items - 1)),
            ("orders", (9, 9, 99999)),
        ]:
            partition = scheme.partition(key)
            assert 0 <= partition < cfg.num_partitions

    def test_same_warehouse_same_placement_unit(self):
        workload = self.make()
        unit_district = workload.placement_unit_of(("district", (3, 5)))
        unit_stock = workload.placement_unit_of(("stock", (3, 100)))
        unit_other = workload.placement_unit_of(("stock", (4, 100)))
        assert unit_district == unit_stock
        assert unit_district != unit_other
        assert workload.placement_unit_of(("item", 5)) is None

    def test_fixed_placement_keeps_warehouses_whole(self):
        workload = self.make()
        placement = workload.fixed_placement(4)
        cfg = workload.config
        for warehouse in range(cfg.warehouses):
            base = warehouse * cfg.partitions_per_warehouse
            sites = {
                placement[base + offset]
                for offset in range(cfg.partitions_per_warehouse)
            }
            assert len(sites) == 1


class TestSmallBank:
    def make(self, **overrides):
        return SmallBankWorkload(SmallBankConfig(**overrides))

    def test_mix(self):
        workload = self.make()
        kinds = Counter(turn.txn.txn_type for turn in drive(workload, 800))
        assert 0.37 < kinds["single_update"] / 800 < 0.53
        assert 0.32 < kinds["two_row_update"] / 800 < 0.48
        assert 0.09 < kinds["balance"] / 800 < 0.22

    @pytest.mark.parametrize("field,overrides", [
        ("users", dict(users=0)),
        ("hotspot_fraction", dict(hotspot_fraction=-0.1)),
    ])
    def test_bad_config_is_refused_at_construction_by_field(self, field, overrides):
        with pytest.raises(ValueError, match=rf"SmallBankConfig.*{field}.* must "):
            SmallBankConfig(**overrides)
        with pytest.raises(ValueError, match=field):
            build_workload("smallbank", **overrides)

    def test_single_update_touches_one_account(self):
        workload = self.make()
        for turn in drive(workload, 100):
            txn = turn.txn
            if txn.txn_type == "single_update":
                assert len(txn.write_set) == 1
                assert txn.write_set[0][0] in ("checking", "savings")

    def test_two_row_update_distinct_users(self):
        workload = self.make()
        for turn in drive(workload, 200):
            txn = turn.txn
            if txn.txn_type == "two_row_update":
                (_, a), (_, b) = txn.write_set
                assert a != b

    def test_balance_reads_both_accounts(self):
        workload = self.make()
        for turn in drive(workload, 200):
            txn = turn.txn
            if txn.txn_type == "balance":
                assert txn.is_read_only
                tables = sorted(table for table, _ in txn.read_set)
                assert tables == ["checking", "savings"]
                assert txn.read_set[0][1] == txn.read_set[1][1]

    def test_counterparty_near_user(self):
        workload = self.make()
        rng = random.Random(9)
        for _ in range(100):
            user = 5000
            other = workload._counterparty(user, rng)
            partition_gap = abs(other // 100 - user // 100)
            assert partition_gap <= 3 or partition_gap >= 97  # wraparound

    def test_hotspot_draws(self):
        workload = self.make(hotspot_fraction=0.5)
        rng = random.Random(3)
        draws = [workload._draw_user(rng) for _ in range(1000)]
        hot = sum(1 for d in draws if d < HOTSPOT_ACCOUNTS)
        assert 0.4 < hot / 1000 < 0.6
