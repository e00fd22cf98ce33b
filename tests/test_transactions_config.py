"""Tests for the transaction type and the cluster cost model."""

import pytest

from repro.sim.config import ClusterConfig, CostModel, SizeModel
from repro.transactions import KeyRange, Outcome, Transaction


class TestTransaction:
    def test_read_only(self):
        read = Transaction("r", 0, read_set=(("t", 1),))
        write = Transaction("w", 0, write_set=(("t", 1),))
        assert read.is_read_only
        assert not write.is_read_only

    def test_unique_ids(self):
        first = Transaction("w", 0)
        second = Transaction("w", 0)
        assert first.txn_id != second.txn_id

    def test_timings_accumulate(self):
        txn = Transaction("w", 0)
        txn.add_timing("execute", 1.0)
        txn.add_timing("execute", 0.5)
        txn.add_timing("network", 2.0)
        assert txn.timings == {"execute": 1.5, "network": 2.0}

    def test_all_keys(self):
        txn = Transaction(
            "w", 0,
            write_set=(("t", 1),),
            read_set=(("t", 2),),
            scan_set=((("t", 3), ("t", 4)), (("u", 9),)),
        )
        assert txn.scan_count == 3
        # Writes, reads, then the scan blocks flattened in order.
        assert txn.all_keys() == (
            ("t", 1), ("t", 2), ("t", 3), ("t", 4), ("u", 9),
        )
        assert Transaction("w", 0).scan_count == 0

    def test_all_keys_does_not_care_what_kind_of_block_it_flattens(self):
        blocks = ((("t", 3), ("t", 4)), KeyRange("t", range(7, 10)), (("u", 9),))
        txn = Transaction("r", 0, scan_set=blocks)
        assert txn.scan_count == 6
        assert txn.all_keys() == (
            ("t", 3), ("t", 4), ("t", 7), ("t", 8), ("t", 9), ("u", 9),
        )

    def test_outcome_defaults(self):
        outcome = Outcome(committed=True)
        assert not outcome.remastered
        assert not outcome.distributed
        assert outcome.retries == 0


class TestCostModel:
    def test_execution_cost_composition(self):
        costs = CostModel(read_op_ms=1.0, write_op_ms=2.0, scan_op_ms=0.1)
        assert costs.execution_ms(reads=2, writes=3, scanned=10) == pytest.approx(9.0)

    def test_refresh_cost(self):
        costs = CostModel(refresh_base_ms=0.5, refresh_op_ms=0.1)
        assert costs.refresh_ms(writes=5) == pytest.approx(1.0)

    def test_refresh_cheaper_than_execution(self):
        """The default model applies refreshes far cheaper than
        original writes — the premise of lazy replication's economy."""
        costs = CostModel()
        writes = 10
        original = costs.txn_begin_ms + costs.execution_ms(0, writes, 0) + costs.txn_commit_ms
        refresh = costs.refresh_ms(writes)
        assert refresh < original / 3


class TestSizeModel:
    def test_update_record_bytes(self):
        sizes = SizeModel(record_bytes=100, rpc_overhead_bytes=64, vector_entry_bytes=8)
        assert sizes.update_record_bytes(writes=3, sites=4) == 64 + 300 + 32


class TestClusterConfig:
    def test_defaults(self):
        config = ClusterConfig()
        assert config.num_sites == 4
        assert config.max_versions == 4  # the paper's empirical default

    def test_scaled_copy(self):
        config = ClusterConfig(num_sites=4)
        bigger = config.scaled(num_sites=8, seed=3)
        assert bigger.num_sites == 8
        assert bigger.seed == 3
        assert config.num_sites == 4  # original untouched

    @pytest.mark.parametrize("num_sites", [0, -1, 65_536])
    def test_site_count_must_fit_the_origin_column(self, num_sites):
        """A version's origin is an unsigned 16-bit site index
        (``Table._origins``): out-of-range counts fail here, by name,
        not as an ``OverflowError`` from the first remote install."""
        with pytest.raises(ValueError, match="num_sites"):
            ClusterConfig(num_sites=num_sites)
        with pytest.raises(ValueError, match="num_sites"):
            ClusterConfig().scaled(num_sites=num_sites)
        assert ClusterConfig(num_sites=65_535).num_sites == 65_535

    def test_log_delivery_below_client_round_trip(self):
        """Replicas must usually be session-fresh by the time a writing
        client's next transaction arrives (paper §VI-B2): delivery
        must beat the reply+request client hops."""
        config = ClusterConfig()
        client_hops = 2 * config.network.one_way_latency_ms
        assert config.log_delivery_ms <= client_hops * 1.2
