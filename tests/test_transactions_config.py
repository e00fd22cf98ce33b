"""Tests for the transaction type, the cluster cost model, and the
construction-time validation of every cluster and strategy config."""

import dataclasses
import math

import pytest

from repro.core.statistics import StatisticsConfig
from repro.core.strategy import StrategyWeights
from repro.sim.config import ClusterConfig, CostModel, NetworkConfig, RpcConfig, SizeModel
from repro.transactions import KeyRange, Outcome, Transaction


def refused(cls, field, **overrides):
    """``cls(**overrides)`` must fail at construction, naming ``field``."""
    with pytest.raises(ValueError, match=rf"{cls.__name__}\.{field} must be"):
        cls(**overrides)


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

    @pytest.mark.parametrize("field,value", [
        *((spec.name, -1.0) for spec in dataclasses.fields(CostModel)),
        ("read_op_ms", math.nan),
        ("write_op_ms", math.inf),
    ])
    def test_every_cost_is_finite_and_nonnegative(self, field, value):
        refused(CostModel, field, **{field: value})
        assert CostModel(**{field: 0.0}).execution_ms(1, 1, 1) >= 0.0

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

    @pytest.mark.parametrize("field,overrides", [
        ("log_delivery_ms", dict(log_delivery_ms=-5.0)),  # was silently 0
        ("max_versions", dict(max_versions=0)),
    ])
    def test_bad_config_is_refused_at_construction_by_field(self, field, overrides):
        refused(ClusterConfig, field, **overrides)
        with pytest.raises(ValueError, match=field):
            ClusterConfig().scaled(**overrides)

    def test_log_delivery_below_client_round_trip(self):
        """Replicas must usually be session-fresh by the time a writing
        client's next transaction arrives (paper §VI-B2): delivery
        must beat the reply+request client hops."""
        config = ClusterConfig()
        client_hops = 2 * config.network.one_way_latency_ms
        assert config.log_delivery_ms <= client_hops * 1.2


class TestNetworkConfig:
    @pytest.mark.parametrize("field,overrides", [
        ("one_way_latency_ms", dict(one_way_latency_ms=-1.0)),  # negative delay
        ("bandwidth_bytes_per_ms", dict(bandwidth_bytes_per_ms=0.0)),  # / 0
    ])
    def test_bad_config_is_refused_at_construction_by_field(self, field, overrides):
        refused(NetworkConfig, field, **overrides)


class TestRpcConfig:
    @pytest.mark.parametrize("field,overrides", [
        ("timeout_ms", dict(timeout_ms=0.0)),
        ("remaster_timeout_ms", dict(remaster_timeout_ms=-1.0)),
        ("max_retries", dict(max_retries=-1)),
        ("backoff_base_ms", dict(backoff_base_ms=-1.0)),
        ("backoff_cap_ms", dict(backoff_cap_ms=0.0)),
        ("suspicion_threshold", dict(suspicion_threshold=0)),
        # Used to pass every unfaulted run and fail at injector install.
        ("detector_policy", dict(detector_policy="adaptiv")),
        ("phi_threshold", dict(phi_threshold=0.0)),
        ("suspicion_quarantine_ms", dict(suspicion_quarantine_ms=-1.0)),
        ("deadline_quantile", dict(deadline_quantile=0.0)),
        ("deadline_quantile", dict(deadline_quantile=1.5)),
        ("deadline_multiplier", dict(deadline_multiplier=0.5)),
        ("deadline_min_samples", dict(deadline_min_samples=0)),
        ("deadline_floor_ms", dict(deadline_floor_ms=-1.0)),
        ("hedge_quantile", dict(hedge_quantile=math.nan)),
    ])
    def test_bad_config_is_refused_at_construction_by_field(self, field, overrides):
        refused(RpcConfig, field, **overrides)

    def test_top_quantile_is_accepted(self):
        rpc = RpcConfig(deadline_quantile=1.0, hedge_quantile=1.0)
        assert rpc.deadline_quantile == rpc.hedge_quantile == 1.0


class TestStatisticsConfig:
    @pytest.mark.parametrize("field,overrides", [
        ("inter_txn_window_ms", dict(inter_txn_window_ms=0.0)),
        ("expiry_ms", dict(expiry_ms=-1.0)),
        ("max_samples", dict(max_samples=0)),
        ("max_inter_pairs", dict(max_inter_pairs=0)),
    ])
    def test_bad_config_is_refused_at_construction_by_field(self, field, overrides):
        refused(StatisticsConfig, field, **overrides)


class TestStrategyWeights:
    @pytest.mark.parametrize("field,value", [
        *((spec.name, -1.0) for spec in dataclasses.fields(StrategyWeights)),
        ("balance", math.nan),  # used to die mid-run with an IndexError
        ("delay", math.inf),
    ])
    def test_every_weight_is_finite_and_nonnegative(self, field, value):
        refused(StrategyWeights, field, **{field: value})
        ones = StrategyWeights(*(1.0,) * len(dataclasses.fields(StrategyWeights)))
        with pytest.raises(ValueError, match=field):
            ones.scaled(**{field: value})  # scaled() goes through the constructor
