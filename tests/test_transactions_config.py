"""Tests for the transaction type, the cluster cost model, and the
construction-time validation of every config."""

import dataclasses
import math

import pytest

from repro.core.statistics import StatisticsConfig
from repro.core.strategy import StrategyWeights
from repro.replication.manager import refresh_ms
from repro.sim.config import ClusterConfig
from repro.sim.network import ONE_WAY_LATENCY_MS
from repro.sites.data_site import (
    LOG_DELIVERY_MS,
    TXN_BEGIN_MS,
    TXN_COMMIT_MS,
    execution_ms,
    update_record_bytes,
)
from repro.storage.database import MAX_VERSIONS
from repro.transactions import KeyRange, Outcome, Transaction
from repro.workloads import OpenLoopSpec, SmallBankConfig, TPCCConfig, YCSBConfig


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
        assert execution_ms(reads=2, writes=3, scanned=10) == pytest.approx(
            2 * 0.02 + 3 * 0.05 + 10 * 0.001
        )

    def test_refresh_cost(self):
        assert refresh_ms(writes=5) == pytest.approx(0.01 + 5 * 0.004)

    def test_refresh_cheaper_than_execution(self):
        """The model applies refreshes far cheaper than original
        writes — the premise of lazy replication's economy."""
        writes = 10
        original = TXN_BEGIN_MS + execution_ms(0, writes, 0) + TXN_COMMIT_MS
        assert refresh_ms(writes) < original / 3


class TestSizeModel:
    def test_update_record_bytes(self):
        assert update_record_bytes(writes=3, sites=4) == 64 + 300 + 32


class TestClusterConfig:
    def test_defaults(self):
        config = ClusterConfig()
        assert config.num_sites == 4
        assert MAX_VERSIONS == 4  # the paper's empirical default

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
        # Used to fail inside the worker with a SimulationError.
        ("cores_per_site", dict(cores_per_site=0)),
        ("defenses", dict(defenses="adaptiv")),
    ])
    def test_bad_config_is_refused_at_construction_by_field(self, field, overrides):
        refused(ClusterConfig, field, **overrides)
        with pytest.raises(ValueError, match=field):
            ClusterConfig().scaled(**overrides)

    def test_log_delivery_below_client_round_trip(self):
        """Replicas must usually be session-fresh by the time a writing
        client's next transaction arrives (paper §VI-B2): delivery
        must beat the reply+request client hops."""
        assert LOG_DELIVERY_MS <= 2 * ONE_WAY_LATENCY_MS * 1.2


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


#: One invalid value per settable config field; every one is refused
#: at construction, naming ``Class.field``.
INVALID = [
    (ClusterConfig, "num_sites", 0),
    (ClusterConfig, "cores_per_site", 0),
    (ClusterConfig, "defenses", "wishful"),
    (StatisticsConfig, "inter_txn_window_ms", 0.0),
    (StatisticsConfig, "expiry_ms", -1.0),
    (StatisticsConfig, "max_samples", 0),
    (StatisticsConfig, "max_inter_pairs", 0),
    *((StrategyWeights, spec.name, -1.0) for spec in dataclasses.fields(StrategyWeights)),
    (YCSBConfig, "num_partitions", 0),
    (YCSBConfig, "rmw_fraction", 1.5),
    (YCSBConfig, "zipf_theta", -0.5),
    (YCSBConfig, "affinity_txns", 0),
    (TPCCConfig, "warehouses", 0),
    (TPCCConfig, "items", 0),
    (TPCCConfig, "stock_chunk", 0),
    (TPCCConfig, "neworder_remote_fraction", 1.5),
    (TPCCConfig, "payment_remote_fraction", -0.1),
    (TPCCConfig, "neworder_weight", -0.1),
    (TPCCConfig, "payment_weight", -0.1),
    (TPCCConfig, "stocklevel_weight", -0.1),
    (SmallBankConfig, "users", 0),
    (SmallBankConfig, "hotspot_fraction", 1.5),
    (OpenLoopSpec, "curve", "sawtooth"),
    (OpenLoopSpec, "modeled_clients", 0),
    (OpenLoopSpec, "admission_concurrency", 0),
    (OpenLoopSpec, "queue_capacity", -1),
]

#: Settable fields with no invalid value to refuse at construction.
ANY_VALUE = {
    (ClusterConfig, "seed"),  # any integer seeds the streams
    (OpenLoopSpec, "curve_params"),  # checked by the curve they build
}


@pytest.mark.parametrize(
    "cls,field,value", INVALID, ids=[f"{c.__name__}.{f}" for c, f, _ in INVALID]
)
def test_every_settable_field_refuses_an_invalid_value(cls, field, value):
    refused(cls, field, **{field: value})


def test_the_invalid_value_table_covers_every_settable_field():
    classes = {cls for cls, _, _ in INVALID}
    settable = {(cls, spec.name) for cls in classes for spec in dataclasses.fields(cls)}
    assert {(cls, field) for cls, field, _ in INVALID} | ANY_VALUE == settable
