"""Unit tests for the site selector's access statistics."""

from collections import deque
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.partitions import PartitionTable
from repro.core.statistics import COMPACT_AT, AccessStatistics, StatisticsConfig
from repro.sim.core import Environment


def make_stats(**overrides):
    defaults = dict(inter_txn_window_ms=10.0, expiry_ms=100.0)
    defaults.update(overrides)
    return AccessStatistics(StatisticsConfig(**defaults))


class TestWriteFrequencies:
    def test_write_fraction(self):
        """A partition's write count over the sample count."""
        stats = make_stats()
        stats.observe(0.0, client_id=1, partitions=[1, 2])
        stats.observe(1.0, client_id=1, partitions=[1])
        assert stats._sample_count == 2
        assert stats.partition_writes == {1: 2.0, 2: 1.0}  # 1 in every txn

    def test_empty_stats(self):
        stats = make_stats()
        assert stats._sample_count == 0
        assert stats.partition_writes == {}
        assert stats.co_intra == {}
        assert stats.co_inter == {}
        assert stats.access_fraction(0) == 0.0

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
        """Pair counts are symmetric; P(2 | 1) = 1/2 and P(1 | 2) = 1
        differ only by the partitions' write counts."""
        stats = make_stats()
        stats.observe(0.0, 1, [1, 2])
        stats.observe(1.0, 1, [1, 3])
        assert stats.co_intra == {1: {2: 1.0, 3: 1.0}, 2: {1: 1.0}, 3: {1: 1.0}}
        assert stats.partition_writes == {1: 2.0, 2: 1.0, 3: 1.0}

    def test_intra_partners(self):
        stats = make_stats()
        stats.observe(0.0, 1, [1, 2, 3])
        assert set(stats.co_intra[1]) == {2, 3}


class TestInterCorrelations:
    def test_same_client_within_window(self):
        stats = make_stats(inter_txn_window_ms=10.0)
        stats.observe(0.0, client_id=1, partitions=[1])
        stats.observe(5.0, client_id=1, partitions=[2])
        # Direction matters: 2 was not followed by 1.
        assert stats.co_inter == {1: {2: 1.0}}

    def test_outside_window_not_correlated(self):
        stats = make_stats(inter_txn_window_ms=10.0)
        stats.observe(0.0, client_id=1, partitions=[1])
        stats.observe(50.0, client_id=1, partitions=[2])
        assert stats.co_inter == {}

    def test_different_clients_not_correlated(self):
        stats = make_stats()
        stats.observe(0.0, client_id=1, partitions=[1])
        stats.observe(1.0, client_id=2, partitions=[2])
        assert stats.co_inter == {}


class TestExpiry:
    def test_expired_samples_decrement_counts(self):
        stats = make_stats(expiry_ms=100.0)
        stats.observe(0.0, 1, [1, 2])
        stats.observe(5.0, 1, [3])  # also creates inter pair 1->3, 2->3
        assert stats.partition_writes.get(1) == 1.0
        assert stats.co_inter == {1: {3: 1.0}, 2: {3: 1.0}}
        # A new observation far in the future expires both old samples.
        stats.observe(500.0, 1, [7])
        assert 1 not in stats.partition_writes
        assert 2 not in stats.partition_writes
        assert stats.co_intra == {}
        assert stats.co_inter == {}
        assert stats.partition_writes == {7: 1.0}
        assert stats._sample_count == 1

    def test_max_samples_bound(self):
        stats = make_stats(expiry_ms=1e9, max_samples=5)
        for index in range(10):
            stats.observe(float(index), 1, [index])
        assert stats._sample_count == 5
        # Early partitions were evicted.
        assert 0 not in stats.partition_writes
        assert 9 in stats.partition_writes


class TestSampling:
    def test_full_sampling_without_rng(self):
        stats = AccessStatistics(StatisticsConfig())
        stats.observe(0.0, 1, [1])
        stats.observe(1.0, 2, [])  # a write set with no partition
        assert stats._sample_count == 1


def _bump(table, left, right):
    row = table.get(left)
    if row is None:
        row = table[left] = {}
    row[right] = row.get(right, 0.0) + 1.0


def _decay(table, left, right):
    row = table.get(left)
    if row is None:
        return
    count = row.get(right, 0.0) - 1.0
    if count <= 0:
        row.pop(right, None)
        if not row:
            table.pop(left, None)
    else:
        row[right] = count


class FlatPairStatistics:
    """The reference: eager ingestion, each sample keeping the exact
    inter-transaction pairs it added, flat — ``(earlier, later,
    earlier, later, ...)`` — and decaying exactly those on removal.
    Per-site loads are a rescan of the counts against the live masters.
    """

    def __init__(self, config, masters):
        self.config = config
        self.masters = masters
        self.writes = {}
        self.intra = {}
        self.inter = {}
        self.samples = deque()
        self.recent = {}
        #: Pairs left out because their sample reached ``max_inter_pairs``.
        self.capped = 0

    def observe(self, now, client_id, partitions):
        partitions = tuple(sorted(set(partitions)))
        horizon = now - self.config.expiry_ms
        while self.samples and self.samples[0][0] < horizon:
            self._remove(self.samples.popleft())
        for partition in partitions:
            self.writes[partition] = self.writes.get(partition, 0.0) + 1.0
        for index, left in enumerate(partitions):
            for right in partitions[index + 1:]:
                _bump(self.intra, left, right)
                _bump(self.intra, right, left)
        recent = self.recent.setdefault(client_id, deque())
        while recent and recent[0][0] < now - self.config.inter_txn_window_ms:
            recent.popleft()
        pairs = []
        for _, previous in recent:
            for earlier in previous:
                for later in partitions:
                    if earlier != later and len(pairs) < 2 * self.config.max_inter_pairs:
                        _bump(self.inter, earlier, later)
                        pairs += [earlier, later]
                    elif earlier != later:
                        self.capped += 1
        recent.append((now, partitions))
        self.samples.append((now, partitions, tuple(pairs)))
        if len(self.samples) > self.config.max_samples:
            self._remove(self.samples.popleft())

    def _remove(self, sample):
        _, partitions, pairs = sample
        for partition in partitions:
            count = self.writes[partition] - 1.0
            if count <= 0:
                del self.writes[partition]
            else:
                self.writes[partition] = count
        for index, left in enumerate(partitions):
            for right in partitions[index + 1:]:
                _decay(self.intra, left, right)
                _decay(self.intra, right, left)
        for index in range(0, len(pairs), 2):
            _decay(self.inter, pairs[index], pairs[index + 1])

    def site_write_loads(self, num_sites):
        totals = [0.0] * num_sites
        for partition, count in self.writes.items():
            totals[self.masters[partition]] += count
        mass = sum(self.writes.values())
        return [total / mass if mass > 0 else 0.0 for total in totals]


def _rows(table):
    """A co-access table with its iteration order, rows included."""
    return [(key, list(row.items())) for key, row in table.items()]


_PARTITIONS = range(6)
_SITES = 3

_observe = st.tuples(
    st.just("observe"),
    st.integers(0, 8),  # ms since the previous step
    st.integers(0, 2),  # client
    # Sorted and distinct, as ``SiteSelector.route_update`` passes them.
    st.lists(st.sampled_from(_PARTITIONS), min_size=1, max_size=4,
             unique=True).map(sorted),
)
_remaster = st.tuples(
    st.just("remaster"), st.sampled_from(_PARTITIONS), st.integers(0, _SITES - 1)
)
_configs = st.builds(
    StatisticsConfig,
    inter_txn_window_ms=st.sampled_from([5.0, 12.0]),
    expiry_ms=st.sampled_from([10.0, 30.0, 1e9]),
    max_samples=st.integers(1, 8),
    max_inter_pairs=st.integers(1, 4),
)


class TestDerivedInterPairsMatchFlatPairs:
    """A sample keeps the earlier write sets it was paired with and
    derives its pairs again on removal; every count must equal the
    flat-pair reference after every step — through Δt pruning, expiry,
    eviction at ``max_samples``, the pair cap and remastering."""

    @settings(max_examples=300, deadline=None)
    @given(_configs, st.lists(st.one_of(_observe, _observe, _remaster), max_size=60))
    @example(  # the cap binds on the second sample, which then expires
        StatisticsConfig(inter_txn_window_ms=12.0, expiry_ms=10.0,
                         max_samples=8, max_inter_pairs=2),
        [("observe", 0, 0, [0, 1]), ("observe", 1, 0, [2, 3]),
         ("observe", 11, 1, [4]), ("observe", 11, 1, [5])],
    )
    def test_every_count_equals_the_reference(self, config, ops):
        self.replay(config, ops)

    @settings(max_examples=40, deadline=None)
    @given(_configs, st.lists(_observe, min_size=COMPACT_AT + 16, max_size=COMPACT_AT + 60))
    def test_compaction_keeps_every_count(self, config, ops):
        """At most 8 samples are retained, so expiry and eviction
        remove at least ``COMPACT_AT + 8`` of them: the head passes
        ``COMPACT_AT`` and the columns are compacted mid-run."""
        compact = AccessStatistics._compact
        compactions = []

        def counted(stats):
            compactions.append(stats._head)
            compact(stats)

        with mock.patch.object(AccessStatistics, "_compact", counted):
            self.replay(config, ops)
        assert compactions and min(compactions) >= COMPACT_AT

    def test_pending_samples_stay_under_max_samples(self):
        """``max_samples`` bounds memory: ten windows of samples with no
        query in between never leave more than one window pending, and
        folding early changes no count."""
        config = StatisticsConfig(inter_txn_window_ms=12.0, expiry_ms=30.0,
                                  max_samples=8, max_inter_pairs=3)
        placement = {partition: partition % _SITES for partition in _PARTITIONS}
        table = PartitionTable(Environment(), placement)
        stats = AccessStatistics(config)
        stats.follow_masters(table, _SITES)
        reference = FlatPairStatistics(config, table.masters)
        for step in range(10 * config.max_samples):
            partitions = sorted({step % 6, step * 5 % 6, step * 7 % 4})
            stats.observe(2.0 * step, step % 3, partitions)
            reference.observe(2.0 * step, step % 3, partitions)
            assert len(stats._pending) <= config.max_samples
        self.assert_equal(stats, reference)

    def replay(self, config, ops):
        """Run ``ops`` through eager and lazily folded statistics and
        the reference, comparing every count after every step."""
        placement = {partition: partition % _SITES for partition in _PARTITIONS}
        eager_table = PartitionTable(Environment(), placement)
        lazy_table = PartitionTable(Environment(), placement)
        eager = AccessStatistics(config)
        eager.follow_masters(eager_table, _SITES)
        # Folds only at the end or at ``max_samples`` pending.
        lazy = AccessStatistics(config)
        lazy.follow_masters(lazy_table, _SITES)
        reference = FlatPairStatistics(config, eager_table.masters)
        now = 0.0
        for op, *args in ops:
            if op == "observe":
                step, client, partitions = args
                now += step
                for stats in (eager, lazy, reference):
                    stats.observe(now, client, partitions)
            else:
                eager_table.set_master(*args)
                lazy_table.set_master(*args)
            self.assert_equal(eager, reference)
        self.assert_equal(lazy, reference)

    @staticmethod
    def assert_equal(stats, reference):
        assert _rows(stats.co_inter) == _rows(reference.inter)
        assert _rows(stats.co_intra) == _rows(reference.intra)
        assert list(stats.partition_writes.items()) == list(reference.writes.items())
        assert stats.site_write_loads() == reference.site_write_loads(_SITES)
        assert stats._sample_count == len(reference.samples)

    def test_the_example_binds_the_cap(self):
        """The pinned example does reach the cap (the property's
        reference counts it, so a run without it would be vacuous)."""
        reference = FlatPairStatistics(
            StatisticsConfig(inter_txn_window_ms=12.0, max_inter_pairs=2), {}
        )
        reference.observe(0.0, 0, [0, 1])
        reference.observe(1.0, 0, [2, 3])
        assert reference.capped == 2
