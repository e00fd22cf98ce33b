"""Property-based tests (hypothesis) on core data structures and rules."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.replication.log import UPDATE, DurableLog, LogRecord
from repro.replication.recovery import merge_logs
from repro.sim.core import Environment
from repro.sim.rand import RandomStreams, ZipfGenerator
from repro.storage import Table
from repro.versioning import VersionVector, can_apply_refresh

vectors = st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=6)


def pair_of_vectors(draw_sizes=st.integers(min_value=1, max_value=6)):
    return draw_sizes.flatmap(
        lambda size: st.tuples(
            st.lists(st.integers(0, 50), min_size=size, max_size=size),
            st.lists(st.integers(0, 50), min_size=size, max_size=size),
        )
    )


class TestVersionVectorProperties:
    @given(pair_of_vectors())
    def test_element_max_commutes(self, pair):
        left, right = VersionVector(pair[0]), VersionVector(pair[1])
        assert left.element_max(right) == right.element_max(left)

    @given(pair_of_vectors())
    def test_element_max_dominates_both(self, pair):
        left, right = VersionVector(pair[0]), VersionVector(pair[1])
        merged = left.element_max(right)
        assert merged.dominates(left)
        assert merged.dominates(right)

    @given(vectors)
    def test_element_max_idempotent(self, values):
        vector = VersionVector(values)
        assert vector.element_max(vector) == vector

    @given(pair_of_vectors())
    def test_merge_equals_element_max(self, pair):
        left, right = VersionVector(pair[0]), VersionVector(pair[1])
        merged = left.element_max(right)
        left.merge(right)
        assert left == merged

    @given(pair_of_vectors())
    def test_lag_zero_iff_dominates(self, pair):
        left, right = VersionVector(pair[0]), VersionVector(pair[1])
        assert (left.lag_behind(right) == 0) == left.dominates(right)

    @given(pair_of_vectors())
    def test_dominance_antisymmetry(self, pair):
        left, right = VersionVector(pair[0]), VersionVector(pair[1])
        if left.dominates(right) and right.dominates(left):
            assert left == right

    @given(vectors, st.integers(min_value=0, max_value=5))
    def test_increment_strictly_grows(self, values, index):
        vector = VersionVector(values)
        index = index % len(vector)
        before = vector.copy()
        vector.increment(index)
        assert vector.dominates(before)
        assert not before.dominates(vector)
        assert vector.total() == before.total() + 1


class TestRecordProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(1, 100)),
            min_size=1,
            max_size=20,
        ),
        st.lists(st.integers(0, 120), min_size=3, max_size=3),
    )
    def test_read_returns_newest_visible(self, writes, snapshot_values):
        """The read rule: newest *visible* version in application order."""
        table = Table("t", max_versions=100)
        table.insert(1)
        applied = []
        # Make per-origin sequences increasing (as real logs are).
        next_seq = {}
        for origin, _ in writes:
            seq = next_seq.get(origin, 0) + 1
            next_seq[origin] = seq
            table.install(1, origin, seq)
            applied.append((origin, seq))
        snapshot = VersionVector(snapshot_values)
        result = table.get(1).read(snapshot)
        visible = [
            (origin, seq)
            for origin, seq in applied
            if seq <= snapshot[origin]
        ]
        assert (result.origin, result.seq) == (visible[-1] if visible else (0, 0))

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=30))
    def test_pruning_bounds_chain_length(self, max_versions, writes):
        table = Table("t", max_versions)
        for seq in range(1, writes + 1):
            table.install(1, 0, seq)
        record = table.get(1)
        assert record.version_count <= max_versions
        assert record.latest.seq == writes


class TestUpdateApplicationRule:
    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=200),
        st.data(),
    )
    def test_merge_logs_yields_dense_per_origin_sequences(self, sites, txns, data):
        """Any causally-consistent set of logs merges completely, and
        the merged order applies each origin's records densely."""
        env = Environment()
        logs = [DurableLog(env, origin) for origin in range(sites)]
        svv = VersionVector.zeros(sites)
        for _ in range(txns):
            origin = data.draw(st.integers(0, sites - 1))
            # A transaction's begin vector is at most the current svv.
            begin = [data.draw(st.integers(0, svv[k])) for k in range(sites)]
            seq = svv.increment(origin)
            begin[origin] = seq
            logs[origin].append(
                LogRecord(UPDATE, origin, tuple(begin), keys=(("t", 1),))
            )
        merged = merge_logs(logs)
        assert len(merged) == txns
        seen = VersionVector.zeros(sites)
        for record in merged:
            assert can_apply_refresh(seen, VersionVector(record.tvv), record.origin)
            seen[record.origin] = record.seq

    @given(vectors, st.integers(min_value=0, max_value=5))
    def test_rule_requires_exactly_next(self, values, origin):
        svv = VersionVector(values)
        origin = origin % len(svv)
        tvv = svv.copy()
        tvv[origin] = svv[origin] + 1
        assert can_apply_refresh(svv, tvv, origin)
        tvv[origin] = svv[origin] + 2
        assert not can_apply_refresh(svv, tvv, origin)


class TestRandomStreams:
    @given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=20))
    def test_streams_reproducible(self, seed, name):
        first = RandomStreams(seed).stream(name).random()
        second = RandomStreams(seed).stream(name).random()
        assert first == second

    @given(st.integers(min_value=0, max_value=1000))
    def test_streams_independent_of_creation_order(self, seed):
        streams_a = RandomStreams(seed)
        streams_b = RandomStreams(seed)
        value_a = streams_a.stream("x").random()
        streams_b.stream("y")  # created first in b
        value_b = streams_b.stream("x").random()
        assert value_a == value_b

    @given(
        st.integers(min_value=1, max_value=500),
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30)
    def test_zipf_samples_in_range(self, n, theta, seed):
        generator = ZipfGenerator(n, theta, random.Random(seed))
        for _ in range(50):
            value = generator.sample()
            assert 0 <= value < n

    def test_zipf_popularity_monotone(self):
        generator = ZipfGenerator(50, 1.0, random.Random(1))
        counts = [0] * 50
        for _ in range(20000):
            counts[generator.sample()] += 1
        assert counts[0] > counts[10] > counts[40]


class TestStatisticsProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 5),  # client
                st.lists(st.integers(0, 10), min_size=1, max_size=4),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_counts_never_negative_and_expiry_empties(self, observations):
        from repro.core.statistics import AccessStatistics, StatisticsConfig

        stats = AccessStatistics(
            StatisticsConfig(expiry_ms=100.0, inter_txn_window_ms=10.0)
        )
        now = 0.0
        for client, partitions in observations:
            stats.observe(now, client, partitions)
            now += 5.0
        assert all(count > 0 for count in stats.partition_writes.values())
        # Far-future observation expires everything prior.
        stats.observe(now + 1e6, 0, [999])
        assert set(stats.partition_writes) == {999}
        assert stats._sample_count == 1
        for row in stats.co_intra.values():
            assert all(count > 0 for count in row.values())
