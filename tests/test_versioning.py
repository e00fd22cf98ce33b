"""Unit tests for version vectors and the paper's consistency rules."""

import pytest

from repro.sim.core import Environment
from repro.versioning import (
    VersionVector,
    VersionWatch,
    can_apply_refresh,
    satisfies_session,
)


class TestVersionVector:
    def test_zeros(self):
        vector = VersionVector.zeros(3)
        assert list(vector) == [0, 0, 0]

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            VersionVector.zeros(0)

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            VersionVector([1, -1])
        vector = VersionVector.zeros(2)
        with pytest.raises(ValueError):
            vector[0] = -5

    def test_copy_is_independent(self):
        original = VersionVector([1, 2, 3])
        clone = original.copy()
        clone.increment(0)
        assert list(original) == [1, 2, 3]
        assert list(clone) == [2, 2, 3]

    def test_dominates(self):
        assert VersionVector([2, 2]).dominates(VersionVector([1, 2]))
        assert VersionVector([1, 2]).dominates(VersionVector([1, 2]))
        assert not VersionVector([1, 2]).dominates(VersionVector([2, 1]))

    def test_strictly_less_matches_paper_footnote(self):
        # The proof's ordering: v1 < v2 iff every component is smaller,
        # i.e. v2 dominates v1 advanced by one in every component.
        def below(v1, v2):
            return VersionVector(v2).dominates(VersionVector([c + 1 for c in v1]))

        assert below([0, 1], [1, 2])
        assert not below([0, 2], [1, 2])

    def test_element_max(self):
        merged = VersionVector([1, 5]).element_max(VersionVector([3, 2]))
        assert list(merged) == [3, 5]

    def test_merge_in_place(self):
        session = VersionVector([1, 5])
        session.merge(VersionVector([3, 2]))
        assert list(session) == [3, 5]

    def test_increment_returns_new_value(self):
        vector = VersionVector([0, 7])
        assert vector.increment(1) == 8
        assert list(vector) == [0, 8]

    def test_lag_behind_counts_only_missing_updates(self):
        have = VersionVector([5, 0, 3])
        want = VersionVector([2, 4, 4])
        # Missing: 4 from site 1, 1 from site 2; surplus on site 0 ignored.
        assert have.lag_behind(want) == 5

    def test_lag_behind_zero_when_dominating(self):
        assert VersionVector([5, 5]).lag_behind(VersionVector([1, 2])) == 0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            VersionVector([1]).dominates(VersionVector([1, 2]))

    def test_equality_and_tuple(self):
        assert VersionVector([1, 2]) == VersionVector([1, 2])
        assert VersionVector([1, 2]) != VersionVector([2, 1])
        assert VersionVector([1, 2]).to_tuple() == (1, 2)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(VersionVector([1]))

    def test_total(self):
        assert VersionVector([1, 2, 3]).total() == 6


class TestUpdateApplicationRule:
    """Equation 1, including the paper's Figure 2 walk-through."""

    def test_requires_exact_next_from_origin(self):
        svv = VersionVector([0, 0, 0])
        tvv = VersionVector([1, 0, 0])
        assert can_apply_refresh(svv, tvv, origin=0)
        # Applying the same update again must be rejected.
        svv[0] = 1
        assert not can_apply_refresh(svv, tvv, origin=0)
        # Skipping ahead is also rejected.
        tvv_future = VersionVector([3, 0, 0])
        assert not can_apply_refresh(svv, tvv_future, origin=0)

    def test_blocks_until_dependencies_applied(self):
        # Figure 2: T2 commits at S2 after reading T1 (from S1), so
        # R(T2) carries tvv = [1, 1, 0]. A site that has not yet applied
        # R(T1) (svv[0] == 0) must block R(T2).
        svv = VersionVector([0, 0, 0])
        tvv_t2 = VersionVector([1, 1, 0])
        assert not can_apply_refresh(svv, tvv_t2, origin=1)
        # After R(T1) commits locally the rule admits R(T2).
        svv[0] = 1
        assert can_apply_refresh(svv, tvv_t2, origin=1)

    def test_independent_origins_do_not_block_each_other(self):
        svv = VersionVector([0, 0, 0])
        tvv_a = VersionVector([1, 0, 0])
        tvv_b = VersionVector([0, 1, 0])
        assert can_apply_refresh(svv, tvv_a, origin=0)
        assert can_apply_refresh(svv, tvv_b, origin=1)


class TestSessionRule:
    def test_fresh_site_accepted(self):
        assert satisfies_session(VersionVector([3, 2]), VersionVector([3, 1]))

    def test_stale_site_rejected(self):
        assert not satisfies_session(VersionVector([3, 0]), VersionVector([3, 1]))


class TestVersionWatch:
    def test_wait_already_satisfied(self):
        env = Environment()
        svv = VersionVector([2, 2])
        watch = VersionWatch(env, svv)
        fired = []

        def proc():
            yield watch.wait_for(VersionVector([1, 1]))
            fired.append(env.now)

        env.process(proc())
        env.run()
        assert fired == [0.0]

    def test_wait_fires_on_notify(self):
        env = Environment()
        svv = VersionVector([0, 0])
        watch = VersionWatch(env, svv)
        fired = []

        def waiter():
            yield watch.wait_for(VersionVector([1, 0]))
            fired.append(env.now)

        def advancer():
            yield env.timeout(4.0)
            svv.increment(0)
            watch.notify()

        env.process(waiter())
        env.process(advancer())
        env.run()
        assert fired == [4.0]
        assert watch.pending == 0

    def test_notify_without_progress_keeps_waiting(self):
        env = Environment()
        svv = VersionVector([0, 0])
        watch = VersionWatch(env, svv)
        fired = []

        def waiter():
            yield watch.wait_for(VersionVector([0, 2]))
            fired.append(env.now)

        def advancer():
            yield env.timeout(1.0)
            svv.increment(1)
            watch.notify()  # still below target
            yield env.timeout(1.0)
            svv.increment(1)
            watch.notify()

        env.process(waiter())
        env.process(advancer())
        env.run()
        assert fired == [2.0]

    def test_multiple_waiters_selective_wakeup(self):
        env = Environment()
        svv = VersionVector([0])
        watch = VersionWatch(env, svv)
        fired = []

        def waiter(target, label):
            yield watch.wait_for(VersionVector([target]))
            fired.append((label, env.now))

        def advancer():
            for _ in range(3):
                yield env.timeout(1.0)
                svv.increment(0)
                watch.notify()

        env.process(waiter(2, "two"))
        env.process(waiter(1, "one"))
        env.process(waiter(3, "three"))
        env.process(advancer())
        env.run()
        assert fired == [("one", 1.0), ("two", 2.0), ("three", 3.0)]

    def test_wait_until_predicate(self):
        env = Environment()
        svv = VersionVector([0])
        watch = VersionWatch(env, svv)
        fired = []

        def waiter():
            yield watch.wait_until(lambda: svv.total() >= 2)
            fired.append(env.now)

        def advancer():
            yield env.timeout(1.0)
            svv.increment(0)
            watch.notify()
            yield env.timeout(1.0)
            svv.increment(0)
            watch.notify()

        env.process(waiter())
        env.process(advancer())
        env.run()
        assert fired == [2.0]
