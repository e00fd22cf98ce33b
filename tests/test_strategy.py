"""Unit tests for the remastering strategy (Equations 2-8).

The per-candidate scorer below is the **oracle**: it is the form the
equations are written in — one candidate at a time, one feature at a
time, every co-access row rescanned — and the form ``decide`` used
before it scored all candidates in one pass. ``src/`` keeps only the
one-pass scorer; every field it produces must ``==`` the oracle's.
"""

import math
import random
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partitions import PartitionTable
from repro.core.statistics import AccessStatistics, StatisticsConfig
from repro.core.strategy import (
    RemasterStrategy,
    SiteScore,
    StrategyDecision,
    StrategyWeights,
    balance_distance,
)
from repro.sim.core import Environment
from repro.versioning import VersionVector


# -- the per-candidate oracle --------------------------------------------------


def rescan_site_write_loads(stats, master_of, num_sites):
    """Per-site write loads by walking every partition with a write."""
    loads = [0.0] * num_sites
    total = sum(stats.partition_writes.values())
    if total <= 0:
        return loads
    for partition, count in stats.partition_writes.items():
        loads[master_of(partition)] += count
    return [load / total for load in loads]


def single_sited(table, candidate, first, second, write_set):
    """+1 if the move co-locates the pair, -1 if it splits it, else 0.

    ``first`` is in the write set, so its post-move master is the
    candidate; ``second`` moves only if it is also in the write set.
    """
    before = table.master_of(first) == table.master_of(second)
    second_after = candidate if second in write_set else table.master_of(second)
    after = candidate == second_after
    if after and not before:
        return 1
    if before and not after:
        return -1
    return 0


def oracle_balance(strategy, write_partitions, candidate, loads):
    """Equations 2-4: change in balance, scaled by current imbalance."""
    after = list(loads)
    for partition in write_partitions:
        weight = strategy.statistics.access_fraction(partition)
        current = strategy.table.master_of(partition)
        if current != candidate:
            after[current] -= weight
            after[candidate] += weight
    dist_before = balance_distance(loads)
    dist_after = balance_distance(after)
    return (dist_before - dist_after) * math.exp(max(dist_before, dist_after))


def oracle_refresh_delay(source_vvs, candidate_vv, session_vv):
    """Equation 5: updates the candidate must apply before execution."""
    required = None
    for vector in list(source_vvs) + ([session_vv] if session_vv is not None else []):
        if required is None:
            required = vector.copy()
        else:
            required.merge(vector)
    return 0.0 if required is None else float(candidate_vv.lag_behind(required))


def oracle_localization(strategy, write_partitions, candidate, table):
    """Equations 6-7: co-access-weighted single-sitedness change, with
    P(second | first) read off the raw co-access ``table`` as
    ``count / writes(first)``."""
    writes = strategy.statistics.partition_writes
    write_set = set(write_partitions)
    score = 0.0
    for first in write_partitions:
        base = writes.get(first, 0.0)
        if base <= 0.0:
            continue
        for second, count in table.get(first, {}).items():
            if second == first:
                continue
            likelihood = count / base
            sited = single_sited(strategy.table, candidate, first, second, write_set)
            if sited > 0:
                score += likelihood
            elif sited < 0:
                score -= likelihood
    return score


def oracle_score(strategy, candidate, write_partitions, loads, source_vvs,
                 candidate_vv, session_vv, health=None):
    weights, stats = strategy.weights, strategy.statistics
    balance = oracle_balance(strategy, write_partitions, candidate, loads)
    delay = oracle_refresh_delay(source_vvs, candidate_vv, session_vv)
    intra = oracle_localization(
        strategy, write_partitions, candidate, stats.co_intra
    ) if weights.intra_txn else 0.0
    inter = oracle_localization(
        strategy, write_partitions, candidate, stats.co_inter
    ) if weights.inter_txn else 0.0
    benefit = (
        weights.balance * balance
        - weights.delay * delay
        + weights.intra_txn * intra
        + weights.inter_txn * inter
    )
    penalty = 0.0
    if health is not None and weights.health:
        penalty = 1.0 - health
        if penalty:
            benefit -= weights.health * penalty
    return SiteScore(candidate, balance, delay, intra, inter, benefit, penalty)


def oracle_scores(strategy, write_partitions, site_vvs, session_vv=None,
                  exclude=None, health=None):
    """Score each candidate separately, as Equation 8 is written."""
    table = strategy.table
    loads = rescan_site_write_loads(
        strategy.statistics, table.master_of, strategy.num_sites
    )
    current_masters = table.masters_of(write_partitions)
    return [
        oracle_score(
            strategy, candidate, write_partitions, loads,
            [site_vvs[m] for m in current_masters if m != candidate],
            site_vvs[candidate], session_vv,
            health=None if health is None else health[candidate],
        )
        for candidate in range(strategy.num_sites)
        if not exclude or candidate not in exclude
    ]


def make_strategy(placement, weights=None, num_sites=2):
    env = Environment()
    table = PartitionTable(env, placement)
    stats = AccessStatistics(StatisticsConfig())
    strategy = RemasterStrategy(
        weights or StrategyWeights(), stats, table, num_sites
    )
    return strategy, stats, table


def fresh_vvs(num_sites):
    return [VersionVector.zeros(num_sites) for _ in range(num_sites)]


class TestBalanceDistance:
    def test_zero_when_balanced(self):
        assert balance_distance([0.5, 0.5]) == 0.0
        assert balance_distance([0.25] * 4) == 0.0

    def test_grows_with_imbalance(self):
        mild = balance_distance([0.6, 0.4])
        severe = balance_distance([1.0, 0.0])
        assert 0.0 < mild < severe

    def test_empty(self):
        assert balance_distance([]) == 0.0


class TestBalanceFeature:
    def test_remastering_toward_balance_scores_positive(self):
        # All load on site 0; moving partition 1 to site 1 rebalances.
        strategy, stats, _ = make_strategy({0: 0, 1: 0})
        stats.observe(0.0, 1, [0])
        stats.observe(1.0, 1, [1])
        scores = strategy.decide([1], fresh_vvs(2)).scores
        assert scores[1].balance > 0.0  # toward balance
        assert scores[0].balance == 0.0  # no move, no change

    def test_unbalancing_scores_negative(self):
        strategy, stats, _ = make_strategy({0: 0, 1: 1})
        stats.observe(0.0, 1, [0])
        stats.observe(1.0, 1, [1])
        assert strategy.decide([1], fresh_vvs(2)).scores[0].balance < 0.0

    def test_choose_site_balances_load(self):
        # Partitions 0,1 at site 0, partition 2 at site 1; site 0 is
        # overloaded. A transaction writing {1, 2} should resolve the
        # multi-master split by pulling 1 over to the lighter site 1.
        strategy, stats, _ = make_strategy(
            {0: 0, 1: 0, 2: 1}, weights=StrategyWeights(balance=1.0, delay=0.0)
        )
        for time in range(8):
            stats.observe(float(time), 1, [0])
        stats.observe(8.0, 1, [1])
        stats.observe(9.0, 1, [2])
        decision = strategy.decide([1, 2], fresh_vvs(2))
        site, scores = decision.site, decision.scores
        assert site == 1
        assert scores[1].benefit > scores[0].benefit


class TestRefreshDelayFeature:
    def test_lagging_candidate_penalized(self):
        strategy, _, _ = make_strategy(
            {0: 0, 1: 1}, weights=StrategyWeights(balance=0.0, delay=1.0)
        )
        # Site 1 lags: it has not applied site 0's 5 updates.
        site_vvs = [VersionVector([5, 0]), VersionVector([0, 0])]
        score_fresh, score_stale = strategy.decide([0, 1], site_vvs).scores
        assert score_fresh.refresh_delay == 0.0
        assert score_stale.refresh_delay == 5.0
        assert score_fresh.benefit > score_stale.benefit

    def test_session_vector_contributes(self):
        strategy, _, _ = make_strategy({0: 0}, num_sites=2)
        session = VersionVector([3, 0])
        site_vvs = [VersionVector([1, 0]), VersionVector([1, 0])]
        decision = strategy.decide([0], site_vvs, session_vv=session)
        assert decision.scores[0].refresh_delay == 2.0


class TestLocalizationFeatures:
    def test_single_sited_colocation(self):
        _, _, table = make_strategy({0: 0, 1: 1})
        # Remastering write set {0} to site 1 co-locates 0 with 1.
        assert single_sited(table, 1, 0, 1, {0}) == 1
        # Remastering {0} to site 0 leaves them split: no change.
        assert single_sited(table, 0, 0, 1, {0}) == 0

    def test_single_sited_split(self):
        _, _, table = make_strategy({0: 0, 1: 0})
        # 0 and 1 are together at site 0; moving only 0 to site 1 splits.
        assert single_sited(table, 1, 0, 1, {0}) == -1
        # Moving both keeps them together: no change.
        assert single_sited(table, 1, 0, 1, {0, 1}) == 0

    def test_intra_feature_prefers_colocating_site(self):
        # Partitions 0, 1 frequently co-written; 0 at site 0, 1 at
        # site 1. A transaction writing {0} should be drawn to site 1.
        strategy, stats, _ = make_strategy(
            {0: 0, 1: 1},
            weights=StrategyWeights(balance=0.0, delay=0.0, intra_txn=1.0),
        )
        for time in range(5):
            stats.observe(float(time), 1, [0, 1])
        decision = strategy.decide([0], fresh_vvs(2))
        site, scores = decision.site, decision.scores
        assert site == 1
        assert scores[1].intra_txn > 0.0
        assert scores[0].intra_txn == 0.0  # leaves the pair split: no change

    def test_inter_feature_prefers_colocating_site(self):
        strategy, stats, _ = make_strategy(
            {0: 0, 1: 1},
            weights=StrategyWeights(
                balance=0.0, delay=0.0, intra_txn=0.0, inter_txn=1.0
            ),
        )
        # Client writes partition 0 then shortly after partition 1.
        for time in range(5):
            stats.observe(time * 2.0, 7, [0])
            stats.observe(time * 2.0 + 1.0, 7, [1])
        decision = strategy.decide([0], fresh_vvs(2))
        site, scores = decision.site, decision.scores
        assert site == 1
        assert scores[1].inter_txn > 0.0


class TestWeights:
    def test_presets(self):
        ycsb = StrategyWeights.for_ycsb()
        assert ycsb.balance > ycsb.intra_txn > ycsb.inter_txn
        tpcc = StrategyWeights.for_tpcc()
        assert tpcc.intra_txn == tpcc.inter_txn == 0.88
        sb = StrategyWeights.for_smallbank()
        # SmallBank dials balance down relative to YCSB (paper App. H).
        assert sb.balance < ycsb.balance
        assert sb.intra_txn == ycsb.intra_txn

    def test_scaled(self):
        weights = StrategyWeights(balance=2.0, delay=1.0).scaled(balance=0.5)
        assert weights.balance == 1.0
        assert weights.delay == 1.0

    def test_scaled_unknown_weight_rejected(self):
        with pytest.raises(ValueError):
            StrategyWeights().scaled(bogus=1.0)

    def test_zero_weights_disable_features(self):
        strategy, stats, _ = make_strategy(
            {0: 0, 1: 1},
            weights=StrategyWeights(
                balance=0.0, delay=0.0, intra_txn=0.0, inter_txn=0.0
            ),
        )
        stats.observe(0.0, 1, [0, 1])
        scores = strategy.decide([0], fresh_vvs(2)).scores
        assert all(score.benefit == 0.0 for score in scores)
        assert all(score.intra_txn == 0.0 for score in scores)


class TestTieBreaking:
    """The documented deterministic tie contract of ``decide()``."""

    def tied_strategy(self, rng=None, num_sites=3):
        # Fresh statistics and balanced placement: every feature is
        # zero for every candidate, an exact three-way tie.
        env = Environment()
        table = PartitionTable(env, {site: site for site in range(num_sites)})
        stats = AccessStatistics(StatisticsConfig())
        return RemasterStrategy(
            StrategyWeights(), stats, table, num_sites, rng=rng
        )

    def test_exact_tie_without_rng_picks_lowest_site(self):
        strategy = self.tied_strategy(rng=None)
        decision = strategy.decide([1], fresh_vvs(3))
        assert decision.site == 0
        assert decision.tie_break == "lowest-site"
        assert decision.tied == (0, 1, 2)
        assert decision.margin == 0.0

    def test_lowest_site_fallback_is_stable(self):
        strategy = self.tied_strategy(rng=None)
        first = strategy.decide([2], fresh_vvs(3))
        assert all(
            strategy.decide([2], fresh_vvs(3)).site == first.site
            for _ in range(5)
        )

    def test_rng_tie_break_draws_from_tied_set_deterministically(self):
        import random

        picks = []
        for _ in range(2):
            strategy = self.tied_strategy(rng=random.Random(42))
            decision = strategy.decide([1], fresh_vvs(3))
            assert decision.tie_break == "rng"
            assert decision.site in decision.tied
            picks.append(decision.site)
        # Same seed, same draw: the rng rule is a function of the seed.
        assert picks[0] == picks[1]

    def test_clear_win_records_margin_and_no_tie(self):
        strategy, stats, _ = make_strategy(
            {0: 0, 1: 0, 2: 1}, weights=StrategyWeights(balance=1.0, delay=0.0)
        )
        for time in range(8):
            stats.observe(float(time), 1, [0])
        stats.observe(8.0, 1, [1])
        stats.observe(9.0, 1, [2])
        decision = strategy.decide([1, 2], fresh_vvs(2))
        assert decision.tie_break == "clear"
        assert decision.tied == ()
        assert decision.runner_up is not None
        assert decision.runner_up != decision.site
        assert decision.margin > 0.0

    def test_exclude_removes_candidates(self):
        strategy = self.tied_strategy(rng=None)
        decision = strategy.decide([1], fresh_vvs(3), exclude={0})
        assert decision.site == 1  # lowest surviving site
        assert decision.tied == (1, 2)
        with pytest.raises(ValueError, match="no candidate sites"):
            strategy.decide([1], fresh_vvs(3), exclude={0, 1, 2})

    def test_near_tie_within_float_noise_margin_counts_as_tied(self):
        strategy = self.tied_strategy(rng=None)
        decision = strategy._pick([
            SiteScore(site, 0.0, 0.0, 0.0, 0.0, benefit)
            for site, benefit in enumerate((1.0, 1.0 + 1e-13, 0.5))
        ])
        assert decision.tied == (0, 1)
        assert decision.site == 0  # lowest of the tied pair
        assert decision.tie_break == "lowest-site"


class TestEquation8:
    def test_benefit_combines_features_linearly(self):
        strategy, stats, _ = make_strategy(
            {0: 0, 1: 1},
            weights=StrategyWeights(
                balance=2.0, delay=0.5, intra_txn=3.0, inter_txn=1.0
            ),
        )
        stats.observe(0.0, 1, [0, 1])
        site_vvs = [VersionVector([4, 0]), VersionVector([0, 0])]
        score = strategy.decide([0], site_vvs).scores[1]
        assert score.refresh_delay and score.intra_txn and score.balance
        expected = (
            2.0 * score.balance
            - 0.5 * score.refresh_delay
            + 3.0 * score.intra_txn
            + 1.0 * score.inter_txn
        )
        assert score.benefit == pytest.approx(expected)


# -- one-pass decide == per-candidate oracle -----------------------------------

SITES = 4
PARTITIONS = 10

#: A window small enough that a 40-step interleaving crosses every
#: mutation point: expiry, ``max_samples`` eviction, inter rows whose
#: ``earlier`` partition has already left the window.
TIGHT_WINDOW = dict(
    inter_txn_window_ms=12.0, expiry_ms=40.0,
    max_samples=9, max_inter_pairs=6,
)

write_sets = st.lists(st.integers(0, PARTITIONS - 1), min_size=1, max_size=4, unique=True)
vectors = st.lists(st.integers(0, 9), min_size=SITES, max_size=SITES)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), st.floats(0.0, 25.0), st.integers(0, 2), write_sets),
        st.tuples(st.just("move"), st.integers(0, PARTITIONS - 1), st.integers(0, SITES - 1)),
        st.tuples(
            st.just("decide"), write_sets,
            st.lists(vectors, min_size=SITES, max_size=SITES),
            st.none() | vectors,
            st.sets(st.integers(0, SITES - 1), max_size=SITES - 1),
            st.none() | st.lists(st.floats(0.0, 1.0), min_size=SITES, max_size=SITES),
        ),
    ),
    min_size=1, max_size=40,
)


def build(weights, track_inter=True, rng=None):
    table = PartitionTable(
        Environment(), {p: p % SITES for p in range(PARTITIONS)}
    )
    stats = AccessStatistics(StatisticsConfig(**TIGHT_WINDOW), track_inter=track_inter)
    return RemasterStrategy(weights, stats, table, SITES, rng=rng)


def replay(strategy, script):
    """Apply ``script``; yield ``(decide-arguments)`` at each decide step."""
    now = 0.0
    for step in script:
        if step[0] == "observe":
            _, gap, client, partitions = step
            now += gap
            strategy.statistics.observe(now, client, partitions)
        elif step[0] == "move":
            strategy.table.set_master(step[1], step[2])
        else:
            _, partitions, site_vvs, session, exclude, health = step
            yield (
                sorted(partitions),
                [VersionVector(vector) for vector in site_vvs],
                None if session is None else VersionVector(session),
                exclude,
                health,
            )


class TestOnePassEqualsOracle:
    @settings(max_examples=150, deadline=None)
    @given(steps)
    def test_site_write_loads_equal_a_rescan(self, script):
        strategy = build(StrategyWeights())
        stats, table = strategy.statistics, strategy.table
        for _ in replay(strategy, script + [("decide", [0], [[0] * SITES] * SITES,
                                             None, set(), None)]):
            assert stats.site_write_loads() == rescan_site_write_loads(
                stats, table.master_of, SITES
            )

    @settings(max_examples=150, deadline=None)
    @given(steps, st.sampled_from([
        StrategyWeights.for_tpcc(),
        StrategyWeights.for_ycsb(),
        StrategyWeights(balance=1.0, delay=0.5, intra_txn=1.0, inter_txn=2.0, health=3.0),
    ]))
    def test_decision_equals_per_candidate_oracle(self, script, weights):
        rng = random.Random(5)
        strategy = build(weights, rng=rng)
        for arguments in replay(strategy, script):
            expected_scores = oracle_scores(strategy, *arguments)
            draws = rng.getstate()
            expected = strategy._pick(expected_scores)
            rng.setstate(draws)
            decision = strategy.decide(*arguments)
            assert isinstance(decision, StrategyDecision)
            assert decision == expected  # site, every score field, tie fields

    @settings(max_examples=100, deadline=None)
    @given(steps)
    def test_untracked_inter_table_changes_no_decision(self, script):
        weights = StrategyWeights.for_ycsb()
        assert weights.inter_txn == 0.0
        tracking, lean = build(weights), build(weights, track_inter=False)
        # zip_longest, not zip: both replays must run to their last step.
        for left, right in zip_longest(replay(tracking, script), replay(lean, script)):
            assert tracking.decide(*left) == lean.decide(*right)
        assert not lean.statistics.co_inter
        assert lean.statistics.co_intra == tracking.statistics.co_intra

    def test_inter_weight_needs_a_tracking_instance(self):
        with pytest.raises(ValueError, match="track_inter"):
            build(StrategyWeights.for_tpcc(), track_inter=False)
