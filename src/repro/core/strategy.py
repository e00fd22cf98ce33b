"""Adaptive remastering strategies (paper §IV-A).

When a transaction's write set is mastered at multiple sites, the site
selector scores every candidate destination with a weighted linear
model (Equation 8) over four features:

* ``f_balance`` (Eqs. 2–4) — how remastering the write set there would
  change the distance from perfect write-load balance, scaled by how
  unbalanced the system is;
* ``f_refresh_delay`` (Eq. 5) — how many updates the candidate still
  has to apply before the transaction could begin there;
* ``f_intra_txn`` (Eq. 6) — whether the move co-locates partitions
  that are frequently written together in one transaction;
* ``f_inter_txn`` (Eq. 7) — the same for partitions written by the
  same client within the Δt window across transactions.

The write set is remastered to the highest-scoring site.

One notational deviation from the paper: Equation 2 as printed sums
``(1/m - freq_i)`` before squaring, which is identically zero; we use
the evidently intended sum of squared deviations, which satisfies the
paper's stated properties (zero iff perfectly balanced, growing with
imbalance). The refresh-delay feature enters the benefit with a
negative sign, since larger delays make a site less attractive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.partitions import PartitionTable
from repro.core.statistics import AccessStatistics
from repro.sim.config import check_config, finite_nonnegative
from repro.versioning.vectors import VersionVector


@dataclass
class StrategyWeights:
    """The four hyperparameters of Equation 8 (Appendix H), plus one
    extension: ``health`` weights a soft penalty for remastering onto
    degraded sites (gray-failure defense, not in the paper; zero —
    the default — reproduces Equation 8 exactly)."""

    balance: float = 1.0
    delay: float = 0.5
    intra_txn: float = 1.0
    inter_txn: float = 0.0
    #: Weight on ``1 - health(candidate)`` — the detector's graded
    #: unhealthiness — subtracted from the benefit. Large values steer
    #: mastership away from sick-but-alive sites before suspicion
    #: trips; 0.0 disables the feature (and its computation) entirely.
    health: float = 0.0

    def __post_init__(self):
        check_config(self, finite_nonnegative(self))

    @classmethod
    def for_ycsb(cls) -> "StrategyWeights":
        """YCSB setting: balance dominates under skew, intra second.

        The paper uses (1e6, 0.5, 3, 0); the balance and delay features
        scale with partition mass fractions and in-flight update
        counts, both of which are ~50x larger in this scaled-down
        simulation than on the paper's 500 000-partition, 100k-tps
        testbed. The weights below give the features the same relative
        priority at this repo's scales: balance decisive under skew,
        subordinate to co-access localization near balance.
        """
        return cls(balance=10_000.0, delay=0.05, intra_txn=3.0, inter_txn=0.0)

    @classmethod
    def for_tpcc(cls) -> "StrategyWeights":
        """TPC-C setting: co-access dominates, balance secondary.

        The paper uses (0.01, 0.05, 0.88, 0.88); as with
        :meth:`for_ycsb`, the balance weight is rescaled to this
        simulation's feature magnitudes — large enough to stop the
        co-access features from gradually mastering every warehouse at
        one site, small enough that warehouse locality decides
        individual placements.
        """
        return cls(balance=2000.0, delay=0.05, intra_txn=0.88, inter_txn=0.88)

    @classmethod
    def for_smallbank(cls) -> "StrategyWeights":
        """SmallBank: YCSB weights with the balance weight dialled down
        (paper: 1 vs YCSB's 1e6; same 100x-down ratio here)."""
        return cls(balance=100.0, delay=0.05, intra_txn=3.0, inter_txn=0.0)

    def scaled(self, **factors: float) -> "StrategyWeights":
        """A copy with named weights multiplied (sensitivity sweeps)."""
        values = {
            "balance": self.balance,
            "delay": self.delay,
            "intra_txn": self.intra_txn,
            "inter_txn": self.inter_txn,
            "health": self.health,
        }
        for name, factor in factors.items():
            if name not in values:
                raise ValueError(f"unknown weight {name!r}")
            values[name] *= factor
        return StrategyWeights(**values)


@dataclass(slots=True)
class SiteScore:
    """Feature values and combined benefit for one candidate site."""

    site: int
    balance: float
    refresh_delay: float
    intra_txn: float
    inter_txn: float
    benefit: float
    #: Unhealthiness ``1 - health(site)`` at decision time; enters the
    #: benefit as ``- weights.health * health_penalty``. Stays 0.0
    #: when no health evidence was supplied (the unfaulted path).
    health_penalty: float = 0.0


@dataclass(slots=True)
class StrategyDecision:
    """One remastering decision with its full score breakdown.

    Everything the decision ledger needs to replay the choice offline:
    every candidate's per-feature scores, the winner, the runner-up and
    the margin separating them, and — when the top scores tied within
    the tie margin — which sites tied and how the tie was resolved
    (``"rng"`` for the seeded tie-break stream, ``"lowest-site"`` for
    the deterministic fallback, ``"clear"`` when there was no tie).
    """

    site: int
    scores: List[SiteScore]
    #: Site with the second-highest benefit (None with one candidate).
    runner_up: Optional[int]
    #: ``benefit(site) - benefit(runner_up)`` — 0.0 on exact ties.
    margin: float
    #: Sites whose benefit tied with the top within the tie margin.
    tied: Tuple[int, ...]
    #: How the winner was picked: "clear" | "rng" | "lowest-site".
    tie_break: str


def balance_distance(loads: Sequence[float]) -> float:
    """Distance from perfect write balance (Equation 2, see module note)."""
    sites = len(loads)
    if sites == 0:
        return 0.0
    ideal = 1.0 / sites
    return sum((ideal - load) ** 2 for load in loads)


class RemasterStrategy:
    """Scores candidate sites for a remastering decision.

    A decision walks the co-access rows of the write set once, not once
    per candidate per feature: whatever does not depend on the candidate
    is computed once, and each pair's likelihood is dealt to one
    accumulator per site in the order a per-candidate scan would add it,
    so every :class:`SiteScore` field equals the per-candidate oracle's
    (``tests/test_strategy.py``; cost model in DESIGN.md §8).
    """

    def __init__(
        self,
        weights: StrategyWeights,
        statistics: AccessStatistics,
        table: PartitionTable,
        num_sites: int,
        rng=None,
    ):
        if weights.inter_txn and not statistics.track_inter:
            raise ValueError("inter_txn weight needs statistics with track_inter=True")
        self.weights = weights
        self.statistics = statistics
        self.table = table
        self.num_sites = num_sites
        #: Used to break ties between equally-scored candidate sites;
        #: without it, cold-start decisions (all features zero) would
        #: stampede every partition to the lowest-indexed site.
        self._rng = rng
        statistics.follow_masters(table, num_sites)

    # -- feature computation ---------------------------------------------------

    def _localization(
        self,
        write_partitions: Sequence[int],
        candidates: Sequence[int],
        co_access: Dict[int, Dict[int, float]],
    ) -> List[float]:
        """Equations 6-7 for every candidate, indexed by site.

        ``first`` (in the write set) lands on the candidate; its partner
        ``second`` follows only if it is in the write set too. A split
        pair brought together scores ``+count / writes(first)``, a
        co-located pair split ``-`` that. So a partner inside the write
        set rewards every candidate alike (if the pair is split today);
        one outside it rewards only its own master (if split) or costs
        every other candidate (if together).
        """
        gain = [0.0] * self.num_sites
        writes = self.statistics.partition_writes
        masters = self.table.masters
        write_set = set(write_partitions)
        for first in write_partitions:
            row = co_access.get(first)
            # An inter row can outlive its partition's own samples.
            base = writes.get(first, 0.0)
            if not row or base <= 0:
                continue
            first_master = masters[first]
            for second, count in row.items():
                likelihood = count / base
                second_master = masters[second]
                if second in write_set:
                    if first_master != second_master:
                        for site in candidates:
                            gain[site] += likelihood
                elif first_master != second_master:
                    gain[second_master] += likelihood
                else:
                    for site in candidates:
                        if site != second_master:
                            gain[site] -= likelihood
        return gain

    def _score_candidates(
        self,
        candidates: Sequence[int],
        write_partitions: Sequence[int],
        site_vvs: Sequence[VersionVector],
        session_vv: Optional[VersionVector],
        health: Optional[Sequence[float]],
    ) -> List[SiteScore]:
        """All features and the Equation-8 benefit of every candidate.

        The health term is only folded in when both the weight and the
        penalty are nonzero, so runs without health evidence (or with
        ``weights.health == 0``) compute bit-identical benefits.
        """
        weights = self.weights
        statistics = self.statistics
        masters = self.table.masters

        # Equations 2-4 (balance): what each write-set partition would
        # carry along, and the distance before any move.
        loads = statistics.site_write_loads()
        carried = [
            (masters[partition], statistics.access_fraction(partition))
            for partition in write_partitions
        ]
        dist_before = balance_distance(loads)

        # Equation 5 (refresh delay): the candidate must reach the merge
        # of the current masters' vectors and the session's. Merging the
        # candidate's own vector in as well cannot add lag, so one merge
        # serves every candidate.
        required = VersionVector.zeros(self.num_sites)
        for master in {master for master, _ in carried}:
            required.merge(site_vvs[master])
        if session_vv is not None:
            required.merge(session_vv)

        no_gain = [0.0] * self.num_sites
        intra = (
            self._localization(write_partitions, candidates, statistics.co_intra)
            if weights.intra_txn
            else no_gain
        )
        inter = (
            self._localization(write_partitions, candidates, statistics.co_inter)
            if weights.inter_txn
            else no_gain
        )

        scores = []
        for candidate in candidates:
            after = list(loads)
            for current, fraction in carried:
                if current != candidate:
                    after[current] -= fraction
                    after[candidate] += fraction
            dist_after = balance_distance(after)
            delta = dist_before - dist_after  # Eq. 3
            rate = max(dist_before, dist_after)  # Eq. 4
            balance = delta * math.exp(rate)
            delay = float(site_vvs[candidate].lag_behind(required))
            benefit = (
                weights.balance * balance
                - weights.delay * delay
                + weights.intra_txn * intra[candidate]
                + weights.inter_txn * inter[candidate]
            )
            penalty = 0.0
            if health is not None and weights.health:
                penalty = 1.0 - health[candidate]
                if penalty:
                    benefit -= weights.health * penalty
            scores.append(SiteScore(
                candidate, balance, delay, intra[candidate], inter[candidate],
                benefit, penalty,
            ))
        return scores

    # -- the decision -----------------------------------------------------------

    def decide(
        self,
        write_partitions: Sequence[int],
        site_vvs: Sequence[VersionVector],
        session_vv: Optional[VersionVector] = None,
        exclude: Optional[set] = None,
        health: Optional[Sequence[float]] = None,
    ) -> StrategyDecision:
        """Score every candidate and pick the destination site.

        ``site_vvs`` holds the current version vector of every site
        (index-aligned). ``exclude`` removes candidates (crashed or
        suspected sites during failure handling). ``health``, when
        given, is an index-aligned vector of graded detector health
        scores in [0, 1]; with a nonzero ``weights.health`` the
        benefit pays a soft penalty for unhealthy candidates, steering
        mastership away from degrading sites that exclusion (a binary
        verdict) would still admit.

        Tie-breaking contract (deterministic, in this order):

        1. Candidates whose benefit falls within the tie margin of the
           top score (``1e-12 + 1e-9 * |top|`` — exact ties plus float
           noise) form the tied set.
        2. With a configured tie-break stream (the per-run seeded
           ``strategy-tiebreak`` stream — the production setup), the
           winner is drawn from the tied set with it. The draw sequence
           is a pure function of the run seed, so repeated runs decide
           identically; the randomization only prevents cold-start
           decisions (all features zero) from stampeding every
           partition to one site.
        3. Without a stream (``rng=None``), the **lowest site id**
           among the tied candidates wins. This is the documented
           fallback unit tests and offline recomputation rely on.

        The returned :class:`StrategyDecision` records the margin over
        the runner-up, the tied set, and which rule picked the winner,
        so a recorded decision is auditable even when rule 2 applied.
        """
        candidates = [
            candidate
            for candidate in range(self.num_sites)
            if not exclude or candidate not in exclude
        ]
        if not candidates:
            raise ValueError("no candidate sites left after exclusions")
        return self._pick(self._score_candidates(
            candidates, write_partitions, site_vvs, session_vv, health
        ))

    def _pick(self, scores: List[SiteScore]) -> StrategyDecision:
        """Apply the tie-breaking contract of :meth:`decide` to ``scores``."""
        top = max(score.benefit for score in scores)
        margin = 1e-12 + 1e-9 * abs(top)
        tied = [score for score in scores if top - score.benefit <= margin]
        if len(tied) > 1 and self._rng is not None:
            best = tied[self._rng.randrange(len(tied))]
            tie_break = "rng"
        elif len(tied) > 1:
            # Candidates are scored in increasing site order, so the
            # first tied entry is the lowest site id; min() makes the
            # documented rule explicit rather than incidental.
            best = min(tied, key=lambda score: score.site)
            tie_break = "lowest-site"
        else:
            best = tied[0]
            tie_break = "clear"
        runner_up: Optional[int] = None
        runner_benefit = -math.inf
        for score in scores:
            if score is best:
                continue
            if score.benefit > runner_benefit:
                runner_benefit = score.benefit
                runner_up = score.site
        return StrategyDecision(
            site=best.site,
            scores=scores,
            runner_up=runner_up,
            margin=0.0 if runner_up is None else best.benefit - runner_benefit,
            tied=tuple(score.site for score in tied) if len(tied) > 1 else (),
            tie_break=tie_break,
        )
