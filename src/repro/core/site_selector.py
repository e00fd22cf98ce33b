"""The site selector: routing and the remastering protocol (§III-B, §V-B).

Write routing: look up the master of every write-set partition under
shared partition locks; if one site masters them all, route there.
Otherwise upgrade to exclusive locks, pick a destination with the
:class:`~repro.core.strategy.RemasterStrategy`, and run Algorithm 1 —
parallel ``release``/``grant`` chains per source site — before routing.
The transaction's minimum begin version is the element-wise max of the
grant vectors.

Read routing (§IV-B): a uniformly random site satisfying the client's
session freshness — one routine, with or without a fault injector.

Failure handling lives inside that one schedule (§V-D). A master that
is down or suspected (:meth:`~repro.systems.base.Cluster.health`) is
remastered away like a distributed write set; a chain releasing from a
*crashed* master fences the dead producer's durable log directly (a
forced release marker), a grant persistently retries and fails over to
a live site, and a suspected-but-alive master aborts the transaction
with a timeout rather than risk a split mastership. A round that
leaves the write set split or on an unhealthy master starts over under
exclusive locks, at most one round per site plus one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.partitions import PartitionTable
from repro.core.statistics import AccessStatistics, StatisticsConfig
from repro.core.strategy import RemasterStrategy, StrategyWeights
from repro.faults.errors import (
    REASON_SITE_CRASH,
    REASON_TIMEOUT,
    FaultError,
    RpcTimeout,
    SiteDown,
    TransactionAborted,
)
from repro.partitioning.schemes import PartitionScheme
from repro.replication.log import GRANT, RELEASE, LogRecord
from repro.sim.resources import Resource
from repro.sites.messages import RetryPolicy, guarded_call
from repro.systems.base import (
    ROUTE_LOOKUP_MS,
    SELECTOR_CORES,
    Cluster,
    Session,
    choose_fresh_site,
)
from repro.transactions import Transaction
from repro.versioning.vectors import VersionVector

#: Site-selector work to score candidate sites for remastering (ms).
REMASTER_DECISION_MS = 0.02
#: Remastering RPCs (release/grant) legitimately block on quiesce and
#: replication catch-up; they get a longer leash than ``TIMEOUT_MS``.
REMASTER_TIMEOUT_MS = 400.0
#: Health weight under the ``"adaptive"`` defense preset — large enough
#: that a site the detector grades fully unhealthy loses to any
#: candidate whose Equation-8 benefit is within typical chaos-run
#: magnitudes, yet small enough not to drown the balance term for
#: mildly degraded sites.
ADAPTIVE_HEALTH_WEIGHT = 1000.0


@dataclass(slots=True)
class RouteResult:
    """The site selector's answer for an update transaction."""

    site: int
    #: Minimum version the transaction must observe at the execution
    #: site (None when no remastering was needed).
    min_vv: Optional[VersionVector]
    partitions: Tuple[int, ...]
    remastered: bool
    partitions_moved: int = 0
    #: Activity-registration token; passing it to ``execute_update`` /
    #: ``activity.finish`` makes in-flight deregistration idempotent
    #: across RPC retries and crashes.
    token: Optional[tuple] = None


class SiteSelector:
    """Routes transactions and drives remastering for one cluster."""

    def __init__(
        self,
        cluster: Cluster,
        scheme: PartitionScheme,
        placement: Dict[int, int],
        weights: Optional[StrategyWeights] = None,
    ):
        self.cluster = cluster
        self.env = cluster.env
        self.network = cluster.network
        self.scheme = scheme
        self.cpu = Resource(self.env, SELECTOR_CORES)
        self.table = PartitionTable(self.env, placement)
        weights = weights or StrategyWeights()
        if cluster.config.defenses == "adaptive":
            weights = replace(weights, health=ADAPTIVE_HEALTH_WEIGHT)
        self.statistics = AccessStatistics(
            StatisticsConfig(), track_inter=weights.inter_txn != 0
        )
        self.strategy = RemasterStrategy(
            weights,
            self.statistics,
            self.table,
            cluster.num_sites,
            rng=cluster.streams.stream("strategy-tiebreak"),
        )
        self._read_rng = cluster.streams.stream("read-routing")
        # Counters for the paper's overhead analysis (§VI-B6/B7).
        self.updates_routed = 0
        self.reads_routed = 0
        self.updates_remastered = 0
        self.remaster_operations = 0
        self.partitions_moved = 0
        self.route_counts: List[int] = [0] * cluster.num_sites
        #: Monotonic counter making activity tokens unique per routing.
        self._route_seq = 0
        #: Decision ledger (mastering observatory, DESIGN.md §6.6).
        #: None by default; every hook below sits behind one
        #: ``is not None`` test, so unobserved runs pay one attribute
        #: load per routing.
        self.ledger = None

    def attach_ledger(self, ledger) -> None:
        """Install a :class:`~repro.obs.mastery.DecisionLedger`.

        Snapshots the current partition -> master placement so the
        ledger can reconstruct the full mastership timeline. The ledger
        is passive — it records already-computed values and never
        interacts with the simulation — so an observed run's simulated
        outcome is bit-identical to an unobserved one.
        """
        self.ledger = ledger
        ledger.record_placement(self.table.snapshot(), self.env._now)

    # -- write routing (Algorithm 1 driver) ------------------------------------

    def route_update(self, txn: Transaction, session: Optional[Session] = None):
        """Decide (and if needed remaster) where ``txn`` executes.

        Generator returning a :class:`RouteResult`. On return, the
        transaction is registered as in-flight on its partitions at the
        chosen site, so a subsequent release will wait for it. Raises
        :class:`TransactionAborted` when failure handling cannot route
        the transaction; its partition locks are released first.
        """
        env = self.env
        tracer = env.obs.tracer
        traced = tracer.enabled
        route_started = env._now
        token = (txn.txn_id, self._route_seq)
        self._route_seq += 1
        partitions = sorted(self.scheme.partitions_of(txn.write_set))
        lock_started = env._now
        yield from self.cpu.use(ROUTE_LOOKUP_MS, txn=txn, track="selector")
        for partition in partitions:
            yield self.table.info(partition).lock.acquire_read()
        txn.add_timing("selector_lock", env._now - lock_started)
        if traced:
            tracer.span("selector_lock", lock_started, env._now,
                        track="selector", txn=txn)
        self.statistics.observe(env._now, txn.client_id, partitions)

        masters = self.table.masters_of(partitions)
        if len(masters) <= 1:
            site = masters.pop() if masters else 0
            if self.cluster.health(site) > 0:
                self._register(site, partitions, exclusive=(), token=token)
                if traced:
                    tracer.span("route", route_started, env._now,
                                track="selector", txn=txn, site=site)
                return RouteResult(site, None, tuple(partitions), False,
                                   token=token)

        # Distributed masters, or one that is down or suspected: rounds
        # of Algorithm 1 until one healthy site masters the write set.
        # Each round starts from exclusive locks on every partition —
        # the upgrade from the shared lookup, or a fresh start after a
        # round that left the write set split or on an unhealthy master.
        decision_started = env._now
        sites = self.cluster.sites
        min_vv = VersionVector.zeros(self.cluster.num_sites)
        moved = operations = 0
        # Partitions held exclusively (None: every one); the rest shared.
        moving: Optional[set] = set()
        for _round in range(self.cluster.num_sites + 1):
            self._unlock(partitions, moving)
            for partition in partitions:
                yield self.table.info(partition).lock.acquire_write()
            moving = None
            site = self._healthy_master(partitions)
            if site is not None:
                # A concurrent remastering co-located the write set for
                # us (clients benefit from remastering initiated by
                # clients with common write sets, §III-B).
                break
            yield from self.cpu.use(REMASTER_DECISION_MS, txn=txn, track="selector")
            health = tuple(self.cluster.health(index)
                           for index in range(self.cluster.num_sites))
            excluded = {index for index, score in enumerate(health) if score <= 0}
            if len(excluded) == len(health):  # all suspected: only the dead
                excluded = {index for index in excluded if not sites[index].alive}
            if not self.strategy.weights.health:
                health = ()
            decision = self.strategy.decide(
                partitions, [site.svv for site in sites],
                session.cvv if session is not None else None,
                exclude=excluded, health=health or None,
            )
            site = decision.site
            moves = [
                (source, tuple(group))
                for source, group in self.table.group_by_master(partitions).items()
                if source != site
            ]
            if not moves:
                break  # every candidate is suspected: the master stays
            decision_seq = None
            if self.ledger is not None:
                decision_seq = self.ledger.decision(
                    env._now, txn, partitions, decision, self.strategy.weights,
                    moves, excluded=excluded, health=health,
                )
            # Keep exclusive locks only on the partitions actually
            # moving; the rest downgrade to shared so that unrelated
            # transactions on those (typically hot, stationary)
            # partitions keep routing while the release/grant chains run.
            moving = {partition for _, group in moves for partition in group}
            for partition in partitions:
                if partition not in moving:
                    self.table.info(partition).lock.downgrade()
            chains = [
                env.process(self._move(source, group, site, txn))
                for source, group in moves
            ]
            outcomes = yield env.all_of(chains)
            # Every completed move is written before any abort: its
            # grant is durable, so dropping it would split mastership.
            failure = None
            for (source, group), outcome in zip(moves, outcomes):
                if isinstance(outcome, FaultError):
                    failure = failure or outcome
                    continue
                target, grant_vv = outcome
                min_vv.merge(grant_vv)
                for partition in group:
                    self.table.set_master(partition, target)
                    # A grant can fail over to a live site other than
                    # the decision's; the timeline records where
                    # mastership actually landed.
                    if self.ledger is not None:
                        self.ledger.ownership(env._now, partition, source,
                                              target, decision_seq)
                operations += 1
                moved += len(group)
                self.remaster_operations += 1
                self.partitions_moved += len(group)
            if failure is not None:
                self._unlock(partitions, moving)
                raise failure
            site = self._healthy_master(partitions)
            if site is not None:
                break
        else:
            self._unlock(partitions, moving)
            raise TransactionAborted(
                REASON_TIMEOUT if all(s.alive for s in sites) else REASON_SITE_CRASH,
                f"remastering of {tuple(partitions)} did not converge",
            )

        txn.add_timing("routing", env._now - decision_started)
        if operations:
            self.updates_remastered += 1
            if traced:
                tracer.span("routing", decision_started, env._now,
                            track="selector", txn=txn, remastered=True)
                tracer.instant(
                    "remaster", env._now, track="selector", txn=txn,
                    destination=site, partitions_moved=moved,
                    operations=operations,
                )
        elif traced:
            tracer.span("routing", decision_started, env._now,
                        track="selector", txn=txn)
        self._register(site, partitions, moved, exclusive=moving, token=token)
        if traced:
            tracer.span("route", route_started, env._now,
                        track="selector", txn=txn, site=site)
        return RouteResult(site, min_vv if operations else None,
                           tuple(partitions), operations > 0, moved, token=token)

    def _healthy_master(self, partitions: Sequence[int]) -> Optional[int]:
        """The one site mastering all of ``partitions``, if it is healthy."""
        masters = self.table.masters_of(partitions)
        if len(masters) == 1:
            site = masters.pop()
            if self.cluster.health(site) > 0:
                return site
        return None

    def _unlock(self, partitions: Sequence[int],
                exclusive: Optional[set] = None) -> None:
        """Drop this routing's partition locks: write holds on the
        partitions in ``exclusive`` (all of them when None), read holds
        on the rest."""
        for partition in partitions:
            lock = self.table.info(partition).lock
            if exclusive is None or partition in exclusive:
                lock.release_write()
            else:
                lock.release_read()

    def _register(
        self,
        site: int,
        partitions: Sequence[int],
        moved: int = 0,
        exclusive: Optional[set] = None,
        token: Optional[tuple] = None,
    ) -> None:
        """Register the routed txn in-flight, then drop partition locks
        (:meth:`_unlock`). Counts the route, and records it in the
        ledger with the ``moved`` partitions it took."""
        self.cluster.activity.begin(site, partitions, token)
        self._unlock(partitions, exclusive)
        self.updates_routed += 1
        self.route_counts[site] += 1
        if self.ledger is not None:
            self.ledger.route(self.env._now, site, moved)

    def _move(self, source: int, partitions: Tuple[int, ...], destination: int,
              txn: Optional[Transaction] = None):
        """One release -> grant chain of Algorithm 1 (lines 7-8).

        Returns ``(target, grant vector)``, or the :class:`FaultError`
        that ended the chain: each chain owns its failure, so the driver
        sees every sibling finish and writes what moved. ``txn`` is the
        remastering-triggering transaction, used only to attribute the
        release/grant spans in a trace.

        Release: a down source is fenced through its durable log
        (:meth:`_force_release`); a live one gets a guarded RPC with
        bounded retries — a suspected-but-alive master times the chain
        out rather than risk two masters. Grant: once the release marker
        exists the partitions must land somewhere, so it retries
        persistently and fails over to a live site if the target dies.
        A target that died *after* durably logging the grant (its reply
        was lost) would replay it on restart next to the failover
        target, so it is fenced like any dead master and the chain
        continues from that release point. Without an injector each
        step is one RPC and nothing is drawn.
        """
        env = self.env
        tracer = env.obs.tracer
        traced = tracer.enabled
        sites = self.cluster.sites
        policy = None
        release_started = env._now
        try:
            release_vv = None
            failures = 0
            while release_vv is None:
                if not sites[source].alive:
                    release_vv = self._force_release(source, partitions)
                    continue
                try:
                    release_vv = yield from guarded_call(
                        self.network,
                        sites[source],
                        sites[source].release_mastership(partitions),
                        category="remaster",
                        timeout_ms=REMASTER_TIMEOUT_MS,
                    )
                except SiteDown:
                    pass  # the next pass fences the dead source
                except RpcTimeout:
                    failures += 1
                    policy = policy or RetryPolicy(self.cluster.faults.rng)
                    if failures >= policy.attempts:
                        raise TransactionAborted(
                            REASON_TIMEOUT,
                            f"release of {partitions} at site {source} timed out",
                        )
                    yield env.timeout(policy.backoff_ms(failures - 1))
            if traced:
                tracer.span("release", release_started, env._now,
                            track=sites[source].trace_track, txn=txn,
                            partitions=len(partitions))

            grant_vv = None
            failures = 0
            target = destination
            while grant_vv is None:
                if not sites[target].alive:
                    if self._grant_logged(target, partitions, source, release_vv):
                        release_vv = self._force_release(target, partitions)
                        source = target
                    target = self._alive_target()
                grant_started = env._now
                try:
                    grant_vv = yield from guarded_call(
                        self.network,
                        sites[target],
                        sites[target].grant_mastership(
                            partitions, release_vv, source=source
                        ),
                        category="remaster",
                        timeout_ms=REMASTER_TIMEOUT_MS,
                    )
                except SiteDown:
                    pass  # the next pass picks a live target
                except RpcTimeout:
                    # The grant may or may not have applied; re-granting
                    # to the *same* target is idempotent (a duplicate
                    # marker replays harmlessly and the returned vector
                    # still covers the release point).
                    failures += 1
                    policy = policy or RetryPolicy(self.cluster.faults.rng)
                    yield env.timeout(policy.backoff_ms(min(failures - 1, 8)))
        except FaultError as exc:
            return exc
        if traced:
            tracer.span("grant", grant_started, env._now,
                        track=sites[target].trace_track, txn=txn,
                        partitions=len(partitions), source=source)
            tracer.edge("remaster", release_started, txn=txn,
                        track="selector", source=source,
                        destination=target,
                        partitions=len(partitions),
                        waited=env._now - release_started)
        return target, grant_vv

    def _alive_target(self) -> int:
        """Lowest-indexed healthy site (a live one as fallback)."""
        cluster = self.cluster
        for index in range(cluster.num_sites):
            if cluster.health(index) > 0:
                return index
        for site in cluster.sites:
            if site.alive:
                return site.index
        raise TransactionAborted(
            REASON_SITE_CRASH, "no live site to grant mastership to"
        )

    def _grant_logged(self, target: int, partitions: Tuple[int, ...],
                      source: int, release_vv: VersionVector) -> bool:
        """Did ``target`` durably log the grant answering this release?

        A grant marker carries the release point at position ``source``
        of its vector (its own, later, sequence when the failover
        target *is* the source), and ``source`` releases nothing else
        for these partitions while this chain is open — so ``>=``
        matches this chain's grant and no earlier one.
        """
        release_point = release_vv[source]

        def answers(record) -> bool:
            return (
                record.kind == GRANT
                and record.partitions == partitions
                and record.tvv[source] >= release_point
            )

        if any(answers(record)
               for record in reversed(self.cluster.sites[target].log.records)):
            return True
        # Every live replica may have applied the grant before the
        # target died, and the checkpoint folded it: it keeps each
        # partition's last marker, and none but this chain's moves
        # these partitions while it is open.
        folded = self.cluster.checkpoint.markers.get(partitions[0])
        return folded is not None and folded.target == target and answers(folded)

    def _force_release(self, source: int, partitions: Tuple[int, ...]):
        """Fence a dead master by appending its release marker directly.

        The durable log outlives its site (it is the Kafka substitute);
        appending the marker on the dead producer's behalf is exactly
        the failover the log service's fencing makes safe — the crashed
        site cannot concurrently append, and on restart it replays this
        marker like everyone else and comes back without the partitions.
        Atomic (no yields), so no competing routing can interleave.
        """
        log = self.cluster.sites[source].log
        seq = len(log) + 1
        marker_tvv = tuple(
            seq if index == source else 0 for index in range(self.cluster.num_sites)
        )
        log.append(
            LogRecord(RELEASE, source, marker_tvv, partitions=tuple(partitions))
        )
        release_vv = VersionVector.zeros(self.cluster.num_sites)
        release_vv[source] = seq
        return release_vv

    # -- read routing (§IV-B) --------------------------------------------------------

    def route_read(self, txn: Transaction, session: Session):
        """Pick a session-fresh site for a read-only transaction
        (:func:`~repro.systems.base.choose_fresh_site`)."""
        route_started = self.env._now
        yield from self.cpu.use(ROUTE_LOOKUP_MS, txn=txn, track="selector")
        choice = choose_fresh_site(self.cluster, session, self._read_rng)
        self.reads_routed += 1
        tracer = self.env.obs.tracer
        if tracer.enabled:
            tracer.span(
                "route", route_started, self.env._now,
                track="selector", txn=txn, site=choice,
            )
        return choice

    # -- introspection -------------------------------------------------------------------

    def remaster_rate(self) -> float:
        """Fraction of routed update transactions that required remastering."""
        if self.updates_routed == 0:
            return 0.0
        return self.updates_remastered / self.updates_routed

    def route_fractions(self) -> List[float]:
        """Fraction of update requests routed to each site (Fig. 5a)."""
        total = sum(self.route_counts)
        if total == 0:
            return [0.0] * len(self.route_counts)
        return [count / total for count in self.route_counts]
