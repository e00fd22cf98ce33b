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

Write routing keeps one fork, because the two remastering schedules
differ. Under fault injection masters are health-checked before
routing, remastering runs sequential failover rounds with exclusive
locks on the whole write set, release RPCs to a *crashed* master are
replaced by fencing the dead producer's durable log directly (a forced
release marker), grants persistently retry and fail over to a live
site, and a suspected-but-alive master aborts the transaction with a
timeout rather than risking a split mastership.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from repro.sites.messages import RetryPolicy, guarded_call, remote_call
from repro.systems.base import Cluster, Session, choose_fresh_site
from repro.transactions import Transaction
from repro.versioning.vectors import VersionVector


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
    #: Activity-registration token (fault-aware routing only); passing
    #: it to ``execute_update`` / ``activity.finish`` makes in-flight
    #: deregistration idempotent across RPC retries and crashes.
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
        self.config = cluster.config
        self.network = cluster.network
        self.scheme = scheme
        self.cpu = Resource(self.env, self.config.selector_cores)
        self.table = PartitionTable(self.env, placement)
        weights = weights or StrategyWeights()
        self.statistics = AccessStatistics(
            StatisticsConfig(),
            rng=cluster.streams.stream("selector-sampling"),
            track_inter=weights.inter_txn != 0,
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
        chosen site, so a subsequent release will wait for it.
        """
        # Fork: parallel grants with lock downgrade here, sequential
        # failover rounds under faults (different schedules).
        if self.cluster.faults is not None:
            result = yield from self._route_update_faulted(txn, session)
            return result
        env = self.env
        tracer = env.obs.tracer
        traced = tracer.enabled
        route_started = env._now
        partitions = sorted(self.scheme.partitions_of(txn.write_set))
        lock_started = env._now
        yield from self.cpu.use(self.config.costs.route_lookup_ms,
                                txn=txn, track="selector")
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
            self._register(site, partitions, shared=True)
            if traced:
                tracer.span("route", route_started, env._now,
                            track="selector", txn=txn, site=site)
            return RouteResult(site, None, tuple(partitions), False)

        # Distributed masters: upgrade to exclusive partition locks.
        decision_started = env._now
        for partition in partitions:
            self.table.info(partition).lock.release_read()
        for partition in partitions:
            yield self.table.info(partition).lock.acquire_write()
        masters = self.table.masters_of(partitions)
        if len(masters) == 1:
            # A concurrent remastering co-located the write set for us
            # (clients benefit from remastering initiated by clients
            # with common write sets, §III-B).
            site = masters.pop()
            txn.add_timing("routing", env._now - decision_started)
            if traced:
                tracer.span("routing", decision_started, env._now,
                            track="selector", txn=txn)
            self._register(site, partitions)
            if traced:
                tracer.span("route", route_started, env._now,
                            track="selector", txn=txn, site=site)
            return RouteResult(site, None, tuple(partitions), False)

        yield from self.cpu.use(self.config.costs.remaster_decision_ms,
                                txn=txn, track="selector")
        site_vvs = [site.svv for site in self.cluster.sites]
        session_vv = session.cvv if session is not None else None
        decision = self.strategy.decide(partitions, site_vvs, session_vv)
        destination = decision.site
        moves = [
            (source, tuple(group))
            for source, group in self.table.group_by_master(partitions).items()
            if source != destination
        ]
        decision_seq = None
        if self.ledger is not None:
            decision_seq = self.ledger.decision(
                env._now, txn, partitions, decision, self.strategy.weights, moves
            )
        # Keep exclusive locks only on the partitions actually moving;
        # the rest downgrade to shared so that unrelated transactions on
        # those (typically hot, stationary) partitions keep routing
        # while the release/grant protocol runs.
        moving = {partition for _, group in moves for partition in group}
        for partition in partitions:
            if partition not in moving:
                self.table.info(partition).lock.downgrade()
        grant_processes = [
            env.process(self._move(source, group, destination, txn))
            for source, group in moves
        ]
        grant_vvs = yield env.all_of(grant_processes)
        min_vv = VersionVector.zeros(self.cluster.num_sites)
        for grant_vv in grant_vvs:
            min_vv.merge(grant_vv)
        for source, group in moves:
            for partition in group:
                self.table.set_master(partition, destination)
                if self.ledger is not None:
                    self.ledger.ownership(env._now, partition, source,
                                          destination, decision_seq)
        moved = sum(len(group) for group in (group for _, group in moves))
        self.remaster_operations += len(moves)
        self.partitions_moved += moved
        self.updates_remastered += 1
        txn.add_timing("routing", env._now - decision_started)
        if traced:
            tracer.span("routing", decision_started, env._now,
                        track="selector", txn=txn, remastered=True)
            tracer.instant(
                "remaster", env._now, track="selector", txn=txn,
                destination=destination, partitions_moved=moved,
                operations=len(moves),
            )
        self._register(destination, partitions, moved, exclusive=moving)
        if traced:
            tracer.span("route", route_started, env._now,
                        track="selector", txn=txn, site=destination)
        return RouteResult(destination, min_vv, tuple(partitions), True, moved)

    def _register(
        self,
        site: int,
        partitions: Sequence[int],
        moved: int = 0,
        shared: bool = False,
        exclusive: Optional[set] = None,
        token: Optional[tuple] = None,
    ) -> None:
        """Register the routed txn in-flight, then drop partition locks.

        ``shared=True`` releases read holds on everything; otherwise
        partitions in ``exclusive`` release write holds and the rest
        release read holds (the downgraded stationary partitions of a
        remastering). Counts the route, and records it in the ledger
        with the ``moved`` partitions it took.
        """
        self.cluster.activity.begin(site, partitions, token)
        for partition in partitions:
            info = self.table.info(partition)
            if shared:
                info.lock.release_read()
            elif exclusive is None or partition in exclusive:
                info.lock.release_write()
            else:
                info.lock.release_read()
        self.updates_routed += 1
        self.route_counts[site] += 1
        if self.ledger is not None:
            self.ledger.route(self.env._now, site, moved)

    def _move(self, source: int, partitions: Tuple[int, ...], destination: int,
              txn: Optional[Transaction] = None):
        """One release -> grant chain of Algorithm 1 (lines 7-8).

        ``txn`` is the remastering-triggering transaction, used only to
        attribute the release/grant spans in a trace.
        """
        tracer = self.env.obs.tracer
        traced = tracer.enabled
        sites = self.cluster.sites
        release_started = self.env._now
        release_vv = yield from remote_call(
            self.network,
            sites[source].release_mastership(partitions),
            category="remaster",
        )
        if traced:
            tracer.span("release", release_started, self.env._now,
                        track=sites[source].trace_track, txn=txn,
                        partitions=len(partitions))
        grant_started = self.env._now
        grant_vv = yield from remote_call(
            self.network,
            sites[destination].grant_mastership(partitions, release_vv, source=source),
            category="remaster",
        )
        if traced:
            tracer.span("grant", grant_started, self.env._now,
                        track=sites[destination].trace_track, txn=txn,
                        partitions=len(partitions), source=source)
            tracer.edge("remaster", release_started, txn=txn,
                        track="selector", source=source,
                        destination=destination,
                        partitions=len(partitions),
                        waited=self.env._now - release_started)
        return grant_vv

    # -- fault-aware write routing ---------------------------------------------

    def _healthy(self, site: int) -> bool:
        return (
            self.cluster.sites[site].alive
            and not self.cluster.faults.detector.is_suspected(site)
        )

    def _route_update_faulted(self, txn: Transaction, session: Optional[Session]):
        """Survivable :meth:`route_update`: health-checked masters,
        failover remastering away from crashed sites.

        A healthy single master routes as without faults (recording no
        ``selector_lock`` phase or route span). An unhealthy master — or
        a genuinely distributed write set — takes exclusive locks on the
        whole write set (no downgrade optimization: under faults a move
        can cascade if the chosen destination dies mid-protocol, and the
        simpler lock discipline keeps that re-entrant) and remasters
        onto a live site. Raises
        :class:`TransactionAborted` when failure handling cannot route
        the transaction; partition locks are always released.
        """
        env = self.env
        token = (txn.txn_id, self._route_seq)
        self._route_seq += 1
        partitions = sorted(self.scheme.partitions_of(txn.write_set))
        yield from self.cpu.use(self.config.costs.route_lookup_ms,
                                txn=txn, track="selector")
        for partition in partitions:
            yield self.table.info(partition).lock.acquire_read()
        self.statistics.observe(env._now, txn.client_id, partitions)

        masters = self.table.masters_of(partitions)
        if len(masters) <= 1:
            site = masters.pop() if masters else 0
            if self._healthy(site):
                self._register(site, partitions, shared=True, token=token)
                return RouteResult(site, None, tuple(partitions), False, token=token)
        # Unhealthy master or distributed write set: exclusive locks on
        # everything, then remaster onto a live destination.
        for partition in partitions:
            self.table.info(partition).lock.release_read()
        for partition in partitions:
            yield self.table.info(partition).lock.acquire_write()
        try:
            masters = self.table.masters_of(partitions)
            if len(masters) == 1:
                only = next(iter(masters))
                if self._healthy(only):
                    # A concurrent routing already healed this write set.
                    self._register(only, partitions, token=token)
                    return RouteResult(
                        only, None, tuple(partitions), False, token=token
                    )
            yield from self.cpu.use(self.config.costs.remaster_decision_ms,
                                    txn=txn, track="selector")
            destination, min_vv, moved, operations = yield from self._remaster_faulted(
                partitions, txn, session
            )
        except FaultError:
            for partition in partitions:
                self.table.info(partition).lock.release_write()
            raise
        if operations:
            self.remaster_operations += operations
            self.partitions_moved += moved
            self.updates_remastered += 1
        self._register(destination, partitions, moved, token=token)
        return RouteResult(
            destination,
            min_vv if operations else None,
            tuple(partitions),
            operations > 0,
            moved,
            token=token,
        )

    def _remaster_faulted(
        self, partitions: Sequence[int], txn: Transaction, session: Optional[Session]
    ):
        """Drive release/grant rounds until one healthy site masters all.

        Each round re-reads the partition table (a destination crash
        mid-round scatters groups across fallback grant targets, so a
        single pass is not enough), excludes crashed and suspected
        sites from the strategy's candidates, and moves every foreign
        group sequentially. Bounded by one round per site plus one:
        a plan may now crash a site repeatedly (non-overlapping
        windows), so rather than relying on fresh-crash counting the
        loop simply gives up past the bound and aborts the transaction
        cleanly with ``remastering did not converge``.
        """
        faults = self.cluster.faults
        min_vv = VersionVector.zeros(self.cluster.num_sites)
        moved = 0
        operations = 0
        for _round in range(self.cluster.num_sites + 1):
            groups = self.table.group_by_master(partitions)
            masters = set(groups)
            if len(masters) == 1:
                only = next(iter(masters))
                if self._healthy(only):
                    return only, min_vv, moved, operations
            decision, excluded, health = self._choose_destination_faulted(
                partitions, session
            )
            destination = decision.site
            moves = [
                (source, tuple(group))
                for source, group in sorted(groups.items())
                if source != destination
            ]
            if not moves:
                return destination, min_vv, moved, operations
            decision_seq = None
            if self.ledger is not None:
                decision_seq = self.ledger.decision(
                    self.env._now, txn, partitions, decision,
                    self.strategy.weights, moves, excluded=excluded,
                    health=health,
                )
            for source, group in moves:
                target, grant_vv = yield from self._move_faulted(
                    source, group, destination, txn
                )
                min_vv.merge(grant_vv)
                for partition in group:
                    self.table.set_master(partition, target)
                    # The grant can fail over to a live site other than
                    # the decision's choice; the timeline records where
                    # mastership actually landed.
                    if self.ledger is not None:
                        self.ledger.ownership(self.env._now, partition,
                                              source, target, decision_seq)
                operations += 1
                moved += len(group)
        reason = REASON_SITE_CRASH if faults.any_crashed else REASON_TIMEOUT
        raise TransactionAborted(
            reason, f"remastering of {tuple(partitions)} did not converge"
        )

    def _choose_destination_faulted(
        self, partitions: Sequence[int], session: Optional[Session]
    ):
        """Strategy choice restricted to live (and ideally unsuspected) sites.

        Returns ``(decision, excluded, health)`` — the full
        :class:`~repro.core.strategy.StrategyDecision`, the candidate
        sites failure handling removed, and the per-site health
        evidence the decision saw (empty when health-aware remastering
        is off), all recorded by the decision ledger when one is
        attached.

        Health-aware remastering: with a nonzero ``weights.health``,
        the detector's graded health scores enter the benefit as a
        soft penalty — a degrading-but-unsuspected site loses the
        decision to a clean site unless its locality/balance advantage
        outweighs the sickness. Exclusion stays the hard backstop for
        dead and fully-suspected sites.
        """
        faults = self.cluster.faults
        sites = self.cluster.sites
        dead = {site.index for site in sites if not site.alive}
        suspected = {
            index
            for index in range(self.cluster.num_sites)
            if faults.detector.is_suspected(index)
        }
        exclude = dead | suspected
        if len(exclude) >= self.cluster.num_sites:
            exclude = dead
        site_vvs = [site.svv for site in sites]
        session_vv = session.cvv if session is not None else None
        health: Tuple[float, ...] = ()
        if self.strategy.weights.health:
            detector = faults.detector
            health = tuple(
                detector.health(index) if sites[index].alive else 0.0
                for index in range(self.cluster.num_sites)
            )
        decision = self.strategy.decide(
            partitions, site_vvs, session_vv, exclude=exclude,
            health=health or None,
        )
        return decision, exclude, health

    def _move_faulted(
        self,
        source: int,
        partitions: Tuple[int, ...],
        destination: int,
        txn: Transaction,
    ):
        """One survivable release -> grant chain.

        Release: a *crashed* source is fenced through its durable log
        (:meth:`_force_release` — the log service refuses appends from
        a dead producer, so writing the marker on its behalf is safe);
        a live source gets a guarded RPC with bounded retries — a
        suspected-but-alive master times the transaction out instead of
        risking two masters. Grant: must land somewhere once the
        release marker exists, or the partitions stay orphaned — so it
        retries persistently, failing over to another live site if the
        chosen target dies. A target that dies *after* durably logging
        the grant (its reply was lost) would replay it on restart and
        master the partitions next to the failover target, so it is
        fenced like any dead master and the chain continues from that
        release point. Returns ``(actual target, grant vector)``.
        """
        env = self.env
        faults = self.cluster.faults
        sites = self.cluster.sites
        policy = RetryPolicy(faults.rpc, faults.rng)
        timeout_ms = faults.rpc.remaster_timeout_ms
        tracer = env.obs.tracer
        chain_started = env._now

        release_vv = None
        failures = 0
        while release_vv is None:
            if faults.is_crashed(source):
                release_vv = self._force_release(source, partitions)
                break
            try:
                release_vv = yield from guarded_call(
                    self.network,
                    sites[source],
                    sites[source].release_mastership(partitions),
                    category="remaster",
                    timeout_ms=timeout_ms,
                )
            except SiteDown:
                continue  # re-checks is_crashed -> forced release
            except RpcTimeout:
                failures += 1
                if failures >= policy.attempts:
                    raise TransactionAborted(
                        REASON_TIMEOUT,
                        f"release of {partitions} at site {source} timed out",
                    )
                yield env.timeout(policy.backoff_ms(failures - 1))

        failures = 0
        target = destination
        while True:
            if not sites[target].alive:
                if self._grant_logged(target, partitions, source, release_vv):
                    release_vv = self._force_release(target, partitions)
                    source = target
                target = self._alive_target()
            try:
                grant_vv = yield from guarded_call(
                    self.network,
                    sites[target],
                    sites[target].grant_mastership(
                        partitions, release_vv, source=source
                    ),
                    category="remaster",
                    timeout_ms=timeout_ms,
                )
                if tracer.enabled:
                    tracer.edge("remaster", chain_started, txn=txn,
                                track="selector", source=source,
                                destination=target,
                                partitions=len(partitions),
                                waited=env._now - chain_started)
                return target, grant_vv
            except SiteDown:
                continue  # re-picks a live target
            except RpcTimeout:
                # The grant may or may not have applied; re-granting to
                # the *same* target is idempotent (a duplicate marker
                # replays harmlessly and the returned vector still
                # covers the release point).
                failures += 1
                yield env.timeout(policy.backoff_ms(min(failures - 1, 8)))

    def _alive_target(self) -> int:
        """Lowest-indexed live unsuspected site (live site as fallback)."""
        faults = self.cluster.faults
        candidates = [
            site.index
            for site in self.cluster.sites
            if site.alive and not faults.detector.is_suspected(site.index)
        ]
        if not candidates:
            candidates = [site.index for site in self.cluster.sites if site.alive]
        if not candidates:
            raise TransactionAborted(
                REASON_SITE_CRASH, "no live site to grant mastership to"
            )
        return candidates[0]

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
        yield from self.cpu.use(self.config.costs.route_lookup_ms,
                                txn=txn, track="selector")
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
