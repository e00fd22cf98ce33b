"""The DynaMast system (paper §V): dynamic mastering + adaptive routing."""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.site_selector import SiteSelector
from repro.core.strategy import StrategyWeights
from repro.faults.errors import FaultError, RpcTimeout, TransactionAborted
from repro.partitioning.schemes import PartitionScheme
from repro.sites.messages import guarded_call, with_retries
from repro.systems.base import Cluster, Session, System
from repro.transactions import Outcome, Transaction


class DynaMast(System):
    """Replicated multi-master with dynamic mastership transfer.

    Guarantees one-site execution for every transaction: reads run at
    any session-fresh replica; updates run at the single site that
    masters (after remastering, if necessary) the whole write set.
    """

    name = "dynamast"
    replicated = True

    def __init__(
        self,
        cluster: Cluster,
        scheme: PartitionScheme,
        placement: Optional[Dict[int, int]] = None,
        weights: Optional[StrategyWeights] = None,
    ):
        super().__init__(cluster)
        self.scheme = scheme
        # The paper gives DynaMast no curated initial placement — it
        # must learn one. Round-robin scatters partitions neutrally.
        if placement is None:
            placement = scheme.round_robin_placement(cluster.num_sites)
        self.placement = placement
        cluster.place_partitions(placement)
        self.selector = SiteSelector(cluster, scheme, placement, weights)

    def submit(self, txn: Transaction, session: Session):
        """Route, then run at one site; a retry re-routes from scratch.

        Under fault injection a retry therefore lands on a surviving
        (or newly restarted) site. A lost-reply timeout after dispatch
        re-executes the transaction — at-least-once semantics; every
        execution is replicated consistently, so replicas still
        converge (see DESIGN.md, Fault model).
        """
        yield from self.client_hop(txn)  # client -> site selector

        if txn.is_read_only:
            hedged = self.cluster.hedged_reads

            def read():
                site_index = yield from self.selector.route_read(txn, session)
                yield from self.client_hop(txn)  # selector -> client
                site = self.sites[site_index]
                if hedged:
                    return (yield from self._hedged_read(txn, session, site))
                return (yield from guarded_call(
                    self.network,
                    site,
                    site.execute_read(txn, min_begin=session.cvv),
                    category="client",
                    txn=txn,
                ))

            begin, retries, error = yield from with_retries(self.network, read)
            if error is not None:
                return Outcome(
                    committed=False, retries=retries, abort_reason=error.reason
                )
            session.observe(begin)
            return Outcome(committed=True, retries=retries)

        remastered = False

        def update():
            nonlocal remastered
            route = yield from self.selector.route_update(txn, session)
            remastered = remastered or route.remastered
            yield from self.client_hop(txn)  # selector -> client (site + version)
            min_vv = (
                session.cvv
                if route.min_vv is None
                else route.min_vv.element_max(session.cvv)
            )
            site = self.sites[route.site]
            try:
                return (yield from guarded_call(
                    self.network,
                    site,
                    site.execute_update(
                        txn, min_vv, partitions=route.partitions, token=route.token
                    ),
                    category="client",
                    txn=txn,
                ))
            except FaultError as exc:
                if not (isinstance(exc, RpcTimeout) and exc.dispatched):
                    # The handler never started (lost request, refused
                    # at a dead site, or interrupted with its cleanup
                    # run): deregister our routing. With a dispatched
                    # timeout the live handler owns its own finally.
                    self.cluster.activity.finish(
                        route.site, route.partitions, route.token
                    )
                raise

        tvv, retries, error = yield from with_retries(self.network, update)
        if error is not None:
            return Outcome(
                committed=False,
                retries=retries,
                # An abort in routing reports no remastering.
                remastered=remastered and not isinstance(error, TransactionAborted),
                abort_reason=error.reason,
            )
        session.observe(tvv)
        return Outcome(committed=True, remastered=remastered, retries=retries)

    # -- hedged reads (gray-failure defense) -------------------------------

    def _absorbed_read(self, site, txn: Transaction, session: Session, box):
        """Drive one guarded read, parking its outcome in ``box``.

        The wrapping process always succeeds, so a racer nobody awaits
        anymore (the other replica answered first) cannot surface an
        unhandled simulation error.
        """
        try:
            box.result = yield from guarded_call(
                self.network,
                site,
                site.execute_read(txn, min_begin=session.cvv),
                category="client",
                txn=txn,
            )
        except FaultError as exc:
            box.exc = exc

    def _backup_replica(self, primary_index: int, session: Session):
        """The replica a hedged read falls back to: healthiest first.

        Live, unsuspected, not the primary; among those, the most
        session-fresh (lowest lag behind the client's vector), lowest
        site id on ties. Deterministic — no RNG draw — so enabling
        hedging perturbs nothing else.
        """
        candidates = [
            site for site in self.sites
            if site.index != primary_index and self.cluster.health(site.index) > 0
        ]
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda site: (site.svv.lag_behind(session.cvv), site.index),
        )

    def _hedged_read(self, txn: Transaction, session: Session, primary):
        """First-response-wins read with an adaptively delayed backup.

        The primary read runs as its own process; if it has not
        resolved within the hedge delay (the primary's hedge-quantile
        RTT), a backup read is launched at another replica and the two
        race. The *first successful* response wins — a racer that
        fails defers to the survivor — and the caller applies exactly
        one session observation, so effects are never double-applied
        (reads are side-effect-free at the sites; the loser merely
        finishes consuming its replica's CPU). Raises the primary's
        fault when both racers fail.
        """
        env = self.env
        faults = self.cluster.faults
        primary_box = _HedgeBox()
        primary_proc = env.process(
            self._absorbed_read(primary, txn, session, primary_box)
        )
        yield env.any_of([
            primary_proc, env.timeout(faults.hedge_delay_ms(primary.index)),
        ])
        if not primary_proc.triggered:
            backup = self._backup_replica(primary.index, session)
            if backup is not None:
                faults.hedges_launched += 1
                backup_box = _HedgeBox()
                backup_proc = env.process(
                    self._absorbed_read(backup, txn, session, backup_box)
                )
                while True:
                    if primary_proc.triggered and primary_box.exc is None:
                        return primary_box.result
                    if backup_proc.triggered and backup_box.exc is None:
                        faults.hedge_wins += 1
                        if not primary_proc.triggered:
                            # The backup answered while the primary was
                            # still silent past its hedge delay: latency
                            # evidence against the primary, fed to the
                            # detector so a fail-slow site accrues
                            # suspicion even though its RPCs eventually
                            # succeed within the hard deadline.
                            faults.detector.report_timeout(primary.index)
                        return backup_box.result
                    if primary_proc.triggered and backup_proc.triggered:
                        raise primary_box.exc
                    yield env.any_of([
                        proc for proc in (primary_proc, backup_proc)
                        if not proc.triggered
                    ])
        yield primary_proc
        if primary_box.exc is not None:
            raise primary_box.exc
        return primary_box.result


class _HedgeBox:
    """Out-of-band result slot for one hedged-read racer."""

    __slots__ = ("result", "exc")

    def __init__(self):
        self.result = None
        self.exc = None
