"""Replicated site selector (paper Appendix I).

The standalone site selector can be replicated for scalability: replica
selectors hold a possibly-stale copy of the partition -> master map and
route transactions locally when they believe the write set is already
single-sited; anything needing remastering falls back to the master
selector. Because a replica's map may be stale, the data site verifies
mastership at execution time and aborts the transaction if it no longer
masters a write-set partition; aborted transactions are resubmitted to
the master selector, which remasters if necessary.

Since the master selector performs all remastering, correctness is
unchanged; and because remastering is rare, replica staleness (and the
aborts it causes) is rare too — the property the appendix argues makes
this design practical.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.site_selector import RouteResult, SiteSelector
from repro.sim.resources import Resource
from repro.systems.base import ROUTE_LOOKUP_MS, SELECTOR_CORES, Cluster, Session
from repro.transactions import Transaction


class ReplicaSelector:
    """A read-mostly replica of the site selector's metadata.

    The replica refreshes its partition map lazily: once
    ``refresh_interval_ms`` of simulated time has passed, the next
    routing request pulls a fresh snapshot from the master selector
    (modelling the appendix's asynchronous metadata replication).
    """

    def __init__(
        self,
        master: SiteSelector,
        cluster: Cluster,
        refresh_interval_ms: float = 5.0,
    ):
        self.master = master
        self.cluster = cluster
        self.env = cluster.env
        self.cpu = Resource(self.env, SELECTOR_CORES)
        self.refresh_interval_ms = refresh_interval_ms
        self._map: Dict[int, int] = master.table.snapshot()
        self._refreshed_at = self.env.now
        self.local_routes = 0
        self.forwarded_routes = 0
        self.stale_aborts = 0

    def _refresh(self) -> None:
        self._map = self.master.table.snapshot()
        self._refreshed_at = self.env.now

    def _route_local(self, txn: Transaction) -> Optional[RouteResult]:
        """Try to route from the replica's own map (no locks taken).

        Returns None when the write set looks distributed — the caller
        must then forward to the master selector.
        """
        if self.env.now - self._refreshed_at >= self.refresh_interval_ms:
            self._refresh()
        partitions = sorted(self.master.scheme.partitions_of(txn.write_set))
        believed = {self._map.get(partition) for partition in partitions}
        if len(believed) != 1 or None in believed:
            return None
        site = believed.pop()
        self.cluster.activity.begin(site, partitions)
        self.local_routes += 1
        # Replica-local routes bypass the master selector; record them
        # in its ledger so locality share covers every routed update.
        ledger = self.master.ledger
        if ledger is not None:
            ledger.route(self.env.now, site, 0)
        return RouteResult(site, None, tuple(partitions), False)

    def submit_update(self, txn: Transaction, session: Session):
        """Route and execute an update with abort-and-resubmit.

        Generator returning ``(tvv, retries)``: the commit vector and
        how many stale-metadata aborts occurred along the way.
        """
        retries = 0
        while True:
            yield from self.cpu.use(ROUTE_LOOKUP_MS)
            optimistic = retries == 0
            route = self._route_local(txn) if optimistic else None
            if route is None:
                # Unknown/distributed masters, or a retry after an
                # abort: the master selector is authoritative.
                optimistic = False
                self.forwarded_routes += 1
                route = yield from self.master.route_update(txn, session)
            site = self.cluster.sites[route.site]
            min_vv = (
                session.cvv
                if route.min_vv is None
                else route.min_vv.element_max(session.cvv)
            )
            tvv = yield from site.execute_update(
                txn,
                min_vv,
                partitions=route.partitions,
                verify_mastership=optimistic,
            )
            if tvv is not None:
                return tvv, retries
            # Stale metadata: the site refused the optimistic route.
            self.stale_aborts += 1
            retries += 1
            self._refresh()
