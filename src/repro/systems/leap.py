"""The LEAP comparator (Lin et al., SIGMOD 2016; paper §VI-A.1).

LEAP guarantees single-site execution like DynaMast but on a
partitioned multi-master store *without* replication: before a
transaction runs, every record in its read and write sets is
*localized* — physically shipped from its current owner to the
execution site, which becomes the new owner. There are no replicas to
absorb reads and no adaptive routing, so hot records ping-pong between
sites and read-only transactions (scans especially) pay large
data-transfer costs — the behaviours the paper measures (§VI-B1/B2).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.partitioning.schemes import PartitionScheme
from repro.sites.messages import guarded_call, site_process, with_retries
from repro.storage.locks import LockTable
from repro.systems.base import Cluster, Session, System
from repro.transactions import Key, Outcome, Transaction


class LEAP(System):
    """Single-site execution via record shipping, no replicas."""

    name = "leap"
    replicated = False

    def __init__(self, cluster: Cluster, scheme: PartitionScheme, placement: Dict[int, int]):
        super().__init__(cluster)
        self.scheme = scheme
        self.placement = placement
        cluster.place_partitions(placement)
        #: Memoized key -> partition lookups (pure per run). LEAP ships
        #: records, so it resolves every scanned key on its own, and
        #: scans revisit the same keys constantly: replayed over a
        #: leap-ycsb run the memo saves 7 % of its wall (DESIGN.md §8).
        self._partitions: Dict[Key, object] = {}
        #: Record-granularity ownership; keys start at their partition's site.
        self._owners: Dict[Key, int] = {}
        #: Router-level locks serializing conflicting localizations.
        self._migration_locks = LockTable(self.env)
        self.localizations = 0
        self.records_shipped = 0

    def owner_of(self, key: Key) -> int:
        """Current owner of ``key`` (static tables read locally anywhere)."""
        owner = self._owners.get(key)
        if owner is not None:
            return owner
        partition = self.scheme.partition(key)
        if partition is None:
            return -1  # static, replicated everywhere
        return self.placement[partition]

    def submit(self, txn: Transaction, session: Session):
        """Localize every record at the client's site, then run there.

        Under faults there is no failover: the execution site is fixed
        by the client and every record must ship from its single owner,
        so a crash of either aborts the transaction after bounded
        retries (LEAP's lack of replicas is precisely what the paper's
        availability comparison punishes).
        """
        yield from self.client_hop(txn)  # client -> router
        yield from self.router_cpu.use(self.config.costs.route_lookup_ms,
                                       txn=txn, track="router")

        cache = self._partitions
        partition_of = self.scheme.partition
        keys = []
        for key in txn.all_keys():
            try:
                partition = cache[key]
            except KeyError:
                partition = cache[key] = partition_of(key)
            if partition is not None:
                keys.append(key)
        # LEAP has no routing strategies (§VI-B2): a transaction runs at
        # the site its client is connected to, and every record it
        # touches is localized there first. This is what makes LEAP
        # "continually transfer data between sites" when clients at
        # different sites share data.
        execution_site = txn.client_id % self.cluster.num_sites

        shipped = False
        retries = 0
        # Inlined owner_of: every key here is non-static, so the owner
        # is the migrated owner if any, else its partition's home site.
        owners = self._owners
        placement = self.placement
        remote_keys = []
        for key in keys:
            owner = owners.get(key)
            if owner is None:
                owner = placement[cache[key]]
            if owner != execution_site:
                remote_keys.append(key)
        if remote_keys:
            # Serialize conflicting migrations of the same records.
            yield from self._migration_locks.acquire_all(remote_keys)
            try:
                # Re-resolve under the locks: a concurrent transaction
                # may have localized some of these keys meanwhile.
                transfers: Dict[int, List[Key]] = {}
                for key in remote_keys:
                    owner = self.owner_of(key)
                    if owner != execution_site:
                        transfers.setdefault(owner, []).append(key)
                if transfers:
                    shipped = True
                    self.localizations += 1
                    groups = [
                        (source, tuple(group))
                        for source, group in sorted(transfers.items())
                    ]
                    # Every group ships in parallel. A group changes
                    # owner only once its whole chain succeeded, so an
                    # abort leaves no group half-moved.
                    results = yield self.env.all_of([
                        self.env.process(with_retries(
                            self.network,
                            lambda s=source, g=group: self._localize(
                                s, g, execution_site, txn
                            ),
                        ))
                        for source, group in groups
                    ])
                    error = None
                    for (_, group), (_, tries, failure) in zip(groups, results):
                        retries += tries
                        if failure is None:
                            self._take(group, execution_site)
                        elif error is None:
                            error = failure
                    if error is not None:
                        return Outcome(
                            committed=False,
                            remastered=True,
                            retries=retries,
                            abort_reason=error.reason,
                        )
            finally:
                self._migration_locks.release_all(remote_keys)

        yield from self.client_hop(txn)  # router -> client
        site = self.sites[execution_site]
        _, tries, error = yield from with_retries(
            self.network,
            lambda: guarded_call(
                self.network,
                site,
                site.execute_read(txn) if txn.is_read_only else site.execute_update(txn),
                category="client",
                txn=txn,
            ),
        )
        retries += tries
        if error is not None:
            return Outcome(
                committed=False,
                remastered=shipped,
                retries=retries,
                abort_reason=error.reason,
            )
        return Outcome(committed=True, remastered=shipped, retries=retries)

    def _take(self, group, site: int) -> None:
        """Record ``site`` as the owner of the shipped ``group``."""
        for key in group:
            self._owners[key] = site
            self.records_shipped += 1

    def _localize(self, source: int, group: Tuple[Key, ...], destination: int, txn: Transaction):
        """Ship ``group`` from ``source`` to ``destination``: a guarded
        ship-out, the data transfer, then installation at the
        destination (crash-raced there)."""
        payload = yield from guarded_call(
            self.network,
            self.sites[source],
            self.sites[source].ship_out(group),
            category="ship",
            txn=txn,
        )
        delay = self.network.delay_for(payload)
        self.network.traffic.record("ship", payload)
        yield self.env.timeout(delay)
        txn.add_timing("network", delay)
        site = self.sites[destination]
        yield from site_process(site, site.install_shipment(group))
