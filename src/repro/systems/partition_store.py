"""The partition-store comparator (paper §VI-A.1).

A partitioned multi-master database *without* replication: each site
holds only the partitions it masters (plus static read-only tables,
which are replicated). Distributed writes use 2PC. Multi-partition
read-only transactions must scatter-gather across owner sites and are
subject to the straggler effect — the slowest site's response time
determines their latency (§VI-B2).
"""

from __future__ import annotations

from typing import Dict, List

from repro.partitioning.schemes import PartitionScheme
from repro.sites.messages import guarded_call, with_retries
from repro.systems.base import ROUTE_LOOKUP_MS, Cluster, Session, System
from repro.systems.two_phase_commit import submit_partitioned_write
from repro.transactions import Key, Outcome, ScanBlock, Transaction


class PartitionStore(System):
    """Partitioned, unreplicated, 2PC writes, scatter-gather reads."""

    name = "partition-store"
    replicated = False

    def __init__(
        self,
        cluster: Cluster,
        scheme: PartitionScheme,
        placement: Dict[int, int],
        unit_of=None,
    ):
        super().__init__(cluster)
        self.scheme = scheme
        self.placement = placement
        #: Coordination granule (see Workload.placement_unit_of).
        self.unit_of = unit_of or scheme.partition
        cluster.place_partitions(placement)
        #: Multi-unit read-only transactions executed (straggler stat).
        self.scatter_gather_reads = 0

    def submit(self, txn: Transaction, session: Session):
        yield from self.client_hop(txn)  # client -> router
        yield from self.router_cpu.use(ROUTE_LOOKUP_MS, txn=txn, track="router")

        if txn.is_read_only:
            outcome = yield from self._submit_read(txn)
            return outcome
        outcome = yield from submit_partitioned_write(
            self, txn, session, min_begin=None
        )
        return outcome

    def _group_by_unit(self, txn: Transaction):
        """``(unit, point reads, scan blocks)`` per placement unit the
        read touches, in unit order.

        A scan block lies inside one unit, so its first key resolves
        it. Static-table keys join the first dynamic unit's point
        reads (unit 0 when there is no dynamic unit).
        """
        reads: Dict[int, List[Key]] = {}
        scans: Dict[int, List[ScanBlock]] = {}
        static: List[Key] = []
        unit_of = self.unit_of
        for key in txn.read_set:
            unit = unit_of(key)
            if unit is None:
                static.append(key)
            else:
                reads.setdefault(unit, []).append(key)
        for block in txn.scan_set:
            unit = unit_of(block[0])
            if unit is None:
                static.extend(block)
            else:
                scans.setdefault(unit, []).append(block)
        units = sorted(set(reads) | set(scans))
        if units:
            reads.setdefault(units[0], []).extend(static)
        elif static:
            reads[0] = static
            units = [0]
        return [
            (unit, tuple(reads.get(unit, ())), tuple(scans.get(unit, ())))
            for unit in units
        ]

    def _submit_read(self, txn: Transaction):
        """Route reads to owning units; fan out if they span units."""
        groups = self._group_by_unit(txn)
        yield from self.client_hop(txn)  # router -> client
        if len(groups) <= 1:
            unit = groups[0][0] if groups else 0
            _, tries, error = yield from self._guarded_read(
                txn, self.placement.get(unit, 0), None, None
            )
            return _read_outcome(False, tries, error)

        # Scatter-gather: one sub-read per unit, wait for the slowest
        # (the straggler effect of §VI-B2).
        self.scatter_gather_reads += 1
        results = yield self.env.all_of([
            self.env.process(
                self._guarded_read(txn, self.placement[unit], keys, blocks)
            )
            for unit, keys, blocks in groups
        ])
        error = next((error for _, _, error in results if error is not None), None)
        return _read_outcome(True, sum(tries for _, tries, _ in results), error)

    def _guarded_read(self, txn: Transaction, site_index: int, keys, scans):
        """One sub-read ``(keys, scans)`` at ``site_index`` with bounded
        retries; ``keys=None`` reads the whole transaction there.

        There is no owner to fail over to: the sub-read must succeed at
        its unit's only copy. Returns :func:`with_retries`' generator.
        """
        site = self.sites[site_index]
        return with_retries(
            self.network,
            lambda: guarded_call(
                self.network, site,
                site.execute_read(txn, keys=keys, scans=scans),
                category="client", txn=txn,
            ),
        )


def _read_outcome(distributed: bool, retries: int, error) -> Outcome:
    """A read's outcome; ``error`` is the fault that ended a sub-read."""
    return Outcome(
        committed=error is None,
        distributed=distributed,
        retries=retries,
        abort_reason="" if error is None else error.reason,
    )
