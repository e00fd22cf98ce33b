"""The replicated multi-master comparator (paper §VI-A.1).

Each partition has a fixed master site (an offline placement, e.g.
range or warehouse partitioning confirmed by Schism); updates execute
on master copies and propagate lazily to every replica, so read-only
transactions may run at any session-fresh site. Write sets spanning
master sites require two-phase commit, with all its round trips and
uncertainty-window blocking.
"""

from __future__ import annotations

from typing import Dict

from repro.partitioning.schemes import PartitionScheme
from repro.sites.messages import guarded_call, with_retries
from repro.systems.base import Cluster, Session, System, choose_fresh_site
from repro.systems.two_phase_commit import submit_partitioned_write
from repro.transactions import Outcome, Transaction


class MultiMaster(System):
    """Statically partitioned mastership over full replicas."""

    name = "multi-master"
    replicated = True

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
        self._read_rng = cluster.streams.stream("read-routing")

    def submit(self, txn: Transaction, session: Session):
        yield from self.client_hop(txn)  # client -> router
        yield from self.router_cpu.use(self.config.costs.route_lookup_ms,
                                       txn=txn, track="router")

        if txn.is_read_only:

            def read():
                # Re-choose a (healthy) replica on every retry.
                site = self.sites[
                    choose_fresh_site(self.cluster, session, self._read_rng)
                ]
                yield from self.client_hop(txn)  # router -> client
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

        outcome = yield from submit_partitioned_write(
            self, txn, session, min_begin=session.cvv
        )
        return outcome
