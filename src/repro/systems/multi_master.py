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

from repro.faults.errors import FaultError
from repro.partitioning.schemes import PartitionScheme
from repro.sites.messages import RetryPolicy, guarded_call, remote_call
from repro.systems.base import Cluster, Session, System
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
            faults = self.cluster.faults
            if faults is None:
                site_index = self.choose_fresh_site(session, self._read_rng)
                yield from self.client_hop(txn)  # router -> client
                begin = yield from remote_call(
                    self.network,
                    self.sites[site_index].execute_read(txn, min_begin=session.cvv),
                    category="client",
                    txn=txn,
                )
                session.observe(begin)
                return Outcome(committed=True)
            # Re-choose a (healthy) replica on every retry.
            policy = RetryPolicy(faults.rpc, faults.rng)
            for attempt in range(policy.attempts):
                site_index = self.choose_fresh_site(session, self._read_rng)
                yield from self.client_hop(txn)  # router -> client
                site = self.sites[site_index]
                try:
                    begin = yield from guarded_call(
                        self.network,
                        site,
                        site.execute_read(txn, min_begin=session.cvv),
                        category="client",
                        txn=txn,
                    )
                except FaultError as exc:
                    if attempt + 1 >= policy.attempts:
                        return Outcome(
                            committed=False, retries=attempt, abort_reason=exc.reason
                        )
                    yield self.env.timeout(policy.backoff_ms(attempt))
                    continue
                session.observe(begin)
                return Outcome(committed=True, retries=attempt)

        outcome = yield from submit_partitioned_write(
            self, txn, session, min_begin=session.cvv
        )
        return outcome
