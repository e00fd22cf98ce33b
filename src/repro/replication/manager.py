"""Refresh-transaction application (paper §V-A2).

A site's replication manager subscribes to every *other* site's durable
log and applies each incoming record as a refresh transaction:

1. block until the update application rule (Equation 1) admits the
   record — every transaction it depends on has been applied locally
   and records from its origin are applied in commit order;
2. create the new record versions (consuming refresh CPU);
3. make the updates visible by advancing ``svv[origin]`` and waking any
   transaction or grant blocked on the site's version.

Release/grant markers flow through the same path as empty refreshes, so
a remastering operation's increment of the releasing site's version
vector propagates to every replica — the property the SI proof's Case 2
relies on.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict, List

from repro.faults.errors import FaultError, SiteDown
from repro.replication.log import DurableLog, LogRecord
from repro.versioning.vectors import can_apply_refresh

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sites.data_site import DataSite

#: Per-record cost to apply a refresh transaction at a replica, in
#: simulated ms (version installation only - no transaction logic,
#: locks, or index lookups, so far cheaper than an original write).
REFRESH_OP_MS = 0.004
#: Fixed cost to apply a refresh transaction (dequeue, rule check).
REFRESH_BASE_MS = 0.01


def refresh_ms(writes: int) -> float:
    """CPU time to apply a refresh transaction with ``writes`` records."""
    return REFRESH_BASE_MS + writes * REFRESH_OP_MS


class ReplicationManager:
    """Applies refresh transactions at one data site."""

    def __init__(self, site: "DataSite"):
        self.site = site
        #: Refresh transactions applied, by origin site.
        self.applied_by_origin: Dict[int, int] = {}
        #: Total records applied (updates + markers).
        self.applied = 0
        self._drainers: List = []
        #: Delivery queues, one per subscribed origin (depth probe).
        self.queues: List = []
        #: The logs backing ``queues``, index-aligned (for unsubscribe).
        self._logs: List[DurableLog] = []

    def subscribe_to(self, log: DurableLog, from_seq=None) -> None:
        """Start draining ``log`` (must belong to a different site)."""
        if log.origin == self.site.index:
            raise ValueError("a site does not subscribe to its own log")
        queue = log.subscribe(from_seq=from_seq)
        self.queues.append(queue)
        self._logs.append(log)
        self._drainers.append(self.site.env.process(self._drain(queue)))

    def shutdown(self) -> None:
        """Tear down all streams (the site crashed).

        Interrupts the drainer processes (their ``finally`` blocks
        release any CPU core they hold) and detaches the delivery
        queues from the durable logs so no further records pile up in
        dead queues.
        """
        for drainer in self._drainers:
            if drainer.is_alive:
                drainer.interrupt(SiteDown(self.site.index))
        for log, queue in zip(self._logs, self.queues):
            log.unsubscribe(queue)
        self._drainers.clear()
        self.queues.clear()
        self._logs.clear()

    def resubscribe(self, sites, from_vector) -> None:
        """Re-attach to every peer log after a restart.

        ``from_vector`` is the site version vector the recovery replay
        established; each stream resumes from its origin's component,
        so records already reflected in the replayed state are not
        re-delivered and no record is skipped.
        """
        for other in sites:
            if other is not self.site and self.site.replicated and other.replicated:
                self.subscribe_to(other.log, from_seq=from_vector[other.log.origin])

    def queue_depth(self) -> int:
        """Records delivered but not yet picked up by the drainers.

        Batches already pulled into a drainer's working set are not
        counted; the probe tracks backlog at the inbox.
        """
        return sum(len(queue) for queue in self.queues)

    def _drain(self, queue):
        """One long-lived process applying records from a single origin.

        Application is batched: once a CPU core is acquired, every
        consecutively-admissible queued record is applied under the
        same hold. Without batching, a busy site would pay a full CPU
        queueing delay per record and replicas would fall behind
        exactly when the system is loaded.
        """
        site = self.site
        pending = deque()
        try:
            yield from self._drain_loop(site, queue, pending)
        except FaultError:
            # The site crashed under us (shutdown() interrupt). The
            # inner finally already released any held core; just stop.
            return

    def _drain_loop(self, site, queue, pending):
        while True:
            if not pending:
                pending.append((yield queue.get()))
            queue.drain_into(pending)
            # Records carry their tvv as a plain tuple; can_apply_refresh
            # consumes it directly, so no VersionVector is allocated per
            # delivered record. A head Equation 1 already admits is
            # applied without waiting a scheduling turn on the watch.
            head = pending[0].tvv
            head_origin = pending[0].origin
            if not can_apply_refresh(site.svv, head, head_origin):
                yield site.watch.wait_until(
                    lambda: can_apply_refresh(site.svv, head, head_origin)
                )
            request = site.cpu.request()
            yield request
            env = site.env
            apply_started = env._now
            applied_before = self.applied
            # Locals for the batch body: one refresh per committed
            # update flows through here at every replica. The generator
            # is interrupted on a crash and re-created on resubscribe,
            # so these can never go stale across a restart. Writing the
            # svv slot through .counts skips __setitem__'s >= 0 check
            # (commit sequences are always >= 1).
            svv = site.svv
            svv_counts = svv.counts
            install_many = site.database.install_many
            notify = site.watch.notify
            timeout = env.timeout
            applied_by_origin = self.applied_by_origin
            try:
                while pending:
                    record: LogRecord = pending[0]
                    origin = record.origin
                    if not can_apply_refresh(svv, record.tvv, origin):
                        break
                    keys = record.keys
                    yield timeout(refresh_ms(len(keys)))
                    if keys:
                        install_many(keys, origin, record.seq)
                    svv_counts[origin] = record.seq
                    self.applied += 1
                    try:
                        applied_by_origin[origin] += 1
                    except KeyError:
                        applied_by_origin[origin] = 1
                    notify()
                    pending.popleft()
                    queue.drain_into(pending)
            finally:
                site.cpu.release(request)
                tracer = site.env.obs.tracer
                if tracer.enabled and self.applied > applied_before:
                    tracer.span(
                        "refresh_apply", apply_started, site.env.now,
                        track=site.trace_track,
                        origin=head_origin,
                        records=self.applied - applied_before,
                    )
