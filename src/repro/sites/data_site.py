"""A data site: site manager, database, and replication manager.

All methods that do timed work are generators meant to be driven from a
simulated process (optionally behind :func:`repro.sites.messages.remote_call`).
They consume this site's CPU resource, so a site saturated with update
transactions queues work exactly like the paper's single-master
bottleneck.

The site implements:

* local update execution and commit (assigning transaction version
  vectors, appending to the durable log — §III-A, §V-A2);
* read-only execution at a snapshot (§IV-B);
* the ``release`` / ``grant`` halves of the remastering protocol
  (§III-B, Algorithm 1);
* 2PC participant branches used by the multi-master and
  partition-store comparators (§VI-A.1);
* record shipping used by the LEAP comparator.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Set, Tuple

from repro.faults.errors import REASON_TIMEOUT, SiteDown, TransactionAborted
from repro.replication.log import GRANT, RELEASE, UPDATE, DurableLog, LogRecord
from repro.replication.manager import ReplicationManager
from repro.sim.config import ClusterConfig
from repro.sim.core import Environment, Event
from repro.sim.network import Network
from repro.sim.resources import Resource
from repro.sites.activity import PartitionActivity
from repro.storage.database import MAX_VERSIONS, Database
from repro.storage.locks import LockTable
from repro.transactions import Transaction
from repro.versioning.vectors import VersionVector
from repro.versioning.watch import VersionWatch


# The cost model: per-operation CPU costs in simulated milliseconds,
# shared by every comparator (paper §VI).

#: Fixed cost to begin one transaction branch at a site: request
#: dispatch/unmarshalling, snapshot setup, lock bookkeeping. Charged
#: per participating site, so scatter-gather reads and multi-branch
#: 2PC writes pay it once per shard.
TXN_BEGIN_MS = 0.15
#: Fixed cost to commit (log record construction, version stamping).
TXN_COMMIT_MS = 0.05
#: Point read of one record.
READ_OP_MS = 0.02
#: Write of one record (new version creation).
WRITE_OP_MS = 0.05
#: Per-record cost inside a range scan (in-memory sequential read).
SCAN_OP_MS = 0.001
#: 2PC prepare work at a participant (force-log the prepare record).
PREPARE_MS = 0.4
#: 2PC commit/abort record processing at a participant.
DECIDE_MS = 0.1
#: Site-manager work to release mastership of one partition.
RELEASE_MS = 0.01
#: Site-manager work to take mastership of one partition.
GRANT_MS = 0.01
#: Per-record cost to migrate a record between owners (LEAP data
#: shipping): index removal + packing at the source, unpacking +
#: index insertion at the destination.
MARSHAL_OP_MS = 0.025

# Wire sizes in bytes for the traffic accounting.

#: Payload bytes per record shipped or replicated.
RECORD_BYTES = 100
#: Fixed bytes per RPC request/response.
RPC_OVERHEAD_BYTES = 64
#: Bytes of a version vector entry.
VECTOR_ENTRY_BYTES = 8

#: Delay between a commit and its update record reaching subscribers
#: (the Kafka hop, paper §V-A2). Kept below a client's reply+request
#: round trip so replicas are usually session-fresh by the time the
#: writing client's next transaction arrives (§VI-B2).
LOG_DELIVERY_MS = 0.3


def execution_ms(reads: int, writes: int, scanned: int) -> float:
    """CPU time for the execution phase of a transaction."""
    return reads * READ_OP_MS + writes * WRITE_OP_MS + scanned * SCAN_OP_MS


def update_record_bytes(writes: int, sites: int) -> int:
    """Size of one replicated update record."""
    return RPC_OVERHEAD_BYTES + writes * RECORD_BYTES + sites * VECTOR_ENTRY_BYTES


class MastershipError(Exception):
    """A site asked to release a partition it does not master, or to
    gain one that a live peer still masters."""


class DataSite:
    """One simulated data-site machine."""

    def __init__(
        self,
        env: Environment,
        index: int,
        num_sites: int,
        config: ClusterConfig,
        network: Network,
        activity: PartitionActivity,
        replicated: bool = True,
        row_index: Optional[dict] = None,
    ):
        self.env = env
        self.index = index
        #: This site's track in a trace, formatted once: the tracer
        #: hooks below run per span.
        self.trace_track = f"site{index}"
        self.num_sites = num_sites
        self.config = config
        self.network = network
        self.activity = activity
        #: Whether this site participates in lazy replication (the
        #: partition-store and LEAP comparators do not).
        self.replicated = replicated

        self.svv = VersionVector.zeros(num_sites)
        self.watch = VersionWatch(env, self.svv)
        self.cpu = Resource(env, config.cores_per_site)
        # ``row_index``: the replica group's key -> row-number maps, or
        # None for maps of this site's own (a partitioned cluster).
        self.database = Database(env, MAX_VERSIONS, row_index=row_index)
        self.log = DurableLog(
            env,
            index,
            delivery_delay_ms=LOG_DELIVERY_MS,
            network=network if replicated else None,
            record_size=lambda record: update_record_bytes(
                len(record.keys), num_sites
            ),
        )
        self.replication = ReplicationManager(self)
        #: Partition ids whose master copy lives here.
        self.mastered: Set[int] = set()
        #: Every site of the cluster, this one included (set by
        #: :meth:`connect`); a gain is checked against their mastered sets.
        self._peers: Sequence["DataSite"] = ()
        self.commits = 0
        self.read_txns = 0

        # -- failure lifecycle (only exercised under fault injection) --
        #: False between a crash and the completed restart.
        self.alive = True
        #: Incremented on every crash; lets late observers notice that
        #: the machine they were talking to is a different incarnation.
        self.epoch = 0
        #: Pending event that triggers when this incarnation crashes.
        #: Creating an Event schedules nothing, so keeping one around
        #: permanently is free for unfaulted runs.
        self.crash_event = Event(env)
        #: RPC handler processes currently executing on this machine;
        #: a crash interrupts them so their cleanup runs before the
        #: volatile state is discarded.
        self._inflight: Set = set()
        #: (txn id, branch keys) of 2PC branches holding locks here
        #: (between rounds). Keyed per branch, not per txn: a txn whose
        #: units co-locate has several branches at this site, each
        #: holding (and releasing) its own keys.
        self._branch_locked: Set = set()
        #: Commit vectors of decided branches, for idempotent retries.
        self._branch_results = {}
        #: Txn ids presumed-aborted here; poisons a still-queued branch
        #: execution so an abandoned dispatch cannot grab locks after
        #: the coordinator already gave up on the transaction.
        self._branch_aborted: Set = set()

    # -- wiring ---------------------------------------------------------------

    def connect(self, sites: Sequence["DataSite"]) -> None:
        """Subscribe this site's replication manager to every other log."""
        self._peers = sites
        for other in sites:
            if other is not self and self.replicated and other.replicated:
                self.replication.subscribe_to(other.log)

    # -- failure lifecycle ----------------------------------------------------

    def track(self, proc) -> None:
        """Register an in-flight handler process for crash interruption."""
        self._inflight.add(proc)
        inflight = self._inflight

        def _done(_event, proc=proc):
            inflight.discard(proc)

        proc.callbacks.append(_done)

    def crash(self) -> None:
        """Fail-stop this machine (fault injection only).

        Order matters: the crash event is scheduled first (so anything
        racing a handler against it observes the crash), then every
        in-flight handler is interrupted *synchronously* — their
        ``finally`` blocks release locks, CPU slots, and activity
        registrations against the pre-crash structures — and only then
        is the volatile state discarded. The durable log survives (it
        lives on the log service, not this machine), as does, for the
        non-replicated comparators, the locally-durable record store.
        """
        if not self.alive:
            return
        self.alive = False
        self.crash_event.succeed()
        for proc in list(self._inflight):
            proc.interrupt(SiteDown(self.index))
        self._inflight.clear()
        self.replication.shutdown()
        # Volatile state dies with the machine.
        self.cpu = Resource(self.env, self.config.cores_per_site)
        self._branch_locked.clear()
        self._branch_results.clear()
        self._branch_aborted.clear()
        if self.replicated:
            # In-memory MVCC store: rebuilt from the durable logs on
            # restart (paper §V-C).
            # The group's row numbers outlive the replica.
            self.database = Database(
                self.env, MAX_VERSIONS, row_index=self.database.row_index
            )
            self.svv = VersionVector.zeros(self.num_sites)
            self.watch = VersionWatch(self.env, self.svv)
            self.mastered = set()
        else:
            # Partition-store / LEAP model a locally durable store:
            # record state survives; the lock table is volatile.
            self.database.locks = LockTable(self.env)
        self.activity.clear_site(self.index)
        self.epoch += 1

    def complete_restart(self, database, svv, mastered) -> None:
        """Install recovered state and come back online.

        Called by :func:`repro.replication.recovery.rejoin_site` after
        the (CPU-charged) log replay finished; the caller re-subscribes
        the replication manager from ``svv`` afterwards.
        """
        self._check_gain(mastered)
        self.database = database
        self.svv = svv
        self.watch = VersionWatch(self.env, svv)
        self.mastered = set(mastered)
        self.commits = self.log.update_count
        self.crash_event = Event(self.env)
        self.alive = True

    # -- local transaction execution ---------------------------------------

    def execute_update(
        self,
        txn: Transaction,
        min_begin: Optional[VersionVector] = None,
        partitions: Iterable[int] = (),
        token=None,
    ):
        """Execute and commit an update transaction locally.

        ``min_begin`` is the minimum version the transaction must
        observe (the element-wise max of grant vectors and the client's
        session vector). ``partitions`` are the write-set partitions
        for activity deregistration at commit, and ``token`` the
        activity registration to deregister (fault-aware routers pass
        a per-attempt token so a retried transaction cannot clobber
        another attempt's registration).

        Returns the transaction version vector (commit timestamp).
        """
        partitions = tuple(partitions)
        env = self.env
        tracer = env.obs.tracer
        traced = tracer.enabled
        track = self.trace_track if traced else ""
        started = env._now
        if min_begin is not None and not self.svv.dominates(min_begin):
            if traced:
                self._refresh_lag(tracer, txn, track, min_begin)
            yield self.watch.wait_for(min_begin)
        txn.add_timing("freshness_wait", env._now - started)
        if traced:
            tracer.span("freshness_wait", started, env._now, track=track, txn=txn)

        lock_started = env._now
        yield from self.database.locks.acquire_all(txn.write_set, txn)
        txn.add_timing("lock_wait", env._now - lock_started)
        if traced:
            tracer.span("lock_wait", lock_started, env._now, track=track, txn=txn)
        try:
            begin_started = env._now
            yield from self.cpu.use(TXN_BEGIN_MS, txn=txn, track=track)
            begin_vv = self.svv.copy()
            txn.add_timing("begin", env._now - begin_started)
            if traced:
                tracer.span("begin", begin_started, env._now, track=track, txn=txn)

            execute_started = env._now
            service = execution_ms(
                len(txn.read_set), len(txn.write_set), txn.scan_count
            )
            yield from self.cpu.use(service + txn.extra_cpu_ms, txn=txn, track=track)
            for key in txn.read_set:
                self.database.read(key, begin_vv)
            txn.add_timing("execute", env._now - execute_started)
            if traced:
                tracer.span("execute", execute_started, env._now, track=track, txn=txn)

            commit_started = env._now
            yield from self.cpu.use(TXN_COMMIT_MS, txn=txn, track=track)
            tvv = self._commit(txn, begin_vv)
            txn.add_timing("commit", env._now - commit_started)
            if traced:
                tracer.span("commit", commit_started, env._now, track=track, txn=txn)
        finally:
            self.database.locks.release_all(txn.write_set)
            if partitions:
                self.activity.finish(self.index, partitions, token)
        return tvv

    def _refresh_lag(self, tracer, txn, track, min_begin) -> None:
        """Record which lagging replication origins a snapshot waits on.

        Called (traced runs only) just before blocking on the version
        watch: each ``(origin, have, need)`` names a pending update
        stream this site must apply before the transaction may begin.
        """
        lagging = tuple(
            (origin, self.svv[origin], min_begin[origin])
            for origin in range(self.num_sites)
            if self.svv[origin] < min_begin[origin]
        )
        tracer.instant("refresh_wait", self.env._now, txn=txn, track=track,
                       lagging=lagging)

    def _commit(self, txn: Transaction, begin_vv: VersionVector) -> VersionVector:
        """Assign the commit timestamp, install versions, append to the log."""
        seq = self.svv.increment(self.index)
        tvv = begin_vv  # the begin vector with this site's slot bumped
        tvv[self.index] = seq
        keys = txn.write_set
        self.database.install_many(keys, self.index, seq)
        self.log.append(LogRecord(UPDATE, self.index, tvv.to_tuple(), keys))
        self.commits += 1
        self.watch.notify()
        return tvv

    def execute_read(
        self,
        txn: Transaction,
        min_begin: Optional[VersionVector] = None,
        keys: Optional[Tuple] = None,
        scans: Optional[Tuple] = None,
    ):
        """Execute a read-only transaction at this site's snapshot.

        ``keys``/``scans`` restrict the access to a subset of the point
        reads / scan blocks (used by the partition-store's
        scatter-gather reads); by default the whole read and scan sets
        run here. Returns the begin vector the reads observed, for
        session maintenance.
        """
        env = self.env
        tracer = env.obs.tracer
        traced = tracer.enabled
        track = self.trace_track if traced else ""
        started = env._now
        if min_begin is not None and not self.svv.dominates(min_begin):
            if traced:
                self._refresh_lag(tracer, txn, track, min_begin)
            yield self.watch.wait_for(min_begin)
        txn.add_timing("freshness_wait", env._now - started)
        if traced:
            tracer.span("freshness_wait", started, env._now, track=track, txn=txn)

        read_keys = txn.read_set if keys is None else keys
        scanned = txn.scan_count if scans is None else sum(map(len, scans))
        execute_started = env._now
        yield from self.cpu.use(TXN_BEGIN_MS, txn=txn, track=track)
        begin_vv = self.svv.copy()
        service = execution_ms(len(read_keys), 0, scanned)
        yield from self.cpu.use(service + txn.extra_cpu_ms, txn=txn, track=track)
        for key in read_keys:
            self.database.read(key, begin_vv)
        txn.add_timing("execute", env._now - execute_started)
        if traced:
            tracer.span("execute", execute_started, env._now, track=track, txn=txn)
        self.read_txns += 1
        return begin_vv

    # -- remastering (paper §III-B) ------------------------------------------

    def release_mastership(self, partitions: Sequence[int]):
        """Release the master copies of ``partitions`` (the *release* RPC).

        Waits for in-flight writers on those partitions, bumps this
        site's version vector (the increment the SI proof relies on),
        durably logs the release, and returns the site version vector
        at the release point.

        Under fault injection a retried release may name partitions
        this site already let go of (the first attempt's reply was
        lost); those are skipped rather than rejected, and if nothing
        is left to release the current site vector — which necessarily
        covers the earlier release point — is returned without a new
        marker.
        """
        if self.network.faults is not None:
            partitions = [p for p in partitions if p in self.mastered]
            if not partitions:
                return self.svv.copy()
        else:
            for partition in partitions:
                if partition not in self.mastered:
                    raise MastershipError(
                        f"site {self.index} asked to release unmastered partition {partition}"
                    )
        quiesce_started = self.env._now
        quiesce = [self.activity.quiesced(self.index, p) for p in partitions]
        yield self.env.all_of(quiesce)
        yield from self.cpu.use(RELEASE_MS * len(partitions))
        self.mastered.difference_update(partitions)
        tracer = self.env.obs.tracer
        if tracer.enabled:
            tracer.span(
                "release_quiesce", quiesce_started, self.env._now,
                track=self.trace_track, partitions=len(partitions),
            )
        seq = self.svv.increment(self.index)
        # The marker is a no-op: it depends only on this site's own
        # prior records (FIFO), so its transaction vector carries just
        # the commit sequence. Any real update to the released items is
        # earlier in this log and carries its own dependencies.
        marker_tvv = tuple(
            seq if index == self.index else 0 for index in range(self.num_sites)
        )
        self.log.append(
            LogRecord(RELEASE, self.index, marker_tvv, partitions=tuple(partitions))
        )
        self.watch.notify()
        return self.svv.copy()

    def _check_gain(self, partitions: Iterable[int]) -> None:
        """Refuse to master ``partitions`` while a live peer still
        masters any of them: each partition has one master at a time.
        A crashed peer does not count; its restart is checked in turn."""
        for other in self._peers:
            if other is not self and other.alive:
                shared = other.mastered.intersection(partitions)
                if shared:
                    raise MastershipError(
                        f"site {self.index} gains {sorted(shared)} still "
                        f"mastered at live site {other.index}"
                    )

    def grant_mastership(
        self,
        partitions: Sequence[int],
        release_vv: VersionVector,
        source: Optional[int] = None,
    ):
        """Take mastership of ``partitions`` (the *grant* RPC).

        Blocks until this site has applied the releasing site's updates
        up to the point of the release (paper §III-B) — that is, until
        ``svv[source]`` reaches the release marker. Updates from other
        origins that those depended on are forced earlier by the update
        application rule, so a single-component wait suffices. Records
        the grant durably and returns this site's version vector at the
        time of ownership, which becomes part of the transaction's
        minimum begin version.
        """
        if source is not None:
            release_point = release_vv[source]
            if self.svv[source] < release_point:
                yield self.watch.wait_until(
                    lambda: self.svv[source] >= release_point
                )
        elif not self.svv.dominates(release_vv):
            yield self.watch.wait_for(release_vv)
        yield from self.cpu.use(GRANT_MS * len(partitions))
        self._check_gain(partitions)
        self.mastered.update(partitions)
        tracer = self.env.obs.tracer
        if tracer.enabled:
            tracer.instant(
                "mastership_grant", self.env._now, track=self.trace_track,
                partitions=len(partitions), source=source,
            )
        seq = self.svv.increment(self.index)
        # The grant marker declares a dependency on the release marker
        # (position ``source`` of its vector), so that log replay—and
        # refresh application everywhere—orders every remaster chain of
        # a partition exactly as the site selector serialized it.
        if source is not None:
            deps = [0] * self.num_sites
            deps[source] = release_vv[source]
        else:
            deps = list(release_vv)
        deps[self.index] = seq
        self.log.append(
            LogRecord(
                GRANT,
                self.index,
                tuple(deps),
                partitions=tuple(partitions),
                target=self.index,
            )
        )
        self.watch.notify()
        return self.svv.copy()

    # -- 2PC participant branches (multi-master / partition-store) ---------

    def execute_branch(
        self,
        txn: Transaction,
        keys: Tuple,
        min_begin: Optional[VersionVector] = None,
    ):
        """Round 1 of a distributed write: execute this site's branch.

        Acquires write locks on the local portion and executes it. The
        locks stay held — blocking conflicting transactions — through
        :meth:`prepare_branch` and until :meth:`commit_branch` or
        :meth:`abort_branch` arrives with the global decision; this
        blocking across the prepare/commit rounds is precisely the 2PC
        cost the paper measures against.
        """
        tracer = self.env.obs.tracer
        traced = tracer.enabled
        track = self.trace_track if traced else ""
        started = self.env._now
        if min_begin is not None and not self.svv.dominates(min_begin):
            if traced:
                self._refresh_lag(tracer, txn, track, min_begin)
            yield self.watch.wait_for(min_begin)
        txn.add_timing("freshness_wait", self.env._now - started)
        if traced:
            tracer.span("freshness_wait", started, self.env._now, track=track, txn=txn)
        lock_started = self.env._now
        yield from self.database.locks.acquire_all(keys, txn)
        if self.network.faults is not None and txn.txn_id in self._branch_aborted:
            # The coordinator presumed-aborted this transaction while
            # the branch was still queued; grabbing the locks now would
            # leak them forever.
            self.database.locks.release_all(keys)
            raise TransactionAborted(
                REASON_TIMEOUT, f"branch of {txn.txn_id} aborted before execution"
            )
        self._branch_locked.add((txn.txn_id, keys))
        txn.add_timing("lock_wait", self.env._now - lock_started)
        if traced:
            tracer.span("lock_wait", lock_started, self.env._now, track=track, txn=txn)
        execute_started = self.env._now
        yield from self.cpu.use(TXN_BEGIN_MS, txn=txn, track=track)
        begin_vv = self.svv.copy()
        share = len(keys) / max(1, len(txn.write_set))
        service = execution_ms(0, len(keys), 0) + txn.extra_cpu_ms * share
        yield from self.cpu.use(service, txn=txn, track=track)
        # Trace-only: branch execution is deliberately not added to the
        # metrics breakdown (it overlaps other branches of the same txn).
        if traced:
            tracer.span("branch_execute", execute_started, self.env._now,
                        track=track, txn=txn)
        return begin_vv

    def prepare_branch(self, txn: Transaction, keys: Tuple):
        """Round 2 of a distributed write: force-log the prepare record
        and vote yes. Locks remain held."""
        tracer = self.env.obs.tracer
        track = self.trace_track if tracer.enabled else ""
        started = self.env._now
        yield from self.cpu.use(PREPARE_MS, txn=txn, track=track)
        if tracer.enabled:
            tracer.span("branch_prepare", started, self.env._now,
                        track=track, txn=txn)
        return True

    def commit_branch(self, txn: Transaction, keys: Tuple, begin_vv: VersionVector):
        """Apply the global commit decision for this site's branch.

        Under fault injection the decision may be retried (the reply
        can be lost): a branch already committed returns its cached
        commit vector, and a branch lost in a crash returns None — the
        coordinator treats that as a lost branch, never as a redo.
        """
        if self.network.faults is not None:
            cached = self._branch_results.get((txn.txn_id, keys))
            if cached is not None:
                return cached
            if (txn.txn_id, keys) not in self._branch_locked:
                return None
        tracer = self.env.obs.tracer
        track = self.trace_track if tracer.enabled else ""
        branch_started = self.env._now
        yield from self.cpu.use(DECIDE_MS + TXN_COMMIT_MS, txn=txn, track=track)
        seq = self.svv.increment(self.index)
        tvv = begin_vv.copy()
        tvv[self.index] = seq
        self.database.install_many(keys, self.index, seq)
        self.log.append(LogRecord(UPDATE, self.index, tvv.to_tuple(), keys))
        self.commits += 1
        self.watch.notify()
        self._branch_locked.discard((txn.txn_id, keys))
        if self.network.faults is not None:
            self._branch_results[(txn.txn_id, keys)] = tvv
        self.database.locks.release_all(keys)
        if tracer.enabled:
            tracer.span("branch_commit", branch_started, self.env._now,
                        track=track, txn=txn)
        return tvv

    def abort_branch(self, txn: Transaction, keys: Tuple):
        """Apply a global abort: release locks without installing.

        Idempotent under fault injection: aborting a branch that never
        executed here (or was already decided, or died with a crash)
        is a no-op, so a coordinator can blanket-abort all branches.
        """
        if self.network.faults is not None:
            self._branch_aborted.add(txn.txn_id)
            if (txn.txn_id, keys) not in self._branch_locked:
                return
        yield from self.cpu.use(DECIDE_MS)
        self._branch_locked.discard((txn.txn_id, keys))
        self.database.locks.release_all(keys)

    # -- data shipping (LEAP comparator) -------------------------------------

    def ship_out(self, keys: Tuple):
        """Marshal and give up ownership of ``keys`` (LEAP localization).

        The caller must already hold the router-level locks that make
        the migration exclusive. Returns the payload size in bytes.
        """
        yield from self.database.locks.acquire_all(keys)
        yield from self.cpu.use(MARSHAL_OP_MS * len(keys))
        self.database.locks.release_all(keys)
        return len(keys) * RECORD_BYTES

    def install_shipment(self, keys: Tuple):
        """Install shipped records and take ownership (LEAP localization)."""
        yield from self.cpu.use(MARSHAL_OP_MS * len(keys))

    # -- introspection ---------------------------------------------------------

    def utilization(self) -> float:
        return self.cpu.utilization()
