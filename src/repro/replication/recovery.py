"""Recovery from a checkpoint plus the redo log (paper §V-C).

The paper restores "an existing replica's checkpoint" and replays the
log from there. A replicated cluster keeps one :class:`Checkpoint` for
its replica group: every :data:`FOLD_EVERY` appends it folds the records
every live replica has applied into itself and drops them from the
logs. A recovering site rebuilds its records from the checkpoint plus
the logs' suffix, replayed in a dependency-respecting order, and the
mastership map (as a recovering site selector would) from the
checkpoint's markers plus the suffix's release and grant markers.
"""

from __future__ import annotations

import heapq
from collections import deque
from copy import copy
from typing import Dict, List, Sequence, Tuple

from repro.replication.log import GRANT, RELEASE, UPDATE, DurableLog, LogRecord
from repro.storage.database import Database
from repro.versioning.vectors import VersionVector

#: Appends, group-wide, between two folds. It only sets how far the
#: suffix grows before a fold cuts it: from 16 to 4 096 the folds' host
#: time and peak RSS barely move (DESIGN.md §8, "What a commit retains").
FOLD_EVERY = 256


def _merge(logs: Sequence[DurableLog], until: Sequence[int]) -> Tuple[list, List[int]]:
    """Order the retained records at or below ``until`` by Equation 1.

    Returns ``(ordered, reached)``: the records in the order a
    recovering replica applies them, and the vector they bring the
    logs' fold point to. A record from ``origin`` is admissible once
    ``svv[origin] == seq - 1`` (per-log FIFO) and ``svv[k] >= tvv[k]``
    for every other component (its dependencies were applied); the
    merge stops short of a record whose dependencies lie above
    ``until``, so ``reached`` is the largest downward-closed cut within
    it.

    Runs in O(records x vector width): each log head is examined once
    per park/wake, and a head parks on exactly one blocking component —
    the first one short of its dependency — and is woken only when that
    component reaches the required sequence number. The naive
    formulation (rescan every log after every applied record) is
    quadratic in the record count.
    """
    num = len(logs)
    # Every log's records resume right after the checkpoint's vector.
    svv = [len(log) - len(log.records) for log in logs]
    limits = [stop - start for stop, start in zip(until, svv)]
    cursors = [0] * num
    ordered = []
    ready: deque = deque()
    #: Per-component min-heaps of (needed seq, blocked log index).
    waiters = [[] for _ in range(num)]

    def examine(index: int) -> None:
        """Queue log ``index``'s head as ready, or park it on a blocker."""
        if cursors[index] >= limits[index]:
            return
        record = logs[index].records[cursors[index]]
        tvv = record.tvv
        for component in range(num):
            if component != index and tvv[component] > svv[component]:
                heapq.heappush(waiters[component], (tvv[component], index))
                return
        ready.append(record)
        cursors[index] += 1

    for index in range(num):
        examine(index)
    while ready:
        record = ready.popleft()
        origin = record.origin
        if record.seq != svv[origin] + 1:
            raise ValueError("logs are inconsistent: no admissible record found")
        ordered.append(record)
        svv[origin] = record.seq
        examine(origin)
        heap = waiters[origin]
        while heap and heap[0][0] <= svv[origin]:
            _, blocked = heapq.heappop(heap)
            examine(blocked)
    return ordered, svv


def merge_logs(logs: Sequence[DurableLog]) -> list:
    """Every retained record, in the Equation-1 order a recovering
    replica applies on top of the checkpoint (:func:`_merge`).

    Raises if the logs are inconsistent (some record's dependencies can
    never be satisfied).
    """
    ordered, _ = _merge(logs, [len(log) for log in logs])
    if len(ordered) < sum(len(log.records) for log in logs):
        raise ValueError("logs are inconsistent: no admissible record found")
    return ordered


class Checkpoint:
    """A replica group's folded log prefix: what recovery starts from.

    ``database`` holds the versions the folded update records installed,
    as stamp columns sharing the group's row index (one more replica's
    columns); ``vector`` is the cut they were folded at, which is also
    where every log's retained records resume; ``markers`` maps each
    partition to the last folded release or grant marker naming it —
    the mastership delta those markers make.
    """

    def __init__(self, sites: Sequence) -> None:
        first = sites[0]
        self.sites = sites
        self.database = Database(
            first.env,
            max_versions=first.config.max_versions,
            row_index=first.database.row_index,
        )
        self.vector = VersionVector.zeros(len(sites))
        self.markers: Dict[int, LogRecord] = {}
        self._owed = FOLD_EVERY

    def note_append(self) -> None:
        """Count one append; every :data:`FOLD_EVERY`, fold the
        cluster-stable vector — the component-wise minimum of the live
        replicas' svvs (a crashed replica recovers from the checkpoint,
        so it holds nothing back)."""
        self._owed -= 1
        if self._owed > 0:
            return
        self._owed = FOLD_EVERY
        live = [site.svv.counts for site in self.sites if site.alive]
        if live:
            self.fold([min(column) for column in zip(*live)])

    def fold(self, until: Sequence[int]) -> None:
        """Fold the records at or below ``until`` into the checkpoint, in
        :func:`merge_logs` order, and drop them from their logs.

        Only the largest downward-closed cut within ``until`` is folded:
        a record whose dependencies are not all folded stays in its log.
        """
        logs = [site.log for site in self.sites]
        records, reached = _merge(logs, until)
        install_many = self.database.install_many
        markers = self.markers
        for record in records:
            if record.kind == UPDATE:
                install_many(record.keys, record.origin, record.seq)
            else:
                for partition in record.partitions:
                    markers[partition] = record
        for log, stop in zip(logs, reached):
            del log.records[: stop - (len(log) - len(log.records))]
        self.vector = VersionVector(reached)


def recover_database(checkpoint: Checkpoint, records: Sequence[LogRecord]) -> tuple:
    """Rebuild a database and site version vector from the redo log.

    ``records`` is :func:`merge_logs` of the group's logs: the suffix
    after ``checkpoint``, replayed onto a copy of its columns. Rows no
    record touched start at version (0, 0) on first access, as at every
    other replica.

    Returns ``(database, svv)``.
    """
    database = copy(checkpoint.database)
    svv = checkpoint.vector.copy()
    for record in records:
        svv[record.origin] = record.seq
        if record.keys:
            database.install_many(record.keys, record.origin, record.seq)
    return database, svv


def _replay_ms(costs, logs: Sequence[DurableLog]) -> float:
    """CPU price of replaying every record the logs ever held (§V-C)."""
    return (
        costs.refresh_base_ms * sum(len(log) for log in logs)
        + costs.refresh_op_ms * sum(log.key_count for log in logs)
    )


def rejoin_site(cluster, index: int, initial_mastership: Dict[int, int]):
    """Bring a crashed site back online *during* a run (live restart).

    A generator meant to run inside a simulated process (the fault
    injector's) after :meth:`~repro.sites.data_site.DataSite.crash`. It
    restarts the existing :class:`~repro.sites.data_site.DataSite`
    object in place, so every reference held by probes, selectors, and
    peers stays valid.

    Replicated sites replay all durable logs (charged as refresh CPU
    on the recovering machine — the paper's ~0.4s/site replay, §V-C),
    reconstruct database, site version vector, and mastership, then
    resume each peer's replication stream from the replayed vector, so
    catch-up refreshes flow without re-delivering applied records.
    Non-replicated sites (partition-store, LEAP) model a locally
    durable store: they replay their own log onto surviving state and
    come back with the database they crashed with.
    """
    site = cluster.sites[index]
    costs = cluster.config.costs
    if site.replicated:
        logs = [peer.log for peer in cluster.sites]
        # The price is the paper's full redo replay, every record ever
        # appended: the checkpoint saves host memory, not simulated time.
        yield from site.cpu.use(_replay_ms(costs, logs))
        # Survivors kept appending while the replay was charged: the
        # state is rebuilt from the checkpoint and suffix at this instant.
        records = merge_logs(logs)
        checkpoint = cluster.checkpoint
        database, svv = recover_database(checkpoint, records)
        mastership = recover_mastership(checkpoint, records, initial_mastership)
        mastered = {
            partition for partition, owner in mastership.items() if owner == index
        }
        # No yields between recovery and resubscription: the replayed
        # vector and the subscription positions describe the same
        # instant, so the streams resume gap- and overlap-free.
        site.complete_restart(database, svv, mastered)
        site.replication.resubscribe(cluster.sites, svv)
    else:
        yield from site.cpu.use(_replay_ms(costs, [site.log]))
        site.complete_restart(site.database, site.svv, site.mastered)
    return site


def recover_mastership(
    checkpoint: Checkpoint,
    records: Sequence[LogRecord],
    initial_mastership: Dict[int, int],
) -> Dict[int, int]:
    """Reconstruct the partition -> master-site map from grant/release.

    ``initial_mastership`` is the placement at load time; the
    checkpoint's markers and then ``records`` (:func:`merge_logs` of
    every site's log) move it. A release marker leaves the partition
    unowned until the matching grant names the new master. A
    partition's markers are totally ordered (each grant depends on its
    release, each release follows its site's grant), so its last marker
    decides it; replay applies them in the Equation-1 order, and the
    final map equals the live site selector's map at the time of the
    crash.
    """
    mastership = dict(initial_mastership)
    for partition, record in checkpoint.markers.items():
        _move(mastership, record, (partition,))
    for record in records:
        if record.kind != UPDATE:
            _move(mastership, record, record.partitions)
    return mastership


def _move(mastership: Dict[int, int], record: LogRecord, partitions) -> None:
    """Apply one release or grant marker to ``partitions``."""
    if record.kind == RELEASE:
        for partition in partitions:
            mastership.pop(partition, None)
    elif record.kind == GRANT:
        if record.target is None:
            raise ValueError("grant record without a target site")
        for partition in partitions:
            mastership[partition] = record.target
