"""Recovery by redo-log replay (paper §V-C).

Any data site recovers independently: it rebuilds record state by
replaying the update records of every site's log in a dependency-
respecting order, and it (or a recovering site selector) reconstructs
the data-item mastership map from the sequence of release and grant
markers in the same logs.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, Optional, Sequence

from repro.replication.log import GRANT, RELEASE, UPDATE, DurableLog, LogRecord
from repro.sim.core import Environment
from repro.storage.database import Database
from repro.versioning.vectors import VersionVector


def merge_logs(logs: Sequence[DurableLog]) -> list:
    """Order all records across logs consistently with Equation 1.

    Produces the order a recovering replica applies: a record from
    ``origin`` is admissible once ``svv[origin] == seq - 1`` (per-log
    FIFO, automatic for well-formed logs) and ``svv[k] >= tvv[k]`` for
    every other component (its dependencies were applied). Raises if
    the logs are inconsistent (some record's dependencies can never be
    satisfied).

    Runs in O(total records x vector width): each log head is examined
    once per park/wake, and a head parks on exactly one blocking
    component — the first one short of its dependency — and is woken
    only when that component reaches the required sequence number. The
    naive formulation (rescan every log after every applied record) is
    quadratic in the total record count, which made restart replay the
    dominant cost of a long chaos run.
    """
    num = len(logs)
    svv = [0] * num
    cursors = [0] * num
    ordered = []
    ready: deque = deque()
    #: Per-component min-heaps of (needed seq, blocked log index).
    waiters = [[] for _ in range(num)]

    def examine(index: int) -> None:
        """Queue log ``index``'s head as ready, or park it on a blocker."""
        if cursors[index] >= len(logs[index].records):
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
    if len(ordered) < sum(len(log) for log in logs):
        raise ValueError("logs are inconsistent: no admissible record found")
    return ordered


def recover_database(
    env: Environment,
    records: Sequence[LogRecord],
    num_sites: int,
    max_versions: int = 4,
    row_index: Optional[Dict] = None,
) -> tuple:
    """Rebuild a database and site version vector from merged redo logs.

    ``records`` is :func:`merge_logs` of all ``num_sites`` sites' logs.
    Rows no record touched start at version (0, 0) on first access,
    as at every other replica. ``row_index`` is the replica group's row
    numbering to rebuild into (see
    :class:`~repro.storage.database.Database`).

    Returns ``(database, svv)``.
    """
    database = Database(env, max_versions=max_versions, row_index=row_index)
    svv = VersionVector.zeros(num_sites)
    for record in records:
        svv[record.origin] = record.seq
        if record.kind == UPDATE and record.keys:
            database.install_many(record.keys, record.origin, record.seq)
    return database, svv


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
        replay_ms = sum(
            costs.refresh_ms(len(record.keys)) for record in merge_logs(logs)
        )
        yield from site.cpu.use(replay_ms)
        # Survivors kept appending while the replay was charged: merge
        # again, once, for the state rebuilt at this instant.
        records = merge_logs(logs)
        database, svv = recover_database(
            cluster.env,
            records,
            len(logs),
            max_versions=cluster.config.max_versions,
            row_index=site.database.row_index,
        )
        mastership = recover_mastership(records, initial_mastership)
        mastered = {
            partition for partition, owner in mastership.items() if owner == index
        }
        # No yields between recovery and resubscription: the replayed
        # vector and the subscription positions describe the same
        # instant, so the streams resume gap- and overlap-free.
        site.complete_restart(database, svv, mastered)
        site.replication.resubscribe(cluster.sites, svv)
    else:
        replay_ms = sum(
            costs.refresh_ms(len(record.keys)) for record in site.log.records
        )
        yield from site.cpu.use(replay_ms)
        site.complete_restart(site.database, site.svv, site.mastered)
    return site


def recover_mastership(
    records: Sequence[LogRecord],
    initial_mastership: Dict[int, int],
) -> Dict[int, int]:
    """Reconstruct the partition -> master-site map from grant/release.

    ``records`` is :func:`merge_logs` of every site's log;
    ``initial_mastership`` is the placement at load time. A release
    marker leaves the partition unowned until the matching grant names
    the new master; replay applies them in the Equation-1 order, so the
    final map equals the live site selector's map at the time of the
    crash.
    """
    mastership = dict(initial_mastership)
    for record in records:
        if record.kind == RELEASE:
            for partition in record.partitions:
                mastership.pop(partition, None)
        elif record.kind == GRANT:
            if record.target is None:
                raise ValueError("grant record without a target site")
            for partition in record.partitions:
                mastership[partition] = record.target
    return mastership
