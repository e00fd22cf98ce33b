"""Durable, ordered, per-site update logs (Kafka substitute).

The paper stores each site's updates in a distinct Kafka log, which
provides exactly two guarantees the correctness proof leans on
(Appendix A, condition 3): records are delivered to every subscriber
*reliably* and *in append order*. :class:`DurableLog` provides both: a
record appended at simulated time ``t`` reaches every subscriber's
queue at ``t + delivery_delay``. It is also the redo log of §V-C: a
record stays until every live replica has applied it, when the replica
group's :class:`~repro.replication.recovery.Checkpoint` folds it away,
so a restarting site recovers from that checkpoint plus the retained
suffix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.core import Environment
from repro.sim.network import Network
from repro.sim.resources import Store

#: Log record kinds.
UPDATE = "update"
RELEASE = "release"
GRANT = "grant"


@dataclass(frozen=True, slots=True)
class LogRecord:
    """One durable log entry.

    An update record is its stamp, its keys and its tvv. ``tvv`` is
    the committing transaction's version vector as a tuple;
    ``tvv[origin]`` is the record's position in the origin site's
    commit order, so ``(origin, seq)`` stamps every version the record
    installs. ``keys`` is the committed write set itself — the
    transaction's tuple, not a copy — and is empty for release/grant
    markers. No written value is stored: the stamp identifies the
    writer, and the wire size (``SizeModel.update_record_bytes``) still
    charges each key's modelled payload. ``partitions`` names the
    remastered partitions for release/grant records, and ``target``
    the receiving site for grants (used in recovery).
    """

    kind: str
    origin: int
    tvv: Tuple[int, ...]
    keys: Tuple[Any, ...] = ()
    partitions: Tuple[int, ...] = ()
    target: Optional[int] = None

    @property
    def seq(self) -> int:
        """This record's commit sequence number at its origin."""
        return self.tvv[self.origin]


class DurableLog:
    """An append-only, subscriber-fanout log for one site."""

    def __init__(
        self,
        env: Environment,
        origin: int,
        delivery_delay_ms: float = 0.0,
        network: Optional[Network] = None,
        record_size=None,
    ):
        self.env = env
        self.origin = origin
        #: The origin's track in a trace, formatted once (a traced
        #: append records 1 + subscribers instants).
        self.trace_track = f"site{origin}"
        self.delivery_delay_ms = delivery_delay_ms
        self.network = network
        #: Callable mapping a LogRecord to its wire size in bytes.
        self.record_size = record_size
        #: The retained suffix, oldest first. Seqs are dense from 1, so
        #: ``records[i].seq == len(self) - len(records) + i + 1``.
        self.records: List[LogRecord] = []
        #: Whole-run counters: update records, and keys written by all
        #: records (the replay price of ``rejoin_site``).
        self.update_count = 0
        self.key_count = 0
        self._appended = 0
        #: Host-side hook run after every append: the replica group's
        #: fold trigger, or a partitioned site's ``records.clear`` (its
        #: surviving store is its checkpoint). None keeps every record.
        self.on_append: Optional[Callable[[], None]] = None
        self._subscribers: List[Store] = []

    def __len__(self) -> int:
        """Records ever appended (the newest seq), folded ones included."""
        return self._appended

    def subscribe(self, from_seq: Optional[int] = None) -> Store:
        """Register a new subscriber; returns its delivery queue.

        By default only records appended after subscription are
        delivered (a recovering site first rebuilds from the checkpoint
        and the retained suffix, then subscribes). Passing ``from_seq``
        resumes a stream from a known position instead: every record
        with ``seq > from_seq`` is pre-loaded into the queue
        immediately. Those must still be retained: a restarted
        subscriber resumes from its recovered vector, which is at or
        above every folded record.
        """
        queue = Store(self.env)
        if from_seq is not None:
            start = from_seq - (self._appended - len(self.records))
            if start < 0:
                raise ValueError(
                    f"site {self.origin}'s log has folded records after seq {from_seq}"
                )
            for record in self.records[start:]:
                queue.put(record)
        self._subscribers.append(queue)
        return queue

    def unsubscribe(self, queue: Store) -> None:
        """Stop delivering to ``queue`` (its owner crashed or rewired)."""
        try:
            self._subscribers.remove(queue)
        except ValueError:
            pass

    def append(self, record: LogRecord) -> None:
        """Durably append ``record`` and schedule fan-out delivery."""
        if record.origin != self.origin:
            raise ValueError(
                f"record from site {record.origin} appended to site {self.origin}'s log"
            )
        self._appended += 1
        self.key_count += len(record.keys)
        if record.kind == UPDATE:
            self.update_count += 1
        self.records.append(record)
        if self.on_append is not None:
            self.on_append()
        if self.network is not None and self.record_size is not None:
            size = self.record_size(record)
            category = "replication" if record.kind == UPDATE else "remaster"
            # Producer write plus one delivery per subscriber.
            self.network.account_many(category, size, 1 + len(self._subscribers))
        tracer = self.env.obs.tracer
        if tracer.enabled:
            tracer.instant(
                "log_append", self.env.now, track=self.trace_track,
                kind=record.kind, seq=record.seq,
            )
        if not self._subscribers:
            return
        if self.delivery_delay_ms <= 0:
            for queue in self._subscribers:
                queue.put(record)
                if tracer.enabled:
                    tracer.instant(
                        "log_deliver", self.env.now, track=self.trace_track,
                        seq=record.seq,
                    )
            return
        # Batched fan-out: one shared delay event delivers to every
        # subscriber registered at append time (snapshotted, matching
        # the old per-subscriber capture). Ordering is unchanged: the
        # per-subscriber timeouts this replaces carried consecutive
        # event ids at one deadline, so nothing could interleave with
        # them — their puts ran back to back exactly as this loop runs
        # them, and every put-triggered wakeup still lands afterwards
        # in the same relative order.
        targets = tuple(self._subscribers)
        timeout = self.env.timeout(self.delivery_delay_ms)

        def deliver(_event, targets=targets, r=record):
            tracer = self.env.obs.tracer
            for queue in targets:
                queue.put(r)
                if tracer.enabled:
                    tracer.instant(
                        "log_deliver", self.env.now,
                        track=self.trace_track, seq=r.seq,
                    )

        timeout.callbacks.append(deliver)
