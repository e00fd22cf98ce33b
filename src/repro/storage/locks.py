"""Per-key FIFO write locks.

The paper's engine avoids transactional aborts on write-write conflicts
by mutually excluding writers per record (§V-A1). Locks are granted in
FIFO order; multi-key acquisition is done in globally sorted key order
to make deadlock impossible.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Generator, Iterable, Optional

from repro.sim.core import Environment, Event, SimulationError


class LockTable:
    """FIFO mutual-exclusion locks keyed by record key."""

    def __init__(self, env: Environment):
        self.env = env
        # key -> waiter queue; presence of the key means locked. The
        # common case is an uncontended lock, so the queue is allocated
        # on demand: ``None`` means "locked, nobody waiting" (both None
        # and an empty deque are falsy, so truth tests treat them the
        # same).
        self._queues: Dict[Any, Optional[Deque[Event]]] = {}
        #: Total number of acquisitions that had to wait (contention stat).
        self.contended_acquires = 0
        self.total_acquires = 0
        # Holder identity is tracked only when tracing is on (the
        # tracer is fixed at Environment construction, so caching the
        # flag here is safe); the untraced path is byte-identical to
        # before this bookkeeping existed.
        self._traced = env.obs.tracer.enabled
        #: key -> transaction currently holding it (traced runs only).
        self._owners: Dict[Any, Any] = {}
        #: grant event -> (key, waiting txn), for ownership transfer.
        self._waiting: Dict[Event, Any] = {}

    def is_locked(self, key: Any) -> bool:
        return key in self._queues

    def held_count(self) -> int:
        """Number of keys currently locked (lock-table depth probe)."""
        return len(self._queues)

    def waiters(self, key: Any) -> int:
        queue = self._queues.get(key)
        return len(queue) if queue else 0

    def acquire(self, key: Any, owner: Any = None) -> Event:
        """Event that triggers when the caller holds ``key``'s lock.

        ``owner`` (the acquiring transaction) is used only when tracing
        is on: a contended acquire records a ``lock_wait`` causal edge
        naming the current holder (wait-for edge), and ownership is
        tracked so the edge's blame survives FIFO handoff on release.
        """
        self.total_acquires += 1
        event = Event(self.env)
        queues = self._queues
        if key in queues:
            self.contended_acquires += 1
            queue = queues[key]
            if queue is None:
                queue = queues[key] = deque()
            queue.append(event)
            if self._traced and owner is not None:
                self._waiting[event] = (key, owner)
                self.env.obs.tracer.edge(
                    "lock_wait", self.env.now,
                    txn=owner, src_txn=self._owners.get(key),
                    key=key, waiters=len(queue),
                )
        else:
            queues[key] = None
            event.succeed()
            if self._traced and owner is not None:
                self._owners[key] = owner
        return event

    def release(self, key: Any) -> None:
        """Release ``key``; wakes the longest-waiting acquirer, if any."""
        queues = self._queues
        if key not in queues:
            raise SimulationError(f"release of unlocked key {key!r}")
        queue = queues[key]
        if queue:
            event = queue.popleft()
            event.succeed()
            if self._traced:
                entry = self._waiting.pop(event, None)
                if entry is not None:
                    self._owners[key] = entry[1]
                else:
                    self._owners.pop(key, None)
        else:
            del queues[key]
            if self._traced:
                self._owners.pop(key, None)

    def acquire_all(self, keys: Iterable[Any], owner: Any = None) -> Generator:
        """Acquire every key in sorted order (deadlock-free helper).

        Usage: ``yield from lock_table.acquire_all(keys)``. Duplicate
        keys are acquired once. The global order is the keys' ``repr`` —
        this exact order is load-bearing for bit-identity, so do not
        "simplify" it to natural tuple order.
        ``owner`` flows to :meth:`acquire` for wait-for edges.
        """
        unique = set(keys)
        if len(unique) == 1:
            yield self.acquire(unique.pop(), owner)
            return
        for key in sorted(unique, key=repr):
            yield self.acquire(key, owner)

    def release_all(self, keys: Iterable[Any]) -> None:
        """Release every key previously acquired via :meth:`acquire_all`."""
        unique = set(keys)
        if len(unique) == 1:
            self.release(unique.pop())
            return
        for key in sorted(unique, key=repr):
            self.release(key)
