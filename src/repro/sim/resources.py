"""Shared resources for simulated processes.

* :class:`Resource` — a capacity-limited server (e.g. the CPU cores of a
  data site). Requests queue FIFO when the resource is saturated.
* :class:`Store` — an unbounded FIFO message queue used for inboxes.
* :class:`AdmissionQueue` — a bounded FIFO with offered/admitted/shed
  accounting, fronting each site under open-loop traffic (DESIGN.md §9).
* :class:`RWLock` — a fair readers-writer lock used by the site selector
  for partition metadata (paper §V-B).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, List, Optional

from repro.sim.core import Environment, Event, SimulationError, _PENDING


class Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource


class Resource:
    """A server with ``capacity`` identical slots and a FIFO queue.

    Usage from a process::

        request = resource.request()
        yield request
        yield env.timeout(service_time)
        resource.release(request)

    or, more conveniently, ``yield from resource.use(service_time)``.
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._queue: Deque[Request] = deque()
        #: Total busy time accumulated across all slots (for utilization).
        self.busy_time = 0.0
        self._last_change = env.now
        #: Fail-slow hook: when set (by the fault injector), a callable
        #: returning the current service-time multiplier; applied at
        #: grant time in :meth:`use`. ``None`` — the unfaulted case —
        #: costs one attribute check and keeps runs bit-identical.
        self.slow = None

    @property
    def in_use(self) -> int:
        """Number of slots currently held."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    def _account(self) -> None:
        now = self.env._now
        self.busy_time += self._in_use * (now - self._last_change)
        self._last_change = now

    def request(self) -> Request:
        """Claim a slot; the returned event triggers when granted.

        Hot path (one request per CPU slice): the Request is built and
        the busy-time accounting applied inline instead of chaining
        through ``Event.__init__`` / :meth:`_account`; the end state is
        identical to the chained version.
        """
        request = Request.__new__(Request)
        request.env = self.env
        request.callbacks = []
        request._value = _PENDING
        request._ok = True
        request._defused = False
        request.resource = self
        if self._in_use < self.capacity:
            now = self.env._now
            self.busy_time += self._in_use * (now - self._last_change)
            self._last_change = now
            self._in_use += 1
            request.succeed()
        else:
            self._queue.append(request)
        return request

    def release(self, request: Request) -> None:
        """Return a slot previously granted to ``request``."""
        if request.resource is not self:
            raise SimulationError("request released to the wrong resource")
        if request._value is _PENDING:
            # The request never got a slot; drop it from the queue.
            self._queue.remove(request)
            request.defuse()
            request.succeed()
            return
        now = self.env._now
        self.busy_time += self._in_use * (now - self._last_change)
        self._last_change = now
        self._in_use -= 1
        if self._queue:
            nxt = self._queue.popleft()
            self._in_use += 1
            nxt.succeed()

    def use(self, duration: float, *, txn=None, track: str = "") -> Generator:
        """Hold one slot for ``duration`` time units (helper generator).

        When a ``txn`` is passed and tracing is on, time spent queued
        behind a saturated resource is recorded as a ``cpu_queue`` span
        (plus a causal edge carrying the queue depth). The bookkeeping
        is pure recording — no extra events — so untraced runs are
        bit-identical.

        A fail-slow fault (:attr:`slow`) stretches the service time by
        the multiplier active when the slot is requested — modeling a
        sick machine where every operation takes longer, not one where
        new work is refused.
        """
        if self.slow is not None:
            duration = duration * self.slow()
        request = self.request()
        if txn is not None and not request.triggered:
            tracer = self.env.obs.tracer
            if tracer.enabled:
                queued_at = self.env.now
                depth = len(self._queue)
                yield request
                granted_at = self.env.now
                tracer.span("cpu_queue", queued_at, granted_at,
                            track=track, txn=txn, depth=depth)
                tracer.edge("cpu_queue", queued_at, txn=txn, track=track,
                            depth=depth, waited=granted_at - queued_at)
                try:
                    yield self.env.timeout(duration)
                finally:
                    self.release(request)
                return
        yield request
        try:
            yield self.env.timeout(duration)
        finally:
            self.release(request)

    def busy_time_now(self) -> float:
        """Busy slot-time accumulated up to the current instant.

        Observability probe hook: sampling this at a fixed cadence and
        differencing yields windowed utilization timelines.
        """
        self._account()
        return self.busy_time

    def utilization(self) -> float:
        """Fraction of total slot-time used since creation."""
        self._account()
        window = self.env.now
        if window <= 0:
            return 0.0
        return self.busy_time / (window * self.capacity)


class Store:
    """An unbounded FIFO queue connecting producer and consumer processes."""

    def __init__(self, env: Environment):
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Add ``item``; wakes the longest-waiting getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event that triggers with the next item (FIFO)."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def take(self) -> Any:
        """Pop the next item now, without an event; the store must hold one.

        For a consumer that has already tested ``len(store)`` and is
        not going to wait: ``get().value`` hands back the same item but
        builds and schedules an :class:`Event` nobody yields on.
        Dropping that event is order-exact. It never had a callback, so
        dispatching it ran no code; every other event is still created
        in the same order, so the survivors keep their relative
        ``(time, eid)`` order and eids are only renumbered
        monotonically. No run's simulated result can move — the
        ``events_processed`` count falls, and nothing else.
        """
        if not self._items:
            raise SimulationError("take() from an empty store")
        return self._items.popleft()


class AdmissionQueue:
    """A bounded FIFO admission queue with load-shedding accounting.

    Under open-loop traffic the arrival process offers work at a rate
    the system does not control, so each site needs a queue between
    arrivals and its dispatcher slots — and that queue needs *honest*
    accounting, because queue depth and admission wait are exactly the
    signals that distinguish a saturated system from a healthy one
    (docs/SCALE.md).

    ``capacity = 0`` means unbounded (pure queue-growth observation);
    a positive capacity sheds arrivals that find the queue full — the
    queue-based load-leveling pattern, where ``shed`` becomes the
    overload signal instead of unbounded latency.

    Conservation invariants (pinned by ``tests/test_openloop.py``)::

        offered  == admitted + shed
        admitted == taken + len(queue)

    ``taken`` counts items the moment they leave the queue (including
    the fast path where an offer lands directly on a waiting getter),
    so the second identity holds structurally at every instant.
    """

    def __init__(self, env: Environment, capacity: int = 0):
        if capacity < 0:
            raise SimulationError(f"queue capacity must be >= 0, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        #: Arrivals presented to the queue (admitted + shed).
        self.offered = 0
        #: Arrivals accepted (queued or handed straight to a getter).
        self.admitted = 0
        #: Arrivals dropped because the queue was at capacity.
        self.shed = 0
        #: Items that have left the queue toward a dispatcher.
        self.taken = 0
        #: Deepest the backlog has ever been.
        self.peak_depth = 0
        # Time-weighted depth integral for mean_depth().
        self._depth_area = 0.0
        self._last_change = env.now

    def __len__(self) -> int:
        return len(self._items)

    def _account(self) -> None:
        now = self.env._now
        self._depth_area += len(self._items) * (now - self._last_change)
        self._last_change = now

    def offer(self, item: Any) -> bool:
        """Present an arrival; returns ``False`` if it was shed."""
        self.offered += 1
        if self._getters:
            # Fast path: a dispatcher is already waiting, so the item
            # never occupies the backlog — admitted and taken at once.
            self.admitted += 1
            self.taken += 1
            self._getters.popleft().succeed(item)
            return True
        if self.capacity and len(self._items) >= self.capacity:
            self.shed += 1
            return False
        self._account()
        self.admitted += 1
        self._items.append(item)
        if len(self._items) > self.peak_depth:
            self.peak_depth = len(self._items)
        return True

    def take(self) -> Event:
        """Event that triggers with the next admitted item (FIFO)."""
        event = Event(self.env)
        if self._items:
            self._account()
            self.taken += 1
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def mean_depth(self, now: Optional[float] = None) -> float:
        """Time-weighted mean backlog depth since creation."""
        self._account()
        window = now if now is not None else self.env.now
        if window <= 0:
            return 0.0
        return self._depth_area / window


class RWLock:
    """A fair (FIFO) readers-writer lock.

    Multiple readers may hold the lock simultaneously; writers are
    exclusive. Fairness: a waiting writer blocks later readers, which
    prevents writer starvation — the site selector relies on this when
    upgrading partition metadata locks for remastering.

    There is one lock per partition and almost all of them idle (148 of
    27 108 acquires ever queue on ``openloop-dynamast``), so an idle
    lock owns no buffer: ``__slots__``, and a plain list of waiters —
    ``pop(0)`` on a queue of one or two is cheaper than the 760 bytes
    every empty ``deque`` preallocates.
    """

    __slots__ = ("env", "_readers", "_writer", "_waiters")

    _READ = "read"
    _WRITE = "write"

    def __init__(self, env: Environment):
        self.env = env
        self._readers = 0
        self._writer = False
        self._waiters: List[tuple] = []

    @property
    def read_locked(self) -> bool:
        return self._readers > 0

    @property
    def write_locked(self) -> bool:
        return self._writer

    def acquire_read(self) -> Event:
        """Event that triggers when a shared (read) hold is granted."""
        event = Event(self.env)
        if not self._writer and not self._waiters:
            self._readers += 1
            event.succeed()
        else:
            self._waiters.append((self._READ, event))
        return event

    def acquire_write(self) -> Event:
        """Event that triggers when an exclusive (write) hold is granted."""
        event = Event(self.env)
        if not self._writer and self._readers == 0 and not self._waiters:
            self._writer = True
            event.succeed()
        else:
            self._waiters.append((self._WRITE, event))
        return event

    def release_read(self) -> None:
        if self._readers <= 0:
            raise SimulationError("release_read() without a read hold")
        self._readers -= 1
        self._dispatch()

    def release_write(self) -> None:
        if not self._writer:
            raise SimulationError("release_write() without a write hold")
        self._writer = False
        self._dispatch()

    def downgrade(self) -> None:
        """Atomically convert an exclusive hold into a shared hold.

        Unlike release-then-acquire, no writer can slip in between; the
        site selector uses this to keep routing permission on
        partitions it is *not* moving while a remastering runs.
        """
        if not self._writer:
            raise SimulationError("downgrade() without a write hold")
        self._writer = False
        self._readers += 1
        self._dispatch()

    def _dispatch(self) -> None:
        while self._waiters:
            mode, event = self._waiters[0]
            if mode == self._WRITE:
                if self._readers == 0 and not self._writer:
                    self._waiters.pop(0)
                    self._writer = True
                    event.succeed()
                return
            if self._writer:
                return
            self._waiters.pop(0)
            self._readers += 1
            event.succeed()
