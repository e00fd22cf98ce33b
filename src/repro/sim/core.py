"""Discrete-event simulation kernel.

A minimal, deterministic, SimPy-style engine. Simulated time is a float
(interpreted throughout this project as milliseconds). Processes are
Python generators that yield :class:`Event` objects; the environment
resumes a process when the event it waits on triggers.

The kernel is intentionally small: events, timeouts, processes, and the
two condition events (:class:`AllOf`, :class:`AnyOf`) are everything the
database layers above need. Resources and message stores are built on
top of these primitives in :mod:`repro.sim.resources`.
"""

from __future__ import annotations

import gc
from collections import deque
from heapq import heappop, heappush
from typing import Any, Generator, Iterable, Optional

from repro.obs import NULL_OBS

#: Sentinel for "this event has not triggered yet".
_PENDING = object()


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


#: Events dispatched with the collector suspended since the last
#: repayment — process-wide, like the collector itself.
_unswept_events = 0

#: Repay once this many events (roughly half a second of dispatch, tens
#: of MB of simulator state) went by without the collector.
_SWEEP_AFTER_EVENTS = 1 << 17


def _suspend_gc() -> bool:
    """Switch the cyclic collector off; return whether it was on.

    :meth:`Environment.run` dispatches with the collector suspended and
    hands the caller's setting back through :func:`_resume_gc` in its
    ``finally``. A run frees everything by reference count — what it
    discards forms no cycles, pinned by ``tests/test_gc_quiet.py`` — so
    every collection the allocation counters trigger walks the
    long-lived heap (0.3–0.8 M records, log entries and samples) to
    reclaim nothing: 5–25 % of a run's host time that no profiler row
    shows (DESIGN.md §8).
    """
    was_enabled = gc.isenabled()
    gc.disable()
    return was_enabled


def _resume_gc(events: int) -> None:
    """Switch the collector back on after ``events`` dispatched without it.

    Everything the loop allocated is still in the youngest generation,
    so the first allocation after ``gc.enable()`` would sweep the whole
    run (0.05–0.3 s to reclaim nothing, booked to no layer). Freezing
    moves it out of the collector's sight instead; :func:`_repay_gc`
    thaws it before the collection that reclaims a dropped simulation.

    ``gc.freeze()`` is process-global: the caller's own objects go to
    the permanent generation too, and stay there until a repayment (a
    later ``Environment()`` with enough events owed). A process that
    runs one simulation, drops it and carries on never gets it — or any
    frozen cycle that turns to garbage later — collected automatically;
    it can call ``gc.unfreeze(); gc.collect()`` (DESIGN.md §8).
    """
    global _unswept_events
    _unswept_events += events
    gc.freeze()
    gc.enable()


def _repay_gc() -> None:
    """Collect what earlier simulations left, before a new one allocates.

    A *finished* simulation is one big cycle (environment <-> waiting
    processes <-> their frames), so dropping it frees nothing until a
    full collection runs — and the collector, suspended while events
    were dispatched, skipped the young collections whose count
    schedules one. Without this a process that runs simulation after
    simulation keeps every one of them (6 runs: 481 MB against 190).
    """
    global _unswept_events
    if _unswept_events >= _SWEEP_AFTER_EVENTS and gc.isenabled():
        _unswept_events = 0
        gc.unfreeze()
        gc.collect()


class Event:
    """An occurrence at a point in simulated time.

    An event starts *pending*; it becomes *triggered* when
    :meth:`succeed` or :meth:`fail` is called, and *processed* once the
    environment has run its callbacks. Processes wait on events by
    yielding them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        #: Callables invoked (with this event) when the event is processed.
        #: ``None`` once the event has been processed.
        self.callbacks: Optional[list] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._defused: bool = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value (or exception)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is still pending."""
        if self._value is _PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``.

        Hot path (one succeed per RPC reply, lock grant, and store
        hand-off): the zero-delay scheduling is ``_schedule`` inlined —
        same eid consumption, same batching condition.
        """
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        eid = env._eid
        env._eid = eid + 1
        queue = env._queue
        if not queue or queue[0][0] > env._now:
            env._nowq.append(self)
        else:
            heappush(queue, (env._now, eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def defuse(self) -> None:
        """Mark a failure as handled so the kernel does not re-raise it."""
        self._defused = True

    def __repr__(self) -> str:
        state = "pending" if not self.triggered else ("ok" if self._ok else "failed")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        # Hot path: one Timeout per message hop, CPU slice, and client
        # think-time. Assign attributes directly and push onto the heap
        # inline instead of chaining through Event.__init__ +
        # Environment._schedule; the end state (and the eid sequence) is
        # exactly what the chained version produced.
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        eid = env._eid
        env._eid = eid + 1
        if delay == 0.0:
            # Zero-delay batch fast path: if nothing on the heap is due
            # at or before `now`, this event can only be dispatched next
            # (in eid order) — append it to the current-timestamp run
            # queue and skip the heap round-trip entirely. See
            # Environment._schedule for the ordering argument.
            queue = env._queue
            if not queue or queue[0][0] > env._now:
                env._nowq.append(self)
                return
        heappush(env._queue, (env._now + delay, eid, self))


class Initialize(Event):
    """Internal event used to start a process on the next kernel step."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env._schedule(self)


class Process(Event):
    """A running simulated process wrapping a generator.

    The process is itself an event: it triggers with the generator's
    return value when the generator finishes (or with the exception if
    the generator raises).
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "send"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        #: The event this process is currently waiting on.
        self._target: Optional[Event] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is _PENDING

    def interrupt(self, exception: BaseException) -> None:
        """Throw ``exception`` into the process *synchronously*.

        Used by fault injection to model a machine crash: the victim's
        generator unwinds immediately (its ``finally`` blocks run
        against the pre-crash structures — releasing locks and CPU
        slots of the machine state that is about to be discarded),
        before the caller replaces any of those structures. The process
        then triggers as failed; anything racing it via ``AnyOf`` sees
        the failure defused, and nobody else is expected to wait on an
        interrupted process.

        Interrupting an already-finished process is a no-op.
        """
        if self._value is not _PENDING:
            return
        if not isinstance(exception, BaseException):
            raise SimulationError("interrupt() requires an exception instance")
        target = self._target
        if target is not None and target.callbacks is not None:
            # Stop the stale wakeup: the event we were waiting on must
            # not resume this process when it eventually triggers.
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        # Synthesize a pre-defused failed event and consume it now, so
        # the generator unwinds within this very call.
        cause = Event(self.env)
        cause._ok = False
        cause._value = exception
        cause._defused = True
        self._resume(cause)

    def _resume(self, event: Event) -> None:
        """Advance the generator, chaining through already-processed events."""
        if self._value is not _PENDING:
            # Already finished (e.g. interrupted before its Initialize
            # event fired); ignore stale wakeups.
            return
        # Hot path: every process wakeup lands here. Bind the generator
        # methods once and test `callbacks is None` directly instead of
        # going through the `processed` property descriptor.
        send = self._generator.send
        throw = self._generator.throw
        while True:
            try:
                if event._ok:
                    target = send(event._value)
                else:
                    # The waited-on event failed; propagate into the process.
                    event._defused = True
                    target = throw(event._value)
            except StopIteration as stop:
                self._target = None
                self._ok = True
                self._value = stop.value
                self.env._schedule(self)
                return
            except BaseException as exc:
                self._target = None
                self._ok = False
                self._value = exc
                self.env._schedule(self)
                return

            if not isinstance(target, Event):
                exc = SimulationError(
                    f"process yielded a non-event: {target!r}"
                )
                throw(exc)
                return
            if target.callbacks is None:
                # Already happened: continue synchronously with its value.
                event = target
                continue
            self._target = target
            target.callbacks.append(self._resume)
            return


class _Condition(Event):
    """Common machinery for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = tuple(events)
        for event in self.events:
            if event.env is not env:
                raise SimulationError("condition mixes events from different environments")
        self._remaining = len(self.events)
        if not self.events:
            self.succeed(self._collect())
            return
        for event in self.events:
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect(self):
        return [event._value for event in self.events if event.triggered]

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers once every child event has triggered.

    Its value is the list of child values, in the order the events were
    given. If any child fails, the condition fails with that exception.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event.defuse()
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([child._value for child in self.events])


class AnyOf(_Condition):
    """Triggers as soon as one child event triggers.

    Its value is the value of the first event to trigger; the triggering
    event itself is available as :attr:`first`.
    """

    __slots__ = ("first",)

    def __init__(self, env: "Environment", events: Iterable[Event]):
        self.first: Optional[Event] = None
        super().__init__(env, events)

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event.defuse()
            return
        self.first = event
        if event._ok:
            self.succeed(event._value)
        else:
            event.defuse()
            self.fail(event._value)


class Environment:
    """The simulation environment: virtual clock plus event queue."""

    def __init__(self, obs=None):
        _repay_gc()
        self._now = 0.0
        self._queue: list = []
        #: The current-timestamp run: events scheduled at `now` while no
        #: heap entry is due at or before `now`. Dispatched FIFO before
        #: the heap is consulted again — see :meth:`_schedule` for why
        #: this preserves the exact (time, eid) dispatch order.
        self._nowq: deque = deque()
        #: Monotonic event id; breaks same-time ties in creation order.
        #: A plain int incremented inline (here and in the Timeout fast
        #: path) produces the same 0, 1, 2, ... sequence that
        #: ``itertools.count`` did, without a call per schedule.
        self._eid = 0
        #: Number of events processed so far. Pure host-side bookkeeping
        #: for the perf harness — never read by simulation code, so it
        #: cannot influence simulated behavior.
        self.events_processed = 0
        #: Observability handle shared by every component on this clock
        #: (:data:`repro.obs.NULL_OBS` unless the run is being observed).
        #: Components reach their tracer as ``env.obs.tracer``, so no
        #: constructor threading is needed anywhere above the kernel.
        self.obs = obs if obs is not None else NULL_OBS

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        """Schedule ``event`` to be dispatched after ``delay``.

        Zero-delay schedules (``succeed``/``fail``, process completion,
        refresh wakeups — roughly half of all events in the benchmark
        workloads) take the *batched dispatch* fast path: when no heap
        entry is due at or before ``now``, the event is appended to the
        ``_nowq`` run deque instead of round-tripping through the heap.

        Ordering argument: the eid sequence is still consumed exactly as
        before, and an event enters ``_nowq`` only while every heap
        entry is strictly later than ``now``. Any entry pushed onto the
        heap *afterwards* carries a larger eid, so draining ``_nowq``
        FIFO before looking at the heap reproduces the exact
        ``(time, eid)`` heap order the unbatched kernel dispatched.
        """
        eid = self._eid
        self._eid = eid + 1
        if delay == 0.0:
            queue = self._queue
            if not queue or queue[0][0] > self._now:
                self._nowq.append(event)
                return
        heappush(self._queue, (self._now + delay, eid, event))

    # -- factory helpers -------------------------------------------------

    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers after ``delay`` time units."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new process from a generator."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Condition event that waits for all of ``events``."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Condition event that waits for the first of ``events``."""
        return AnyOf(self, events)

    # -- execution --------------------------------------------------------

    def step(self) -> None:
        """Process the next scheduled event.

        Dispatches from the current-timestamp run first, then the heap —
        the same order the batched ``run`` loop uses, so stepping a
        simulation manually is event-for-event identical to running it.
        """
        nowq = self._nowq
        if nowq:
            event = nowq.popleft()
        elif self._queue:
            when, _, event = heappop(self._queue)
            self._now = when
        else:
            raise SimulationError("step() on an empty event queue")
        self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # An unhandled failure (e.g. a crashed process nobody waits
            # on) must surface instead of passing silently.
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or simulated time reaches ``until``.

        The loop body is :meth:`step` inlined, with the queue, the heap
        pop, and the event counter held in locals: this is where the
        entire simulation spends its wall-clock, and the per-event
        method call + attribute traffic was the single largest kernel
        cost in profiles. The observable semantics are identical.
        """
        if until is not None and until < self._now:
            raise SimulationError(f"run(until={until}) is in the past (now={self._now})")
        queue = self._queue
        nowq = self._nowq
        popleft = nowq.popleft
        pop = heappop
        events = 0
        collecting = _suspend_gc()
        try:
            while True:
                if nowq:
                    # Current-timestamp run: no heap contact, no `until`
                    # check needed (these events are due at now <= until).
                    event = popleft()
                elif queue:
                    if until is not None and queue[0][0] > until:
                        break
                    when, _, event = pop(queue)
                    self._now = when
                else:
                    break
                events += 1
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    # An unhandled failure (e.g. a crashed process
                    # nobody waits on) must surface, not pass silently.
                    raise event._value
        finally:
            self.events_processed += events
            if collecting:
                _resume_gc(events)
        if until is not None:
            self._now = max(self._now, until)
