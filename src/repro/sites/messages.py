"""RPC modelling helpers.

The paper's components communicate via Apache Thrift RPC. We model a
remote call as: request traverses the network (latency + size), the
handler runs using the *destination's* resources (its CPU, locks,
version watch), and the reply traverses the network back. The handler
executes inside the caller's simulated process, which is semantically
equivalent for timing purposes and keeps the call structure direct.

:func:`guarded_call` is the call every client-facing protocol step
makes. With a fault injector installed the handler runs in its own
tracked process on the destination (so a crash can interrupt it), the
caller races it against an RPC timeout and the destination's crash,
and per-link loss/partition/delay from the injector applies to both
legs. Without an injector it *is* :func:`remote_call`: the same
generator, with no extra frame; :func:`site_process`, its local
counterpart, is then the handler itself. :func:`with_retries` is the
one bounded-retry loop around such steps.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.faults.errors import (
    FRONTEND,
    FaultError,
    RpcTimeout,
    SiteDown,
    TransactionAborted,
)
from repro.sim.network import Network
from repro.transactions import Transaction

#: Wire bytes of an RPC request and of its reply.
RPC_BYTES = 64


def remote_call(
    network: Network,
    handler: Generator,
    category: str = "rpc",
    txn: Optional[Transaction] = None,
) -> Generator:
    """Run ``handler`` behind a simulated request/reply network hop.

    Usage: ``result = yield from remote_call(net, site.do_thing(...))``.
    If ``txn`` is given, each wire leg is timed as its ``network``
    phase (Figure 7) when it lands: a handler that raises leaves only
    the request leg timed.
    """
    env = network.env
    tracer = env.obs.tracer
    request_delay = network.delay_for(RPC_BYTES)
    network.account(category, RPC_BYTES)
    request_started = env._now
    yield env.timeout(request_delay)
    if txn is not None:
        tracer.phase("network", request_started, env._now,
                     track="net", txn=txn, category=category)
    result = yield from handler
    response_delay = network.delay_for(RPC_BYTES)
    network.account(category, RPC_BYTES)
    response_started = env._now
    yield env.timeout(response_delay)
    if txn is not None:
        tracer.phase("network", response_started, env._now,
                     track="net", txn=txn, category=category)
        if tracer.enabled:
            tracer.instant("rpc", request_started, txn=txn, track="net",
                           category=category, outcome="ok",
                           rtt=env._now - request_started)
    return result


class ResultBox:
    """Out-of-band result slot for a handler run in its own process
    (an RPC handler, or one racer of a hedged read)."""

    __slots__ = ("result", "exc")

    def __init__(self):
        self.result = None
        self.exc = None


def _run_boxed(handler: Generator, box: ResultBox):
    """Drive ``handler``, parking its outcome in ``box``.

    Injected failures (a crash interrupt) are absorbed so the wrapping
    process always *succeeds* — a failed process that nobody awaits
    (its caller timed out and moved on) would otherwise surface as an
    unhandled simulation error. Genuine bugs still propagate.
    """
    try:
        box.result = yield from handler
    except FaultError as exc:
        box.exc = exc


def _unhook(race, crash) -> None:
    """Take a race's callback off the crash event once its waiter is done.

    ``site.crash_event`` lives until the site crashes — the whole run
    for most sites — so a callback left on it keeps the race, the
    handler process and its frames, the deadline and the box reachable
    that long (DESIGN.md §7). Nothing observes the removal: a resolved
    ``AnyOf`` ignores its remaining children, and one whose waiter was
    interrupted has nobody left to wake (the handler or the deadline
    still triggers it). Their callbacks stay: they are what defuses an
    abandoned handler's late failure.
    """
    if crash.callbacks is not None:  # None: the crash was dispatched
        crash.callbacks.remove(race._check)


def site_process(site, handler: Generator) -> Generator:
    """Run ``handler`` as a tracked process on ``site``, crash-raced.

    For work a protocol executes *at* a site outside any RPC (a 2PC
    coordinator's own branch and decision logic, a LEAP install): if
    the site crashes mid-way the handler is interrupted and the caller
    sees :class:`SiteDown`. Without an injector nothing can crash, and
    this returns ``handler`` itself, as :func:`guarded_call` does.
    Usage: ``x = yield from site_process(site, gen)``.
    """
    if site.network.faults is None:
        return handler
    return _site_process(site, handler)


def _site_process(site, handler):
    """:func:`site_process` with an injector installed."""
    if not site.alive:
        raise SiteDown(site.index)
    env = site.env
    box = ResultBox()
    proc = env.process(_run_boxed(handler, box))
    site.track(proc)
    crash = site.crash_event
    race = env.any_of([proc, crash])
    try:
        yield race
    finally:
        _unhook(race, crash)
    if proc.triggered:
        if box.exc is not None:
            raise box.exc
        return box.result
    raise SiteDown(site.index)


def guarded_call(
    network: Network,
    site,
    handler: Generator,
    src: int = FRONTEND,
    category: str = "rpc",
    txn: Optional[Transaction] = None,
    timeout_ms: Optional[float] = None,
) -> Generator:
    """Remote call to ``site`` that survives injected faults.

    Semantics when a fault injector is installed:

    * the request leg can be lost or partitioned away — the caller
      learns nothing until the timeout fires
      (``RpcTimeout(dispatched=False)``: the handler never started,
      the caller owns all cleanup);
    * arrival at a dead site is refused — :class:`SiteDown` after one
      round trip (connection reset), at-least-once dispatch never
      happened;
    * the handler runs in its own process on the destination, so the
      destination's crash interrupts it (its ``finally`` blocks run)
      and the caller gets :class:`SiteDown`;
    * a slow handler or a lost response leg yields
      ``RpcTimeout(dispatched=True)``: the handler did (or still may)
      run to completion on the live destination, so idempotency /
      cleanup there is the *handler's* responsibility, not the
      caller's.

    Every outcome is reported to the injector's failure detector.
    Without an injector this returns :func:`remote_call`'s generator
    itself. Usage: ``x = yield from guarded_call(net, site, gen)``.
    """
    if network.faults is None:
        return remote_call(network, handler, category=category, txn=txn)
    return _guarded(network, site, handler, src, category, txn, timeout_ms)


def _guarded(network, site, handler, src, category, txn, timeout_ms):
    """:func:`guarded_call` with an injector installed."""
    faults = network.faults
    env = network.env
    dst = site.index
    # Explicit per-call budgets (remastering's longer leash) win;
    # otherwise the injector supplies the deadline — the fixed timeout,
    # or a per-destination quantile-tracked one when adaptive deadlines
    # are on (how a fail-slow site gets noticed in milliseconds).
    budget = timeout_ms if timeout_ms is not None else faults.deadline_ms(dst)
    started = env.now
    tracer = env.obs.tracer
    traced = tracer.enabled and txn is not None

    def _resolved(outcome):
        # How this request resolved (ok / down / timeout), recorded at
        # resolution time so the rtt covers the full round including
        # injected losses.
        tracer.instant("rpc", started, txn=txn, track="net",
                       category=category, outcome=outcome, dst=dst,
                       rtt=env.now - started)

    def _timed_out(dispatched):
        remaining = budget - (env.now - started)
        faults.detector.report_timeout(dst)
        return RpcTimeout(
            f"rpc to site {dst} timed out after {budget}ms", dispatched=dispatched
        ), max(0.0, remaining)

    # Request leg.
    network.account(category, RPC_BYTES)
    if network.leg_lost(src, dst):
        exc, remaining = _timed_out(dispatched=False)
        yield env.timeout(remaining)
        if traced:
            _resolved("timeout")
        raise exc
    yield env.timeout(network.leg_delay(src, dst, RPC_BYTES))
    if not site.alive:
        # Connection refused: the reset travels the reverse leg (and
        # can itself be lost, which then looks like a timeout).
        if network.leg_lost(dst, src):
            exc, remaining = _timed_out(dispatched=False)
            yield env.timeout(remaining)
            if traced:
                _resolved("timeout")
            raise exc
        yield env.timeout(network.leg_delay(dst, src))
        faults.detector.report_down(dst)
        if traced:
            _resolved("down")
        raise SiteDown(dst)

    # Dispatch: the handler runs on the destination, raced against the
    # caller's timeout and the destination's crash.
    box = ResultBox()
    proc = env.process(_run_boxed(handler, box))
    site.track(proc)
    crash = site.crash_event
    deadline = env.timeout(max(0.0, budget - (env.now - started)))
    race = env.any_of([proc, deadline, crash])
    try:
        yield race
    finally:
        _unhook(race, crash)
    if proc.triggered and box.exc is not None:
        faults.detector.report_down(dst)
        if traced:
            _resolved("down")
        raise box.exc
    if proc.triggered:
        # Response leg.
        network.account(category, RPC_BYTES)
        if network.leg_lost(dst, src):
            exc, remaining = _timed_out(dispatched=True)
            yield env.timeout(remaining)
            if traced:
                _resolved("timeout")
            raise exc
        yield env.timeout(network.leg_delay(dst, src, RPC_BYTES))
        faults.detector.report_success(dst)
        # Passive RTT observation feeding the adaptive deadline /
        # hedge-delay quantiles (recording only — no events, no draws).
        faults.observe_rtt(dst, env.now - started)
        if traced:
            _resolved("ok")
        return box.result
    if crash.triggered:
        faults.detector.report_down(dst)
        if traced:
            _resolved("down")
        raise SiteDown(dst)
    exc, _ = _timed_out(dispatched=True)
    if traced:
        _resolved("timeout")
    raise exc


#: Retries after the first attempt of a protocol-level operation.
MAX_RETRIES = 3
#: Exponential backoff: min(cap, base * 2**attempt), jittered
#: +-50% from the faults RNG stream.
BACKOFF_BASE_MS = 1.0
BACKOFF_CAP_MS = 16.0


class RetryPolicy:
    """Bounded retries with seeded, jittered exponential backoff."""

    #: Total tries: the first attempt plus ``MAX_RETRIES`` retries.
    attempts = MAX_RETRIES + 1

    def __init__(self, rng):
        self._rng = rng

    def backoff_ms(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based), jittered ±50%."""
        base = min(BACKOFF_CAP_MS, BACKOFF_BASE_MS * (2.0 ** attempt))
        return base * (0.5 + self._rng.random())


def with_retries(network: Network, attempt) -> Generator:
    """Run the step ``attempt()`` (a generator factory) with bounded retries.

    Generator returning ``(result, retries, error)``: ``error`` is the
    fault that ended the tries (None on success) and ``retries`` counts
    the tries after the first. Each failed try except the last is
    followed by one backoff drawn from the injector's RNG. A
    :class:`TransactionAborted` is a protocol layer's final word and
    ends the tries at once. Cleanup a failed try owes (an activity
    registration, say) belongs inside ``attempt``. Without an injector
    nothing can fail: one try, no draw.
    """
    faults = network.faults
    if faults is None:
        result = yield from attempt()
        return result, 0, None
    policy = RetryPolicy(faults.rng)
    last = policy.attempts - 1
    for tries in range(policy.attempts):
        try:
            result = yield from attempt()
        except TransactionAborted as exc:
            return None, tries, exc
        except FaultError as exc:
            if tries == last:
                return None, tries, exc
            yield network.env.timeout(policy.backoff_ms(tries))
        else:
            return result, tries, None
