"""Two-phase commit coordination for the partitioned comparators.

The multi-master and partition-store systems coordinate transaction
branches at the granularity of their *placement units* — the
application-level partitions their offline partitioner assigns to
sites (YCSB's 100-key partitions, TPC-C's warehouses). A write set
spanning units runs as a distributed transaction (paper §I, §II-A,
§VI-A.2): one branch per unit, combined branch-work + prepare in the
first round, the global decision in the second. Branches at remote
sites pay network round trips; every branch pays per-branch dispatch
and prepare CPU, and holds its write locks across the uncertainty
window — blocking conflicting transactions, the effect Figure 1b
illustrates.

The schedule is the same with or without a fault injector: round 1 in
ascending unit order, prepare and commit fanned out in parallel. Branch
calls are guarded RPCs sourced at the coordinator, and its own work is
crash-raced on its machine. Any failure before the commit decision
terminates by *presumed abort*: every branch that may hold locks is
aborted, persistently until the abort lands or the branch's site is
dead. After the decision, commits are delivered persistently; a branch
whose participant crashed in the uncertainty window is lost.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.faults.errors import (
    FaultError,
    RpcTimeout,
    SiteDown,
    TransactionAborted,
)
from repro.sites.messages import (
    RetryPolicy,
    guarded_call,
    site_process,
    with_retries,
)
from repro.transactions import Key, Outcome, Transaction
from repro.versioning.vectors import VersionVector


def group_writes_by_unit(system, txn: Transaction) -> Dict[int, Tuple[Key, ...]]:
    """Split the write set into placement-unit branches."""
    groups: Dict[int, List[Key]] = {}
    unit_of = system.unit_of
    for key in txn.write_set:
        unit = unit_of(key)
        if unit is None:
            raise ValueError(f"write to static replicated table: {key!r}")
        groups.setdefault(unit, []).append(key)
    return {unit: tuple(keys) for unit, keys in groups.items()}


def two_phase_commit(
    system,
    txn: Transaction,
    branches: Dict[int, Tuple[Key, ...]],
    min_begin: Optional[VersionVector] = None,
):
    """Run ``txn`` as a distributed write across unit ``branches``.

    Generator returning the element-wise max of the branch commit
    vectors (the version a session must observe). Raises
    :class:`TransactionAborted` when a fault ends the transaction
    before the commit decision (presumed abort).
    """
    env = system.env
    obs = env.obs
    tracer = obs.tracer
    traced = tracer.enabled
    sites = system.sites
    items = sorted(branches.items(), key=lambda item: (-len(item[1]), item[0]))
    placement = system.placement
    coordinator = placement[items[0][0]]
    coord_site = sites[coordinator]
    coordinator_track = coord_site.trace_track
    if obs.enabled:
        obs.inflight_2pc += 1

    # Router -> coordinator dispatch.
    yield from system.client_hop(txn)

    def fan_out(branch):
        """One parallel round: ``branch(index, site, keys)`` per branch."""
        return env.all_of([
            env.process(branch(index, placement[unit], keys))
            for index, (unit, keys) in enumerate(items)
        ])

    # The coordinator pays per-branch marshalling / vote-collection /
    # decision-logging work on every round.
    coordinate = system.config.costs.coordinate_ms * len(items)

    def coordinate_round():
        return site_process(
            coord_site,
            coord_site.cpu.use(coordinate, txn=txn, track=coordinator_track),
        )

    def traced_round(name, started):
        tracer.span(f"2pc_{name}", started, env.now,
                    track=coordinator_track, txn=txn, branches=len(items))
        tracer.edge("2pc_round", started, txn=txn,
                    track=coordinator_track, round=name, branches=len(items))

    def prepare(_index, site_index, keys):
        """One vote. A timed-out prepare (idempotent) is retried a
        bounded number of times; a dead participant ends it. Returns
        the fault that ended it, or None for a yes vote."""
        failures = 0
        while True:
            try:
                yield from _branch_call(
                    system, txn, coordinator, site_index,
                    sites[site_index].prepare_branch(txn, keys),
                )
                return None
            except RpcTimeout as exc:
                failures += 1
                policy = _retry_policy(system)
                if failures >= policy.attempts:
                    return exc
                yield env.timeout(policy.backoff_ms(failures - 1))
            except FaultError as exc:
                return exc

    def commit(index, site_index, keys):
        return _deliver(
            system, txn, coordinator, site_index,
            lambda site: site.commit_branch(txn, keys, begin_vvs[index]),
        )

    #: Branches that may hold locks and need aborting on failure.
    touched: List[Tuple[int, Tuple[Key, ...]]] = []
    try:
        # Round 1: dispatch branch work (locks acquired, operations run).
        # Branches are dispatched in global unit order, each waiting for
        # the previous branch's locks: ordered resource acquisition, the
        # classic discipline that makes distributed deadlock impossible
        # when two multi-unit transactions overlap in opposite directions.
        round_started = env.now
        yield from coordinate_round()
        by_unit: Dict[int, VersionVector] = {}
        for unit, keys in sorted(items):
            site_index = placement[unit]
            try:
                by_unit[unit] = yield from _branch_call(
                    system, txn, coordinator, site_index,
                    sites[site_index].execute_branch(txn, keys, min_begin),
                )
            except RpcTimeout as exc:
                if exc.dispatched:
                    # The branch may still acquire locks at the live
                    # site; it must be aborted like an executed one.
                    touched.append((site_index, keys))
                raise
            touched.append((site_index, keys))
        begin_vvs = [by_unit[unit] for unit, _ in items]
        if traced:
            traced_round("execute", round_started)

        # Round 2: prepare — participants force-log and vote. Locks
        # held. Every vote is in before a failed one aborts the rest.
        round_started = env.now
        yield from coordinate_round()
        votes = yield fan_out(prepare)
        for failure in votes:
            if failure is not None:
                raise failure
        if traced:
            traced_round("prepare", round_started)
    except FaultError as exc:
        yield from _abort_branches(system, txn, touched, coordinator)
        yield from system.client_hop(txn)
        if obs.enabled:
            obs.inflight_2pc -= 1
        raise TransactionAborted(exc.reason, f"2pc presumed abort: {exc}")

    # Round 3: all voted yes -> commit decision fan-out. The window
    # between the prepare votes and this decision reaching a branch is
    # the 2PC uncertainty window the paper's Figure 1b illustrates.
    # The decision is (modeled as) force-logged here, so a coordinator
    # that crashes now still has it delivered (participants would learn
    # it from the recovered coordinator's log).
    round_started = env.now
    try:
        yield from coordinate_round()
    except SiteDown:
        pass
    commit_vvs = yield fan_out(commit)
    if traced:
        traced_round("decide", round_started)

    merged = VersionVector.zeros(len(sites[0].svv))
    for commit_vv in commit_vvs:
        if commit_vv is not None:
            merged.merge(commit_vv)

    # Coordinator -> client reply.
    yield from system.client_hop(txn)
    if obs.enabled:
        obs.inflight_2pc -= 1
    return merged


def _retry_policy(system) -> RetryPolicy:
    """The injector's retry policy (only a fault reaches for it)."""
    faults = system.cluster.faults
    return RetryPolicy(faults.rpc, faults.rng)


def _branch_call(system, txn, coordinator, site_index, handler):
    """One branch call from the coordinator: guarded if the branch is
    remote, crash-raced on the coordinator if it is local."""
    site = system.sites[site_index]
    if site_index == coordinator:
        return site_process(site, handler)
    return guarded_call(
        system.network, site, handler, src=coordinator, category="2pc", txn=txn
    )


def _deliver(system, txn, coordinator, site_index, decide):
    """Deliver a global decision, ``decide(site)``, to one branch.

    Persistent: both decisions are idempotent, so a timed-out delivery
    is retried until it lands. A dead participant returns None — its
    volatile locks and undecided writes died with it, and a branch lost
    after the commit decision is never redone (the documented price of
    presumed abort without a coordinator redo log, DESIGN.md §7).
    Terminates because link faults are finite and loss is < 1.
    """
    failures = 0
    while True:
        try:
            return (yield from _branch_call(
                system, txn, coordinator, site_index, decide(system.sites[site_index])
            ))
        except SiteDown:
            return None
        except RpcTimeout:
            failures += 1
            yield system.env.timeout(
                _retry_policy(system).backoff_ms(min(failures - 1, 8))
            )


def _abort_branches(system, txn, touched, coordinator):
    """Deliver the presumed-abort decision to every touched branch.

    An undelivered abort would leak that branch's locks forever and
    stall every conflicting transaction.
    """
    for site_index, keys in touched:
        if not system.sites[site_index].alive:
            continue  # its lock table died with it
        yield from _deliver(
            system, txn, coordinator, site_index,
            lambda site: site.abort_branch(txn, keys),
        )


def submit_partitioned_write(system, txn: Transaction, session, min_begin):
    """Shared write path of the fixed-mastership systems.

    A write set within one placement unit executes locally at the
    unit's master; anything spanning units goes through 2PC. Generator
    returning an :class:`Outcome`.
    """
    branches = group_writes_by_unit(system, txn)

    if len(branches) == 1:
        site = system.sites[system.placement[next(iter(branches))]]
        yield from system.client_hop(txn)  # router -> client (site choice)
        # Fixed mastership has no failover: retry the unit's master a
        # bounded number of times, then abort.
        tvv, retries, error = yield from with_retries(
            system.network,
            lambda: guarded_call(
                system.network,
                site,
                site.execute_update(txn, min_begin),
                category="client",
                txn=txn,
            ),
        )
        if error is not None:
            return Outcome(committed=False, retries=retries, abort_reason=error.reason)
        session.observe(tvv)
        return Outcome(committed=True, retries=retries)

    try:
        tvv = yield from two_phase_commit(system, txn, branches, min_begin)
    except TransactionAborted as exc:
        return Outcome(committed=False, distributed=True, abort_reason=exc.reason)
    session.observe(tvv)
    return Outcome(committed=True, distributed=True)
