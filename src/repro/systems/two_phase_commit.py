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
    remote_call,
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
    vectors (the version a session must observe).
    """
    # Fork: parallel prepare and commit rounds here; under faults the
    # presumed-abort rounds run branch by branch (different schedules).
    if system.cluster.faults is not None:
        merged = yield from _two_phase_commit_faulted(system, txn, branches, min_begin)
        return merged
    env = system.env
    obs = env.obs
    tracer = obs.tracer
    traced = tracer.enabled
    sites = system.sites
    items = sorted(branches.items(), key=lambda item: (-len(item[1]), item[0]))
    placement = system.placement
    coordinator = placement[items[0][0]]
    coordinator_track = sites[coordinator].trace_track
    if obs.enabled:
        obs.inflight_2pc += 1

    # Router -> coordinator dispatch.
    yield from system.client_hop(txn)

    def fan_out(make_branch, payload=None):
        """One protocol round: coordinator work + parallel branches."""
        processes = []
        for index, (unit, keys) in enumerate(items):
            site_index = placement[unit]
            args = (payload[index],) if payload is not None else ()
            branch = make_branch(sites[site_index], keys, *args)
            if site_index != coordinator:
                branch = remote_call(system.network, branch, category="2pc", txn=txn)
            processes.append(env.process(branch))
        return env.all_of(processes)

    # The coordinator pays per-branch marshalling / vote-collection /
    # decision-logging work on every round.
    coordinate = system.config.costs.coordinate_ms * len(items)

    # Round 1: dispatch branch work (locks acquired, operations run).
    # Branches are dispatched in global unit order, each waiting for
    # the previous branch's locks: ordered resource acquisition, the
    # classic discipline that makes distributed deadlock impossible
    # when two multi-unit transactions overlap in opposite directions.
    round_started = env.now
    yield from sites[coordinator].cpu.use(coordinate, txn=txn,
                                          track=coordinator_track)
    begin_vvs = []
    for unit, keys in sorted(items):
        site_index = placement[unit]
        branch = sites[site_index].execute_branch(txn, keys, min_begin)
        if site_index != coordinator:
            branch = remote_call(system.network, branch, category="2pc", txn=txn)
        begin_vv = yield from branch
        begin_vvs.append(begin_vv)
    # Re-align begin vectors with the (size-sorted) items order used by
    # the later rounds.
    by_unit = {unit: vv for (unit, _), vv in zip(sorted(items), begin_vvs)}
    begin_vvs = [by_unit[unit] for unit, _ in items]
    if traced:
        tracer.span("2pc_execute", round_started, env.now,
                    track=coordinator_track, txn=txn, branches=len(items))
        tracer.edge("2pc_round", round_started, txn=txn,
                    track=coordinator_track, round="execute",
                    branches=len(items))

    # Round 2: prepare — participants force-log and vote. Locks held.
    round_started = env.now
    yield from sites[coordinator].cpu.use(coordinate, txn=txn,
                                          track=coordinator_track)
    yield fan_out(lambda site, keys: site.prepare_branch(txn, keys))
    if traced:
        tracer.span("2pc_prepare", round_started, env.now,
                    track=coordinator_track, txn=txn, branches=len(items))
        tracer.edge("2pc_round", round_started, txn=txn,
                    track=coordinator_track, round="prepare",
                    branches=len(items))

    # Round 3: all voted yes -> commit decision fan-out. The window
    # between the prepare votes and this decision reaching a branch is
    # the 2PC uncertainty window the paper's Figure 1b illustrates.
    round_started = env.now
    yield from sites[coordinator].cpu.use(coordinate, txn=txn,
                                          track=coordinator_track)
    commit_vvs = yield fan_out(
        lambda site, keys, begin_vv: site.commit_branch(txn, keys, begin_vv),
        payload=begin_vvs,
    )
    if traced:
        tracer.span("2pc_decide", round_started, env.now,
                    track=coordinator_track, txn=txn, branches=len(items))
        tracer.edge("2pc_round", round_started, txn=txn,
                    track=coordinator_track, round="decide",
                    branches=len(items))

    merged = VersionVector.zeros(len(sites[0].svv))
    for commit_vv in commit_vvs:
        merged.merge(commit_vv)

    # Coordinator -> client reply.
    yield from system.client_hop(txn)
    if obs.enabled:
        obs.inflight_2pc -= 1
    return merged


def _two_phase_commit_faulted(
    system,
    txn: Transaction,
    branches: Dict[int, Tuple[Key, ...]],
    min_begin: Optional[VersionVector],
):
    """Presumed-abort 2PC: the termination protocol under faults.

    The coordinator's own work runs as a crash-raced process on the
    coordinator machine; remote branches go over guarded RPCs sourced
    at the coordinator. Any failure before the commit decision is
    durably taken (end of round 2) terminates by *presumed abort*:
    every branch that may hold locks is aborted, persistently until
    the abort lands or the branch's site is dead (whose lock table died
    with it). After the decision, commits are delivered persistently;
    a branch whose participant crashed in the uncertainty window is
    lost — never redone — which is the documented price of presumed
    abort without a coordinator redo log (DESIGN.md, Fault model).

    Rounds run sequentially per branch (no parallel fan-out): a failed
    branch must stop dispatching later rounds, and sequential guarded
    calls keep the failure handling exact. Faulted runs trade a little
    latency for that; unfaulted runs never come through here.
    """
    env = system.env
    obs = env.obs
    tracer = obs.tracer
    traced = tracer.enabled
    faults = system.cluster.faults
    sites = system.sites
    items = sorted(branches.items(), key=lambda item: (-len(item[1]), item[0]))
    placement = system.placement
    coordinator = placement[items[0][0]]
    coord_site = sites[coordinator]
    coordinator_track = coord_site.trace_track if traced else ""
    policy = RetryPolicy(faults.rpc, faults.rng)

    def _round(name, started):
        # Traced runs only: the round span + ordering edge, mirroring
        # the unfaulted path so chaos attribution sees commit_protocol.
        tracer.span(f"2pc_{name}", started, env.now,
                    track=coordinator_track, txn=txn, branches=len(items))
        tracer.edge("2pc_round", started, txn=txn,
                    track=coordinator_track, round=name, branches=len(items))

    if obs.enabled:
        obs.inflight_2pc += 1

    yield from system.client_hop(txn)
    coordinate = system.config.costs.coordinate_ms * len(items)
    #: Branches that may hold locks and need aborting on failure.
    touched: List[Tuple[int, Tuple[Key, ...]]] = []

    def _call(site_index, handler):
        """One guarded branch call (local branches are crash-raced only)."""
        if site_index == coordinator:
            return site_process(sites[site_index], handler)
        return guarded_call(
            system.network,
            sites[site_index],
            handler,
            src=coordinator,
            category="2pc",
            txn=txn,
        )

    try:
        # Round 1: branch execution, global unit order (deadlock-free).
        round_started = env.now
        yield from site_process(
            coord_site,
            coord_site.cpu.use(coordinate, txn=txn, track=coordinator_track),
        )
        by_unit: Dict[int, VersionVector] = {}
        for unit, keys in sorted(items):
            site_index = placement[unit]
            try:
                begin_vv = yield from _call(
                    site_index, sites[site_index].execute_branch(txn, keys, min_begin)
                )
            except RpcTimeout as exc:
                if exc.dispatched:
                    # The branch may still acquire locks at the live
                    # site; it must be aborted like an executed one.
                    touched.append((site_index, keys))
                raise
            touched.append((site_index, keys))
            by_unit[unit] = begin_vv
        begin_vvs = [by_unit[unit] for unit, _ in items]
        if traced:
            _round("execute", round_started)

        # Round 2: prepare votes, bounded retries (prepare is idempotent).
        round_started = env.now
        yield from site_process(
            coord_site,
            coord_site.cpu.use(coordinate, txn=txn, track=coordinator_track),
        )
        for unit, keys in items:
            site_index = placement[unit]
            failures = 0
            while True:
                try:
                    yield from _call(
                        site_index, sites[site_index].prepare_branch(txn, keys)
                    )
                    break
                except RpcTimeout:
                    failures += 1
                    if failures >= policy.attempts:
                        raise
                    yield env.timeout(policy.backoff_ms(failures - 1))
        if traced:
            _round("prepare", round_started)
    except FaultError as exc:
        yield from _abort_branches(system, txn, touched, coordinator)
        yield from system.client_hop(txn)
        if obs.enabled:
            obs.inflight_2pc -= 1
        raise TransactionAborted(exc.reason, f"2pc presumed abort: {exc}")

    # Commit point: every vote is in and the decision is (modeled as)
    # force-logged. From here the decision is delivered persistently.
    merged = VersionVector.zeros(len(sites[0].svv))
    round_started = env.now
    try:
        yield from site_process(
            coord_site,
            coord_site.cpu.use(coordinate, txn=txn, track=coordinator_track),
        )
    except SiteDown:
        # Coordinator crashed after logging the decision; delivery
        # continues below (participants would learn it from the
        # recovered coordinator's log).
        pass
    for index, (unit, keys) in enumerate(items):
        site_index = placement[unit]
        failures = 0
        while True:
            try:
                commit_vv = yield from _call(
                    site_index,
                    sites[site_index].commit_branch(txn, keys, begin_vvs[index]),
                )
                break
            except SiteDown:
                # Participant died in the uncertainty window: its
                # branch (volatile locks, undecided writes) is lost.
                commit_vv = None
                break
            except RpcTimeout:
                failures += 1
                yield env.timeout(policy.backoff_ms(min(failures - 1, 8)))
        if commit_vv is not None:
            merged.merge(commit_vv)
    if traced:
        _round("decide", round_started)

    yield from system.client_hop(txn)
    if obs.enabled:
        obs.inflight_2pc -= 1
    return merged


def _abort_branches(system, txn, touched, coordinator):
    """Deliver the presumed-abort decision to every touched branch.

    Persistent per branch: an undelivered abort would leak that
    branch's locks forever and stall every conflicting transaction.
    Terminates because link faults are finite, loss is < 1, and a dead
    site's locks died with it (abort skipped).
    """
    env = system.env
    faults = system.cluster.faults
    policy = RetryPolicy(faults.rpc, faults.rng)
    for site_index, keys in touched:
        failures = 0
        while True:
            site = system.sites[site_index]
            if not site.alive:
                break
            try:
                if site_index == coordinator:
                    yield from site_process(site, site.abort_branch(txn, keys))
                else:
                    yield from guarded_call(
                        system.network,
                        site,
                        site.abort_branch(txn, keys),
                        src=coordinator,
                        category="2pc",
                        txn=txn,
                    )
                break
            except SiteDown:
                break
            except RpcTimeout:
                failures += 1
                yield env.timeout(policy.backoff_ms(min(failures - 1, 8)))


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
