"""Property tests for the fault-injected protocol stack.

Hypothesis generates arbitrary valid fault schedules (crashes with and
without restarts, drops, loss, extra delay) and the properties assert
the robustness contract of DESIGN.md's fault model:

* **termination** — every submitted transaction completes (commit or
  abort); no fault schedule may wedge a client. For the comparators,
  no live site holds a lock after the drain;
* **SI on survivors** — sites that are alive at the end agree on the
  per-record version order (write-write exclusion survived failover);
* **restart convergence** — when every crash has a restart, the
  rejoined replicas converge with the survivors once replication
  drains;
* **the fault matrix** — every system, unfaulted and under each named
  scenario, terminates, leaves no lock held and (replicated) converges
  on its live replicas;
* **merge_logs equivalence** — the ready-queue merge of the suffix the
  logs retain after the checkpoint produces a dependency-respecting
  order matching the naive quadratic reference.

Example counts are kept small: each example is a full (short)
simulation run.
"""

import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.faults.plan import (
    FRONTEND, SCENARIOS, CrashFault, FaultPlan, LinkFault, build_scenario,
)
from repro.faults.deadlines import TIMEOUT_MS
from repro.faults.injector import FaultInjector
from repro.partitioning.schemes import PartitionScheme
from repro.replication import recovery
from repro.replication.recovery import merge_logs
from repro.sim.config import ClusterConfig
from repro.sites.messages import MAX_RETRIES
from repro.systems import Cluster, build_system
from repro.transactions import Transaction
from tests.helpers import assert_converged, run_process

NUM_SITES = 3

#: The comparators whose fault handling is part of their one schedule:
#: 2PC (multi-master, partition-store), scatter-gather reads
#: (partition-store) and record shipping (LEAP).
COMPARATORS = ("multi-master", "partition-store", "leap")
#: Systems that run on a partitioned, unreplicated cluster.
UNREPLICATED = ("partition-store", "leap")

#: Every evaluated system; single-master masters everything at site 0.
SYSTEMS = ("dynamast", "single-master") + COMPARATORS
#: Simulated span of a fault-matrix run (8 clients x 40 transactions:
#: 50-55 ms on DynaMast and single-master, 80-130 ms on the
#: comparators), the duration each scenario is scaled to.
MATRIX_SPAN_MS = 120.0
#: The fault transitions each scenario's plan makes.
SCENARIO_EVENTS = {"crash-restart": ["crash", "restart"], "crash": ["crash"]}

#: Site 2 durably logs a grant whose reply the link drops, then crashes;
#: the selector's grant loop fails over while site 2 is still down
#: (tests/test_regressions.py, TestAmbiguousGrantFailover).
AMBIGUOUS_GRANT_PLAN = FaultPlan(
    crashes=(CrashFault(2, at_ms=10.0, restart_at_ms=403.0),),
    links=(LinkFault(src=2, dst=FRONTEND, start_ms=0.0, end_ms=10.0, drop=True),),
)


@st.composite
def fault_plans(draw, require_restart=False, horizon_ms=1200.0):
    """An arbitrary valid schedule over a 3-site cluster."""
    endpoints = [FRONTEND, 0, 1, 2]
    crashes = []
    for site in draw(
        st.lists(st.sampled_from(range(NUM_SITES)), unique=True, max_size=NUM_SITES - 1)
    ):
        at_ms = draw(st.floats(10.0, horizon_ms * 0.6))
        if require_restart or draw(st.booleans()):
            outage = draw(st.floats(50.0, 600.0))
            crashes.append(CrashFault(site, at_ms=at_ms, restart_at_ms=at_ms + outage))
        else:
            crashes.append(CrashFault(site, at_ms=at_ms))
    links = []
    for _ in range(draw(st.integers(0, 3))):
        src = draw(st.sampled_from(endpoints))
        dst = draw(st.sampled_from([end for end in endpoints if end != src]))
        start_ms = draw(st.floats(0.0, horizon_ms * 0.6))
        length = draw(st.floats(10.0, 400.0))
        drop = draw(st.booleans())
        links.append(LinkFault(
            src, dst, start_ms, start_ms + length,
            drop=drop,
            loss=0.0 if drop else draw(st.floats(0.0, 0.6)),
            extra_delay_ms=draw(st.floats(0.0, 2.0)),
        ))
    plan = FaultPlan(crashes=tuple(crashes), links=tuple(links))
    plan.validate(NUM_SITES)
    return plan


def run_faulted_workload(
    plan,
    seed=0,
    system_name="dynamast",
    wide_reads=False,
    num_clients=5,
    txns_per_client=10,
    horizon_ms=30_000.0,
):
    """Finite random clients against one system under ``plan``.

    Returns after asserting that every client process finished — the
    termination property — and draining replication. ``wide_reads``
    lets a read span up to three keys, like a write, so it can cover
    several units (partition-store's scatter-gather).
    """
    cluster = Cluster(
        ClusterConfig(num_sites=NUM_SITES, seed=seed),
        replicated=system_name not in UNREPLICATED,
    )
    scheme = PartitionScheme(lambda key: key[1] // 5, num_partitions=8)
    kwargs = {"scheme": scheme}
    if system_name not in ("dynamast", "single-master"):
        kwargs["placement"] = {p: p % NUM_SITES for p in range(8)}
    system = build_system(system_name, cluster, **kwargs)
    injector = FaultInjector(cluster, plan, cluster.streams.faults())
    injector.install()

    outcomes = []

    def client(client_id):
        rng = random.Random(seed * 1000 + client_id)
        session = system.new_session(client_id)

        def draw_keys():
            return tuple({
                ("t", rng.randrange(40)) for _ in range(rng.randint(1, 3))
            })

        for _ in range(txns_per_client):
            if rng.random() < 0.7:
                txn = Transaction("w", client_id, write_set=draw_keys())
            elif wide_reads:
                txn = Transaction("r", client_id, read_set=draw_keys())
            else:
                txn = Transaction("r", client_id, read_set=(("t", rng.randrange(40)),))
            outcome = yield from system.submit(txn, session)
            outcomes.append(outcome)
        return True

    processes = [
        cluster.env.process(client(client_id)) for client_id in range(num_clients)
    ]
    cluster.env.run(until=horizon_ms)
    stuck = [index for index, process in enumerate(processes) if process.is_alive]
    assert not stuck, (
        f"clients {stuck} never finished under {plan!r} — "
        "a transaction failed to terminate"
    )
    assert len(outcomes) == num_clients * txns_per_client
    # Drain replication / catch-up before inspecting state.
    cluster.env.run(until=cluster.env.now + 1000.0)
    return cluster, system, injector, outcomes


class TestTermination:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(plan=fault_plans(), seed=st.integers(0, 2**16))
    def test_dynamast_every_txn_terminates(self, plan, seed):
        _, _, _, outcomes = run_faulted_workload(plan, seed=seed)
        assert all(hasattr(outcome, "committed") for outcome in outcomes)

    @pytest.mark.parametrize("system_name", COMPARATORS)
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(plan=fault_plans(), seed=st.integers(0, 2**16))
    def test_comparator_every_txn_terminates(self, system_name, plan, seed):
        """The termination protocols (presumed-abort 2PC, retried
        sub-reads, record shipping): no schedule may wedge a later
        client or leak a lock."""
        cluster, _, _, _ = run_faulted_workload(
            plan, seed=seed, system_name=system_name, wide_reads=True
        )
        assert_no_locks_held(cluster)


def assert_no_locks_held(cluster):
    """After the drain, no live site's lock table holds a key: every
    branch was committed or aborted, every sub-read and ship-out ended."""
    for site in cluster.sites:
        if site.alive:
            held = site.database.locks.held_count()
            assert held == 0, f"site {site.index} still holds {held} locks"


class TestFaultMatrix:
    @pytest.mark.parametrize("seed", (0, 1))
    @pytest.mark.parametrize("scenario", ("no-fault",) + SCENARIOS)
    @pytest.mark.parametrize("system_name", SYSTEMS)
    def test_terminates_releases_locks_and_converges(self, system_name, scenario, seed):
        """An empty plan and each named scenario, scaled to the run:
        every transaction terminates, no live site holds a lock after
        the drain, and a replicated system's live replicas converge."""
        plan = (
            FaultPlan() if scenario == "no-fault"
            else build_scenario(scenario, NUM_SITES, MATRIX_SPAN_MS)
        )
        cluster, _, injector, _ = run_faulted_workload(
            plan, seed=seed, system_name=system_name, wide_reads=True,
            num_clients=8, txns_per_client=40,
        )
        assert [event.kind for event in injector.events] == (
            SCENARIO_EVENTS.get(scenario, [])
        )
        assert_no_locks_held(cluster)
        if system_name not in UNREPLICATED:
            assert_converged([site.database for site in cluster.sites if site.alive])


class TestPresumedAbort:
    def test_prepare_timeout_aborts_every_branch(self):
        """One branch's prepare exhausts its retries while the other
        branch has voted yes: both branches are aborted, no lock
        remains, and the transaction aborts on the timeout."""
        cluster = Cluster(ClusterConfig(num_sites=NUM_SITES))
        system = build_system(
            "multi-master", cluster,
            scheme=PartitionScheme(lambda key: key[1] // 5, num_partitions=8),
            placement={p: p % NUM_SITES for p in range(8)},
        )
        injector = FaultInjector(cluster, FaultPlan(), cluster.streams.faults())
        injector.install()
        env = cluster.env
        slow = cluster.sites[1]
        attempts = []

        def never_votes(txn, keys):
            # Votes long after every prepare attempt timed out.
            attempts.append(env.now)
            yield env.timeout(1000 * TIMEOUT_MS)
            return True

        slow.prepare_branch = never_votes
        # Unit 0 (site 0) and unit 1 (site 1): site 0 coordinates.
        txn = Transaction("w", 0, write_set=(("t", 0), ("t", 1), ("t", 5)))
        outcome = run_process(
            env, env.process(system.submit(txn, system.new_session(0)))
        )
        assert not outcome.committed
        assert outcome.abort_reason == "timeout"
        assert len(attempts) == MAX_RETRIES + 1
        for site in cluster.sites[:2]:
            assert txn.txn_id in site._branch_aborted
            assert not site._branch_locked
        assert_no_locks_held(cluster)


class TestLocalizationAbort:
    def test_only_shipped_groups_change_owner(self):
        """LEAP ships two groups in parallel and one source is down:
        the transaction aborts, the group that landed is owned by the
        execution site, and the other stays with its source."""
        cluster = Cluster(ClusterConfig(num_sites=NUM_SITES), replicated=False)
        system = build_system(
            "leap", cluster,
            scheme=PartitionScheme(lambda key: key[1] // 5, num_partitions=8),
            placement={p: p % NUM_SITES for p in range(8)},
        )
        plan = FaultPlan(crashes=(CrashFault(1, at_ms=0.0),))
        FaultInjector(cluster, plan, cluster.streams.faults()).install()
        env = cluster.env
        down, landed = ("t", 5), ("t", 10)  # units 1 and 2: sites 1 and 2
        # Client 0 executes at site 0.
        txn = Transaction("w", 0, write_set=(down, landed))
        outcome = run_process(
            env, env.process(system.submit(txn, system.new_session(0)))
        )
        assert not outcome.committed
        assert outcome.abort_reason == "site_crash"
        assert system.owner_of(landed) == 0
        assert system.owner_of(down) == 1
        assert system.records_shipped == 1
        assert system._migration_locks.held_count() == 0
        assert_no_locks_held(cluster)


class TestSurvivorInvariants:
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(plan=fault_plans(), seed=st.integers(0, 2**16))
    def test_si_write_write_exclusion_on_survivors(self, plan, seed):
        cluster, _, injector, _ = run_faulted_workload(plan, seed=seed)
        alive = [site for site in cluster.sites if site.alive]
        assert alive, "at least one site survives every valid plan"
        reference = {}
        for site in alive:
            for table in site.database.tables.values():
                for record in table:
                    stamps = [
                        (version.origin, version.seq)
                        for version in record.versions()
                        if version.seq > 0
                    ]
                    if not stamps:
                        # Snapshot reads materialize placeholder
                        # records holding only the initial (0, 0)
                        # version; those never replicate, and only
                        # committed versions join the invariant.
                        continue
                    assert len(stamps) == len(set(stamps)), (
                        f"duplicate commit stamp on {record.key}"
                    )
                    previous = reference.setdefault(record.key, stamps)
                    shorter = min(len(previous), len(stamps))
                    assert previous[-shorter:] == stamps[-shorter:], (
                        f"survivors disagree on version order of {record.key}"
                    )

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(plan=fault_plans(require_restart=True), seed=st.integers(0, 2**16))
    @example(plan=AMBIGUOUS_GRANT_PLAN, seed=0)
    def test_restart_convergence(self, plan, seed):
        """With every crash restarted, all replicas converge."""
        cluster, _, injector, _ = run_faulted_workload(plan, seed=seed)
        assert all(site.alive for site in cluster.sites)
        svvs = {site.svv.to_tuple() for site in cluster.sites}
        assert len(svvs) == 1, f"replicas did not converge: {svvs}"
        assert_converged([site.database for site in cluster.sites])
        # Mastership stayed a partition of the partition space.
        mastered = [p for site in cluster.sites for p in site.mastered]
        assert len(mastered) == len(set(mastered)) == 8


def naive_merge(logs, start=None):
    """Quadratic reference: rescan every log head after each apply.

    Resumes from ``start``, by default the checkpoint's vector, where
    every log's retained records begin."""
    num = len(logs)
    svv = list(start or (len(log) - len(log.records) for log in logs))
    cursors = [0] * num
    ordered = []
    total = sum(len(log.records) for log in logs)
    while len(ordered) < total:
        progressed = False
        for index in range(num):
            while cursors[index] < len(logs[index].records):
                record = logs[index].records[cursors[index]]
                if record.seq != svv[index] + 1:
                    break
                if any(
                    record.tvv[k] > svv[k] for k in range(num) if k != index
                ):
                    break
                ordered.append(record)
                svv[index] = record.seq
                cursors[index] += 1
                progressed = True
        if not progressed:
            raise ValueError("logs are inconsistent")
    return ordered


class TestMergeLogsEquivalence:
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(plan=fault_plans(require_restart=True), seed=st.integers(0, 2**16))
    def test_matches_naive_reference_on_real_logs(self, plan, seed):
        """The ready-queue merge and the naive reference order the
        suffix a real faulted run's logs retain after its checkpoint
        (updates + remaster markers; the run folds every 5 appends)
        identically up to reordering of independent records: same
        record multiset, same per-origin FIFO order, and an admissible
        prefix at every step."""
        with mock.patch.object(recovery, "FOLD_EVERY", 5):
            cluster, _, _, _ = run_faulted_workload(plan, seed=seed)
        logs = [site.log for site in cluster.sites]
        vector = list(cluster.checkpoint.vector)
        assert sum(vector) > 0, "nothing was folded"
        fast = merge_logs(logs)
        reference = naive_merge(logs)
        assert len(fast) == len(reference) == sum(len(log.records) for log in logs)
        for origin, log in enumerate(logs):
            fast_seqs = [r.seq for r in fast if r.origin == origin]
            ref_seqs = [r.seq for r in reference if r.origin == origin]
            assert fast_seqs == ref_seqs == list(range(vector[origin] + 1, len(log) + 1))
        # Admissibility of the fast order at every position.
        svv = vector
        for record in fast:
            assert record.seq == svv[record.origin] + 1
            assert all(
                record.tvv[k] <= svv[k]
                for k in range(len(logs)) if k != record.origin
            ), f"record {record} applied before its dependencies"
            svv[record.origin] = record.seq
