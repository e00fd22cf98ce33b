"""DynaMast's one remastering protocol under faults.

Algorithm 1's schedule — shared-lock lookup, exclusive upgrade, lock
downgrade of stationary partitions, parallel release -> grant chains —
is the schedule faulted runs measure too. These tests drive failures
into the parallel chains and check what the driver leaves behind, and
check single mastership at every instant (``mastership_oracle``) over
the named fault scenarios and generated fault plans.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.bench.harness import run_benchmark
from repro.core.site_selector import SiteSelector
from repro.core.strategy import StrategyWeights
from repro.faults import FRONTEND, CrashFault, FaultPlan, LinkFault, build_scenario
from repro.faults.chaos import run_chaos
from repro.faults.injector import FaultInjector
from repro.obs import Observability
from repro.partitioning.schemes import PartitionScheme
from repro.sim.config import ClusterConfig
from repro.systems import Cluster, build_system
from repro.transactions import Transaction
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload
from tests.helpers import mastership_oracle, run_process
from tests.test_faults_properties import (
    AMBIGUOUS_GRANT_PLAN,
    fault_plans,
    run_faulted_workload,
)

#: The named fail-stop and gray scenarios.
SCENARIOS = (
    "crash-restart", "crash", "partition", "lossy",
    "fail_slow_master", "degraded_wan_link", "flapping_site", "gray_storm",
)

#: Partitions 0 and 1 at site 0, 2 and 4 at site 1, 3 and 5 at site 2.
PLACEMENT = {0: 0, 1: 0, 2: 1, 3: 2, 4: 1, 5: 2}
#: Writes partitions 0-3: site 0 is the destination, partitions 0 and 1
#: stay there (downgraded), and one chain each runs from sites 1 and 2.
WRITE_SET = (("t", 0), ("t", 5), ("t", 10), ("t", 15))


def remastering_cluster(plan):
    """Three sites under ``plan`` whose strategy picks the lowest
    healthy site: zero weights tie every candidate, and without a
    tie-break stream the lowest site id wins."""
    cluster = Cluster(ClusterConfig(num_sites=3))
    system = build_system(
        "dynamast", cluster,
        scheme=PartitionScheme(lambda key: key[1] // 5, num_partitions=6),
        placement=PLACEMENT,
        weights=StrategyWeights(balance=0.0, delay=0.0, intra_txn=0.0),
    )
    system.selector.strategy._rng = None
    FaultInjector(cluster, plan, cluster.streams.faults()).install()
    return cluster, system


def submit_write(cluster, system, write_set=WRITE_SET):
    txn = Transaction("w", 0, write_set=write_set)
    env = cluster.env
    return run_process(env, env.process(system.submit(txn, system.new_session(0))))


def assert_quiet_and_consistent(cluster, system):
    """No partition lock is held, and every site masters exactly what
    the selector's table says."""
    table = system.selector.table
    for partition in PLACEMENT:
        lock = table.info(partition).lock
        assert not lock.read_locked and not lock.write_locked, partition
    for site in cluster.sites:
        assert site.mastered == {
            p for p in PLACEMENT if table.master_of(p) == site.index
        }, f"site {site.index} disagrees with the selector's table"


class TestFailureInsideTheParallelSchedule:
    def test_destination_crash_mid_chains_runs_a_second_round(self):
        """Site 0, the destination, crashes while both grants are in
        flight: the chains fail over to site 1, round one leaves
        partitions 0 and 1 on the dead site, and a second round moves
        them so the transaction commits at a healthy site."""
        plan = FaultPlan(crashes=(CrashFault(0, at_ms=0.8),))
        with mastership_oracle() as violations:
            cluster, system = remastering_cluster(plan)
            outcome = submit_write(cluster, system)
        selector = system.selector
        assert outcome.committed and outcome.remastered
        # Two chains in round one, one forced move off site 0 in round two.
        assert selector.remaster_operations == 3
        masters = {selector.table.master_of(p) for p in range(4)}
        assert masters == {1}
        assert cluster.health(1) > 0
        assert_quiet_and_consistent(cluster, system)
        assert violations == []

    def test_release_timeout_keeps_the_sibling_move(self):
        """Site 2 is alive but unreachable: its chain's release times
        out while the chain from site 1 completes. The transaction
        aborts on the timeout, and partition 2 is in the table at
        site 0, where it is mastered. Once site 2 is reachable, a
        remastering steered to site 2 moves partition 2 from its real
        master: had the driver dropped the completed move, site 2 would
        gain it while site 0 still masters it."""
        plan = FaultPlan(links=(
            LinkFault(src=FRONTEND, dst=2, start_ms=0.0, end_ms=2_000.0, drop=True),
        ))
        with mastership_oracle() as violations:
            cluster, system = remastering_cluster(plan)
            selector = system.selector
            outcome = submit_write(cluster, system)
            assert not outcome.committed
            assert outcome.abort_reason == "timeout"
            assert cluster.sites[2].alive
            assert cluster.faults.detector.is_suspected(2)
            assert selector.table.master_of(2) == 0
            assert selector.table.master_of(3) == 2
            assert_quiet_and_consistent(cluster, system)

            cluster.run(until=2_000.0)
            decide = selector.strategy.decide

            def to_site_2(partitions, site_vvs, session_vv, exclude, health):
                return decide(partitions, site_vvs, session_vv,
                              exclude={0, 1}, health=health)

            selector.strategy.decide = to_site_2
            outcome = submit_write(cluster, system, (("t", 10), ("t", 15)))
        assert outcome.committed and outcome.remastered
        assert selector.table.master_of(2) == 2
        assert_quiet_and_consistent(cluster, system)
        assert violations == []


class TestSingleMastership:
    @pytest.mark.parametrize("defenses", ("fixed", "adaptive"))
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_named_scenarios(self, scenario, defenses):
        with mastership_oracle() as violations:
            for seed in range(3):
                run_chaos("dynamast", scenario, num_clients=8,
                          duration_ms=1000.0, seed=seed, defenses=defenses)
        assert violations == []

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(plan=fault_plans(), seed=st.integers(0, 2**16))
    @example(plan=AMBIGUOUS_GRANT_PLAN, seed=0)
    def test_generated_fault_plans(self, plan, seed):
        with mastership_oracle() as violations:
            run_faulted_workload(plan, seed=seed)
        assert violations == []


def test_faulted_routing_records_the_selector_lock_phase():
    """Every update routed in a traced crash-restart run has a
    ``selector_lock`` timing and span, as in an unfaulted run."""
    routed = []
    route_update = SiteSelector.route_update

    def spy(self, txn, session=None):
        route = yield from route_update(self, txn, session)
        routed.append(txn)
        return route

    obs = Observability()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SiteSelector, "route_update", spy)
        run_benchmark(
            "dynamast",
            YCSBWorkload(YCSBConfig(num_partitions=40, rmw_fraction=0.5)),
            num_clients=8, duration_ms=600.0, warmup_ms=100.0,
            cluster_config=ClusterConfig(num_sites=3), seed=7, obs=obs,
            fault_plan=build_scenario("crash-restart", num_sites=3,
                                      duration_ms=600.0),
        )
    locked = {span.txn_id for span in obs.tracer.spans
              if span.name == "selector_lock"}
    assert routed
    for txn in routed:
        assert "selector_lock" in txn.timings, txn.txn_id
        assert txn.txn_id in locked, txn.txn_id
