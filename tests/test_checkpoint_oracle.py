"""Checkpoint plus suffix is full replay, on real histories (paper §V-C).

A history is what a finished ``run_faulted_workload`` logged, with and
without faults, run with folding off so that its logs still hold every
record. Any downward-closed cut of it — the vector after a prefix of a
random Equation-1 order — is folded into a checkpoint. Recovering from
that checkpoint plus the suffix the logs retain must rebuild the full
replay stamp for stamp (``assert_converged``), with the same svv and
the same mastership map, and the checkpoint must hold exactly the cut.
Two seeded mutants show the oracle has teeth.
"""

import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan
from repro.replication import merge_logs, recover_database, recover_mastership
from repro.replication import recovery
from repro.replication.log import UPDATE
from repro.replication.recovery import Checkpoint
from repro.sim.config import ClusterConfig
from repro.systems import Cluster
from tests.helpers import assert_converged
from tests.test_faults_properties import (
    AMBIGUOUS_GRANT_PLAN,
    NUM_SITES,
    fault_plans,
    naive_merge,
    run_faulted_workload,
)

#: A cadence no test run reaches: nothing is folded.
NEVER = 10**9


def history(plan, seed, fold_every=NEVER):
    """The finished run of ``plan``: its cluster, outcomes and load-time
    placement."""
    with mock.patch.object(recovery, "FOLD_EVERY", fold_every):
        cluster, _, injector, outcomes = run_faulted_workload(plan, seed=seed)
    return cluster, outcomes, injector.initial_mastership


def logged(plan, seed):
    """Every record ``plan``'s run logged, per origin, and its placement."""
    cluster, _, initial = history(plan, seed)
    assert not sum(cluster.checkpoint.vector)
    return [list(site.log.records) for site in cluster.sites], initial


def random_cut(records, rng, length):
    """The vector after ``length`` records of a random Equation-1 order
    of ``records``: every downward-closed cut is one of these."""
    svv = [0] * len(records)
    for _ in range(length):
        ready = [
            origin for origin, own in enumerate(records)
            if svv[origin] < len(own) and all(
                need <= svv[k]
                for k, need in enumerate(own[svv[origin]].tvv) if k != origin
            )
        ]
        svv[rng.choice(ready)] += 1
    return svv


def recover(cluster, checkpoint, initial, merge=merge_logs):
    """``(database, svv, mastership)`` from ``checkpoint`` plus the
    suffix ``cluster``'s logs retain."""
    records = merge([site.log for site in cluster.sites])
    database, svv = recover_database(checkpoint, records)
    return database, svv.to_tuple(), recover_mastership(checkpoint, records, initial)


def check_cut(records, initial, cut, merge=merge_logs):
    """The oracle: fold ``records`` at ``cut``, then recover."""
    cluster = Cluster(ClusterConfig(num_sites=NUM_SITES))
    for site, own in zip(cluster.sites, records):
        for record in own:
            site.log.append(record)
    full_database, full_svv, full_mastership = recover(
        cluster, Checkpoint(cluster.sites), initial
    )
    cluster.checkpoint.fold(cut)
    assert list(cluster.checkpoint.vector) == cut
    for site, own in zip(cluster.sites, records):
        assert site.log.records == own[cut[site.index]:]
    database, svv, mastership = recover(cluster, cluster.checkpoint, initial, merge)
    assert svv == full_svv
    assert mastership == full_mastership
    assert_converged([full_database, database])


class TestCheckpointPlusSuffix:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        plan=st.one_of(st.just(FaultPlan()), fault_plans()),
        seed=st.integers(0, 2**16),
        rng=st.randoms(use_true_random=False),
        share=st.floats(0.0, 1.0),
    )
    @example(plan=AMBIGUOUS_GRANT_PLAN, seed=0, rng=random.Random(3), share=0.5)
    def test_any_cut_recovers_the_full_replay(self, plan, seed, rng, share):
        records, initial = logged(plan, seed)
        total = sum(len(own) for own in records)
        check_cut(records, initial, random_cut(records, rng, round(share * total)))

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(plan=fault_plans(require_restart=True), seed=st.integers(0, 2**16))
    @example(plan=AMBIGUOUS_GRANT_PLAN, seed=0)
    def test_folding_in_a_run_changes_nothing_it_simulates(self, plan, seed):
        """Folding every 3 appends, restarts recover from the checkpoint:
        the run's outcomes, clock, replicas and mastership are those of
        the same run folding nothing, and its own checkpoint plus suffix
        rebuilds its replicas."""
        folded, outcomes, initial = history(plan, seed, fold_every=3)
        whole, whole_outcomes, _ = history(plan, seed)
        assert sum(folded.checkpoint.vector) > 0
        assert outcomes == whole_outcomes
        assert folded.env.now == whole.env.now
        for site, other in zip(folded.sites, whole.sites):
            assert site.svv == other.svv
            assert site.mastered == other.mastered
            assert_converged([site.database, other.database])
        database, svv, mastership = recover(folded, folded.checkpoint, initial)
        assert svv == folded.sites[0].svv.to_tuple()
        assert_converged([folded.sites[0].database, database])
        for site in folded.sites:
            assert site.mastered == {p for p, s in mastership.items() if s == site.index}


class TestTheOracleHasTeeth:
    @pytest.fixture
    def half_cut(self):
        records, initial = logged(FaultPlan(), seed=1)
        total = sum(len(own) for own in records)
        return records, initial, random_cut(records, random.Random(0), total // 2)

    @pytest.mark.parametrize("dropped", [False, True], ids=["kept", "dropped"])
    def test_catches_a_fold_one_record_above_the_cut(self, half_cut, monkeypatch, dropped):
        """The mutant folds the first update record above the cut, and
        either still retains it (replayed twice) or drops it too."""
        real = recovery._merge

        def one_above(logs, until):
            ordered, reached = real(logs, until)
            for index, log in enumerate(logs):
                above = log.records[reached[index] - (len(log) - len(log.records)):]
                extra = next((r for r in above if r.kind == UPDATE and r.keys), None)
                if extra is not None:
                    if dropped:
                        reached[index] = extra.seq
                    return ordered + [extra], reached
            return ordered, reached

        monkeypatch.setattr(recovery, "_merge", one_above)
        with pytest.raises((AssertionError, ValueError)):
            check_cut(*half_cut)

    def test_catches_a_merge_resuming_from_the_wrong_start(self, half_cut):
        """The mutant merges the suffix as if nothing were folded."""
        records, initial, cut = half_cut
        check_cut(records, initial, cut, merge=naive_merge)
        with pytest.raises((AssertionError, ValueError)):
            check_cut(records, initial, cut,
                      merge=lambda logs: naive_merge(logs, start=[0] * NUM_SITES))
