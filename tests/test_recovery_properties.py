"""Randomized end-to-end recovery checks.

After an arbitrary concurrent run with remastering, the replica group's
checkpoint plus the suffix its durable logs retain must reconstruct
both the data and the mastership map exactly — for any seed. The runs
fold every few appends, so recovery starts from a real checkpoint.
"""

import pytest

from repro.replication import merge_logs, recover_database, recover_mastership
from repro.replication import recovery
from tests.helpers import assert_converged
from tests.test_si_invariants import run_random_workload


@pytest.fixture(autouse=True)
def small_folds(monkeypatch):
    """Fold every 7 appends: a short run's logs are then mostly folded."""
    monkeypatch.setattr(recovery, "FOLD_EVERY", 7)


def _recover_mastership(cluster, initial):
    checkpoint = cluster.checkpoint
    assert sum(checkpoint.vector) > 0, "nothing was folded"
    logs = [site.log for site in cluster.sites]
    return recover_mastership(checkpoint, merge_logs(logs), initial)


@pytest.mark.parametrize("seed", [11, 23, 37])
def test_mastership_recovered_for_any_history(seed):
    cluster, system, _ = run_random_workload(seed=seed)
    initial = {
        partition: partition % cluster.num_sites
        for partition in range(system.scheme.num_partitions)
    }
    recovered = _recover_mastership(cluster, initial)
    assert recovered == system.selector.table.snapshot()
    # The recovered map agrees with each site's own mastered set.
    for site in cluster.sites:
        owned = {p for p, s in recovered.items() if s == site.index}
        assert owned == site.mastered


@pytest.mark.parametrize("seed", [11, 23])
def test_database_recovered_for_any_history(seed):
    cluster, _, _ = run_random_workload(seed=seed)
    logs = [site.log for site in cluster.sites]
    assert sum(cluster.checkpoint.vector) > 0, "nothing was folded"
    database, svv = recover_database(cluster.checkpoint, merge_logs(logs))
    live = cluster.sites[0]
    assert svv.to_tuple() == live.svv.to_tuple()
    assert_converged([live.database, database])


@pytest.mark.parametrize("seed", [41])
def test_recovery_is_idempotent(seed):
    cluster, system, _ = run_random_workload(seed=seed)
    initial = {
        partition: partition % cluster.num_sites
        for partition in range(system.scheme.num_partitions)
    }
    first = _recover_mastership(cluster, initial)
    second = _recover_mastership(cluster, initial)
    assert first == second
