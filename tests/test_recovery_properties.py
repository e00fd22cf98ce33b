"""Randomized end-to-end recovery checks.

After an arbitrary concurrent run with remastering, the durable logs
alone must reconstruct both the data and the mastership map exactly —
for any seed.
"""

import pytest

from repro.replication import merge_logs, recover_database, recover_mastership
from tests.helpers import assert_converged
from tests.test_si_invariants import run_random_workload


@pytest.mark.parametrize("seed", [11, 23, 37])
def test_mastership_recovered_for_any_history(seed):
    cluster, system, _ = run_random_workload(seed=seed)
    initial = {
        partition: partition % cluster.num_sites
        for partition in range(system.scheme.num_partitions)
    }
    recovered = recover_mastership(merge_logs([site.log for site in cluster.sites]), initial)
    assert recovered == system.selector.table.snapshot()
    # The recovered map agrees with each site's own mastered set.
    for site in cluster.sites:
        owned = {p for p, s in recovered.items() if s == site.index}
        assert owned == site.mastered


@pytest.mark.parametrize("seed", [11, 23])
def test_database_recovered_for_any_history(seed):
    cluster, _, _ = run_random_workload(seed=seed)
    logs = [site.log for site in cluster.sites]
    database, svv = recover_database(cluster.env, merge_logs(logs), len(logs))
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
    logs = [site.log for site in cluster.sites]
    first = recover_mastership(merge_logs(logs), initial)
    second = recover_mastership(merge_logs(logs), initial)
    assert first == second
