"""Consistency invariants for the comparator systems.

The comparators share DynaMast's substrate, so their replication and
commit paths must uphold the same guarantees: multi-master's 2PC
branches produce refresh streams that converge at every replica, and
the partitioned stores keep exactly one copy of every record.
"""

import random

from repro.partitioning.schemes import PartitionScheme
from repro.sim.config import ClusterConfig
from repro.systems import Cluster, build_system
from repro.transactions import Transaction
from tests.helpers import assert_converged


def run_random(system_name, seed=0, num_sites=3, num_clients=6, txns=20):
    replicated = system_name in ("dynamast", "single-master", "multi-master")
    cluster = Cluster(ClusterConfig(num_sites=num_sites, seed=seed), replicated=replicated)
    scheme = PartitionScheme(lambda key: key[1] // 5, num_partitions=8)
    kwargs = {"scheme": scheme}
    if system_name in ("multi-master", "partition-store", "leap"):
        kwargs["placement"] = scheme.range_placement(num_sites)
    system = build_system(system_name, cluster, **kwargs)

    def client(client_id):
        rng = random.Random(seed * 100 + client_id)
        session = system.new_session(client_id)
        for _ in range(txns):
            keys = tuple(
                set(("t", rng.randrange(40)) for _ in range(rng.randint(1, 3)))
            )
            txn = Transaction("w", client_id, write_set=keys)
            yield from system.submit(txn, session)

    processes = [cluster.env.process(client(c)) for c in range(num_clients)]
    cluster.env.run(until=20000.0)
    assert all(not process.is_alive for process in processes)
    cluster.env.run(until=cluster.env.now + 50.0)
    return cluster, system


class TestMultiMasterConvergence:
    def test_replicas_converge_under_2pc(self):
        cluster, _ = run_random("multi-master", seed=3)
        svvs = {site.svv.to_tuple() for site in cluster.sites}
        assert len(svvs) == 1, f"multi-master replicas diverged: {svvs}"
        assert_converged([site.database for site in cluster.sites])

    def test_branch_updates_logged_at_each_participant(self):
        cluster, system = run_random("multi-master", seed=4)
        total_logged = sum(site.log.update_count for site in cluster.sites)
        total_commits = sum(site.commits for site in cluster.sites)
        assert total_logged == total_commits


class TestPartitionedStores:
    def test_partition_store_single_copy(self):
        cluster, system = run_random("partition-store", seed=5)
        # Every record exists at exactly one site (no replication).
        seen = {}
        for site in cluster.sites:
            for table in site.database.tables.values():
                for record in table:
                    assert record.key not in seen, (
                        f"{record.key} exists at sites {seen[record.key]} "
                        f"and {site.index}"
                    )
                    seen[record.key] = site.index
        assert seen  # something was written

    def test_partition_store_records_at_owners(self):
        cluster, system = run_random("partition-store", seed=6)
        for site in cluster.sites:
            for table in site.database.tables.values():
                for record in table:
                    partition = system.scheme.partition(record.key)
                    assert system.placement[partition] == site.index

    def test_leap_single_copy_after_migrations(self):
        cluster, system = run_random("leap", seed=7)
        seen = {}
        for site in cluster.sites:
            for table in site.database.tables.values():
                for record in table:
                    # LEAP installs at the destination but the source
                    # keeps only its (stale) shell after shipping; the
                    # *owner map* is the source of truth.
                    seen.setdefault(record.key, set()).add(site.index)
        for key in seen:
            owner = system.owner_of(key)
            assert owner in seen[key], (
                f"owner map says {owner} for {key}, copies at {seen[key]}"
            )

    def test_single_master_log_only_at_master(self):
        cluster, _ = run_random("single-master", seed=8)
        assert len(cluster.sites[0].log) > 0
        for site in cluster.sites[1:]:
            assert len(site.log) == 0
