"""Failure-injection tests: crash a data site and recover it in place.

Paper §V-C: any data site recovers independently by initializing state
from an existing replica / the redo logs and replaying from the
positions indicated by the site version vector; mastership state is
reconstructed from the sequence of release and grant operations. The
tests drive the live restart the fault injector runs: ``site.crash()``
followed by :func:`~repro.replication.recovery.rejoin_site`.
"""

from repro.partitioning.schemes import PartitionScheme
from repro.replication.recovery import rejoin_site
from repro.sim.config import ClusterConfig
from repro.systems import Cluster, build_system
from repro.transactions import Transaction
from tests.helpers import assert_converged, run_process


def make_dynamast(num_sites=3):
    cluster = Cluster(ClusterConfig(num_sites=num_sites))
    scheme = PartitionScheme(lambda key: key[1] // 10, num_partitions=6)
    system = build_system("dynamast", cluster, scheme=scheme)
    return cluster, system


def run_writes(cluster, system, specs, client_id=0):
    session = system.new_session(client_id)

    def client():
        for keys in specs:
            txn = Transaction(
                "w", client_id, write_set=tuple(("t", k) for k in keys)
            )
            yield from system.submit(txn, session)

    process = cluster.env.process(client())
    run_process(cluster.env, process)
    return session


def crash_and_rejoin(cluster, index, initial_mastership):
    """Fail-stop site ``index``, then restart it by live log replay."""
    cluster.sites[index].crash()
    process = cluster.env.process(rejoin_site(cluster, index, initial_mastership))
    return run_process(cluster.env, process)


class TestSiteRecovery:
    def test_recovered_site_matches_crashed_site(self):
        cluster, system = make_dynamast()
        initial = dict(system.selector.table.snapshot())
        run_writes(cluster, system, [(5, 15), (25, 35), (5, 45), (15, 55)])
        cluster.env.run(until=cluster.env.now + 20.0)  # drain refreshes

        crashed = cluster.sites[1]
        expected_svv = crashed.svv.to_tuple()
        expected_mastered = set(crashed.mastered)
        crashed_database = crashed.database  # volatile: crash() drops it

        replacement = crash_and_rejoin(cluster, 1, initial)
        assert replacement is cluster.sites[1]
        assert replacement.svv.to_tuple() == expected_svv
        assert replacement.mastered == expected_mastered
        # Every written row retains the crashed state's versions.
        assert_converged([crashed_database, replacement.database])

    def test_recovered_site_continues_processing(self):
        cluster, system = make_dynamast()
        initial = dict(system.selector.table.snapshot())
        run_writes(cluster, system, [(5, 15), (25, 35)])
        cluster.env.run(until=cluster.env.now + 20.0)

        replacement = crash_and_rejoin(cluster, 1, initial)
        before = replacement.svv.to_tuple()

        # New work flows through the recovered cluster.
        run_writes(cluster, system, [(5, 25), (15, 35), (45, 55)], client_id=7)
        cluster.env.run(until=cluster.env.now + 20.0)

        assert replacement.svv.total() > sum(before)
        # All sites converge again.
        svvs = {site.svv.to_tuple() for site in cluster.sites}
        assert len(svvs) == 1

    def test_recovered_site_can_execute_updates(self):
        cluster, system = make_dynamast()
        initial = dict(system.selector.table.snapshot())
        run_writes(cluster, system, [(5, 15)])
        cluster.env.run(until=cluster.env.now + 20.0)

        replacement = crash_and_rejoin(cluster, 1, initial)
        if not replacement.mastered:
            # Give it something to master via the normal protocol.
            run_writes(cluster, system, [(15, 25)], client_id=9)
            cluster.env.run(until=cluster.env.now + 20.0)

        commits_before = replacement.commits

        def direct_write():
            partition = next(iter(replacement.mastered), None)
            if partition is None:
                return None
            key = ("t", partition * 10 + 3)
            txn = Transaction("w", 3, write_set=(key,))
            return (yield from replacement.execute_update(txn))

        process = cluster.env.process(direct_write())
        tvv = run_process(cluster.env, process)
        if tvv is not None:
            assert replacement.commits == commits_before + 1
            # The new commit's sequence continues the old log densely.
            assert replacement.log.records[-1].seq == tvv[1]
