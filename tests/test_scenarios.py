"""System-level behavioural scenarios from the paper's narrative."""

from repro.partitioning.schemes import PartitionScheme
from repro.sim.config import ClusterConfig
from repro.systems import Cluster, build_system
from repro.transactions import Transaction
from tests.helpers import run_process


def make_dynamast(num_sites=2, num_partitions=6, **config_overrides):
    cluster = Cluster(ClusterConfig(num_sites=num_sites, **config_overrides))
    scheme = PartitionScheme(lambda key: key[1] // 10, num_partitions)
    system = build_system("dynamast", cluster, scheme=scheme)
    return cluster, system


class TestFigure1Walkthrough:
    """The paper's Figure 1c example: T1 remasters, T2 amortizes, T3
    executes at a different site, and a concurrent T4 is not blocked by
    the remastering (unlike 2PC's Figure 1b)."""

    def test_dynamic_mastering_example(self):
        cluster, system = make_dynamast()
        events = []

        # a -> partition 0 (site 0); b -> partition 1 (site 1);
        # c -> partition 2 (site 0).
        a, b, c = ("t", 5), ("t", 15), ("t", 25)

        def client_one():
            session = system.new_session(0)
            t1 = Transaction("T1", 0, write_set=(a, b))
            outcome = yield from system.submit(t1, session)
            events.append(("T1", cluster.env.now, outcome.remastered))
            t2 = Transaction("T2", 0, write_set=(a, b))
            outcome = yield from system.submit(t2, session)
            events.append(("T2", cluster.env.now, outcome.remastered))

        def client_two():
            session = system.new_session(1)
            t3 = Transaction("T3", 1, write_set=(c,))
            outcome = yield from system.submit(t3, session)
            events.append(("T3", cluster.env.now, outcome.remastered))

        cluster.env.process(client_one())
        cluster.env.process(client_two())
        cluster.env.run()

        by_name = {name: (when, remastered) for name, when, remastered in events}
        assert by_name["T1"][1] is True  # T1 required remastering
        assert by_name["T2"][1] is False  # T2 amortized it
        assert by_name["T3"][1] is False  # T3's write set was single-sited
        # T3 (different site, disjoint data) was not delayed by T1's
        # remastering: it finished before T1 despite starting together.
        assert by_name["T3"][0] < by_name["T1"][0]

    def test_concurrent_writer_not_blocked_by_remastering(self):
        """Figure 1's T4: updates to item B proceed while A is being
        remastered — coordination happens outside transaction
        boundaries."""
        cluster, system = make_dynamast(num_sites=2)
        finish = {}

        def remastering_client():
            session = system.new_session(0)
            txn = Transaction("T1", 0, write_set=(("t", 5), ("t", 15)))
            yield from system.submit(txn, session)
            finish["T1"] = cluster.env.now

        def independent_writer():
            session = system.new_session(1)
            txn = Transaction("T4", 1, write_set=(("t", 16),))  # same partition as b
            yield from system.submit(txn, session)
            finish["T4"] = cluster.env.now

        cluster.env.process(remastering_client())
        cluster.env.process(independent_writer())
        cluster.env.run()
        # T4 writes partition 1 while partition 1 is being granted away
        # only if T1 moved it; either way it must finish well before
        # any 2PC-style window (T1 itself takes ~3-4 ms with remaster).
        assert finish["T4"] <= finish["T1"] + 2.0


class TestReadsNeverBlockOnWrites:
    def test_scan_during_long_update(self):
        cluster, system = make_dynamast()
        done = {}

        def writer():
            session = system.new_session(0)
            txn = Transaction("w", 0, write_set=(("t", 5),), extra_cpu_ms=30.0)
            yield from system.submit(txn, session)
            done["write"] = cluster.env.now

        def reader():
            yield cluster.env.timeout(2.0)
            session = system.new_session(1)
            txn = Transaction("r", 1, read_set=(("t", 5),))
            yield from system.submit(txn, session)
            done["read"] = cluster.env.now

        cluster.env.process(writer())
        cluster.env.process(reader())
        cluster.env.run()
        # MVCC: the read returned long before the 30 ms write committed.
        assert done["read"] < done["write"]


class TestRemasteringParallelism:
    def test_disjoint_remasterings_overlap(self):
        """Algorithm 1's release/grant chains for different source
        sites run in parallel; two independent remasterings do not
        serialize behind each other."""
        cluster, system = make_dynamast(num_sites=2, num_partitions=6)
        finish = []

        def client(client_id, keys):
            session = system.new_session(client_id)
            txn = Transaction("w", client_id, write_set=keys)
            yield from system.submit(txn, session)
            finish.append(cluster.env.now)

        # Two disjoint cross-site write sets submitted simultaneously.
        cluster.env.process(client(0, (("t", 5), ("t", 15))))
        cluster.env.process(client(1, (("t", 25), ("t", 35))))
        cluster.env.run()
        assert len(finish) == 2
        # If they serialized, the second would finish ~2x the first.
        assert max(finish) < 1.7 * min(finish)


class TestWriteSetSpanningThreeSites:
    def test_multi_source_remastering(self):
        cluster, system = make_dynamast(num_sites=3, num_partitions=6)
        session = system.new_session(0)
        # Partitions 0,1,2 start at sites 0,1,2 (round robin).
        txn = Transaction("w", 0, write_set=(("t", 5), ("t", 15), ("t", 25)))

        def run():
            return (yield from system.submit(txn, session))

        process = cluster.env.process(run())
        outcome = run_process(cluster.env, process)
        assert outcome.committed and outcome.remastered
        masters = system.selector.table.masters_of([0, 1, 2])
        assert len(masters) == 1
        # Two release/grant chains ran (two source sites).
        assert system.selector.remaster_operations == 2


class TestSessionAcrossSites:
    def test_write_then_read_at_other_site_waits_for_freshness(self):
        """SSSI: a read routed anywhere must reflect the client's own
        last write, waiting on the replica if needed."""
        cluster, system = make_dynamast(num_sites=2)
        session = system.new_session(0)
        checked = []

        def client():
            txn = Transaction("w", 0, write_set=(("t", 5),))
            yield from system.submit(txn, session)
            committed_vv = session.cvv.copy()
            for _ in range(10):
                read = Transaction("r", 0, read_set=(("t", 5),))
                yield from system.submit(read, session)
                assert session.cvv.dominates(committed_vv)
            checked.append(True)

        process = cluster.env.process(client())
        run_process(cluster.env, process)
        assert checked


class TestUtilizationAccounting:
    def test_busy_sites_report_utilization(self):
        cluster, system = make_dynamast()
        session = system.new_session(0)

        def client():
            for index in range(20):
                txn = Transaction("w", 0, write_set=(("t", index % 60),))
                yield from system.submit(txn, session)

        process = cluster.env.process(client())
        run_process(cluster.env, process)
        utilizations = [site.utilization() for site in cluster.sites]
        assert all(0.0 <= value <= 1.0 for value in utilizations)
        assert max(utilizations) > 0.0
