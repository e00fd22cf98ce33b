"""Regression guards for subtle behaviours found during calibration."""

import random

from repro.core.site_selector import SiteSelector
from repro.partitioning.schemes import PartitionScheme
from repro.replication import recovery
from repro.replication.log import GRANT
from repro.sim.config import ClusterConfig
from repro.systems import Cluster, build_system
from repro.transactions import Transaction
from repro.workloads import YCSBConfig, YCSBWorkload
from tests.test_faults_properties import AMBIGUOUS_GRANT_PLAN, run_faulted_workload
from tests.helpers import run_process


class TestZipfCaching:
    def test_zipf_generator_reused_for_same_rng(self):
        """Rebuilding the cumulative table per draw was a silent
        performance cliff; the generator must be cached per stream."""
        workload = YCSBWorkload(YCSBConfig(num_partitions=200, zipf_theta=0.75))
        rng = random.Random(1)
        workload._draw_base(rng)
        first = workload._zipf
        workload._draw_base(rng)
        assert workload._zipf is first

    def test_zipf_rebuilt_when_stream_changes(self):
        workload = YCSBWorkload(YCSBConfig(num_partitions=50, zipf_theta=0.75))
        rng_a, rng_b = random.Random(1), random.Random(2)
        workload._draw_base(rng_a)
        first = workload._zipf
        workload._draw_base(rng_b)
        assert workload._zipf is not first


class TestStrategyTieBreaking:
    def test_cold_start_does_not_stampede_to_site_zero(self):
        """With empty statistics every candidate scores 0; without
        randomized tie-breaking all early remasterings picked site 0
        and co-access statistics locked the imbalance in."""
        cluster = Cluster(ClusterConfig(num_sites=4))
        scheme = PartitionScheme(lambda key: key[1], 64)
        system = build_system("dynamast", cluster, scheme=scheme)
        destinations = []

        def client(client_id, pair):
            session = system.new_session(client_id)
            txn = Transaction(
                "w", client_id, write_set=(("t", pair[0]), ("t", pair[1]))
            )
            yield from system.submit(txn, session)
            destinations.append(system.selector.table.master_of(pair[0]))

        # 16 independent cross-site pairs with cold statistics.
        for index in range(16):
            pair = (index * 4, index * 4 + 1)  # sites 0 and 1 round-robin
            cluster.env.process(client(index, pair))
        cluster.env.run()
        assert len(set(destinations)) > 1, (
            "cold-start remasterings must spread across sites"
        )


class TestReleaseMarkerDependencies:
    def test_grant_marker_depends_on_release(self):
        """Log replay must order every remaster chain; the grant marker
        carries a dependency on its release marker (recovery bug guard)."""
        cluster = Cluster(ClusterConfig(num_sites=2))
        site0, site1 = cluster.sites
        site0.mastered.add(3)

        def run():
            release_vv = yield from site0.release_mastership([3])
            yield from site1.grant_mastership([3], release_vv, source=0)

        process = cluster.env.process(run())
        run_process(cluster.env, process)
        release_record = site0.log.records[-1]
        grant_record = site1.log.records[-1]
        assert grant_record.kind == "grant"
        assert grant_record.tvv[0] == release_record.seq, (
            "the grant must declare the release point as a dependency"
        )
        # And the marker is otherwise minimal: no spurious dependencies.
        assert grant_record.tvv[1] == grant_record.seq


class TestRefreshBatching:
    def test_burst_applied_without_per_record_queueing(self):
        """A burst of refresh records is applied under few CPU holds;
        the naive one-queue-wait-per-record model made replicas lag
        exactly when loaded (calibration bug guard)."""
        cluster = Cluster(ClusterConfig(num_sites=2))
        site0, site1 = cluster.sites

        def writer():
            for index in range(30):
                txn = Transaction("w", 0, write_set=(("t", index),))
                yield from site0.execute_update(txn)

        process = cluster.env.process(writer())
        run_process(cluster.env, process)
        drained_at = cluster.env.now + 60.0
        cluster.env.run(until=drained_at)
        assert site1.svv[0] == 30
        # The replica applied everything well before the drain window
        # ended: check it kept pace within ~2x of the writer.
        assert site1.replication.applied == 30


class TestSelectorDowngrade:
    def test_stationary_partitions_routable_during_remaster(self):
        """During a remastering, partitions that are not moving must
        stay routable (selector downgrade; payment-convoy bug guard)."""
        cluster = Cluster(ClusterConfig(num_sites=2))
        scheme = PartitionScheme(lambda key: key[1] // 10, 4)
        system = build_system("dynamast", cluster, scheme=scheme)
        finish = {}

        def remastering_client():
            session = system.new_session(0)
            # Writes partitions 0 (site 0) and 1 (site 1): remasters.
            txn = Transaction(
                "w", 0, write_set=(("t", 5), ("t", 15)), extra_cpu_ms=5.0
            )
            yield from system.submit(txn, session)
            finish["remaster"] = cluster.env.now

        def hot_partition_client():
            yield cluster.env.timeout(0.9)  # mid-remaster
            session = system.new_session(1)
            # Writes only partition 0 — stationary if dest is site 0,
            # moving if dest is site 1; either way the txn completes
            # quickly rather than queueing behind the whole protocol +
            # execution of the first transaction.
            txn = Transaction("w", 1, write_set=(("t", 7),))
            yield from system.submit(txn, session)
            finish["hot"] = cluster.env.now

        cluster.env.process(remastering_client())
        cluster.env.process(hot_partition_client())
        cluster.env.run()
        assert finish["hot"] < finish["remaster"] + 5.0


class TestAmbiguousGrantFailover:
    def test_one_master_per_partition_after_a_lost_grant_reply(self):
        """A grant that failed over from a dead target which had
        already logged it must fence that target: before the fix site 2
        replayed its own grant on restart and mastered {3, 6} next to
        site 0 (split mastership; the selector's table said site 0)."""
        cluster, system, _, _ = run_faulted_workload(AMBIGUOUS_GRANT_PLAN, seed=0)
        mastered = sorted(p for site in cluster.sites for p in site.mastered)
        assert mastered == list(range(8)), mastered
        table = system.selector.table
        for site in cluster.sites:
            assert site.mastered == {
                p for p in range(8) if table.master_of(p) == site.index
            }, f"site {site.index} disagrees with the selector's table"


class TestFoldedGrantFailover:
    def test_a_folded_grant_still_fences_its_dead_target(self, monkeypatch):
        """The lost-grant-reply run above, folding at every append: both
        survivors applied site 2's grant of {3, 6} before site 2 died, so
        the checkpoint holds the grant and site 2's log no longer does.
        The failover must still see it and fence site 2, or site 2
        recovers the grant from the checkpoint on restart and masters
        {3, 6} next to the failover target."""
        monkeypatch.setattr(recovery, "FOLD_EVERY", 1)
        checks = []
        grant_logged = SiteSelector._grant_logged

        def spy(self, target, partitions, source, release_vv):
            retained = [
                record for record in self.cluster.sites[target].log.records
                if record.kind == GRANT and record.partitions == partitions
            ]
            found = grant_logged(self, target, partitions, source, release_vv)
            checks.append((target, partitions, found, retained))
            return found

        monkeypatch.setattr(SiteSelector, "_grant_logged", spy)
        cluster, system, _, _ = run_faulted_workload(AMBIGUOUS_GRANT_PLAN, seed=0)
        assert checks == [(2, (3, 6), True, [])]
        mastered = sorted(p for site in cluster.sites for p in site.mastered)
        assert mastered == list(range(8)), mastered
        table = system.selector.table
        for site in cluster.sites:
            assert site.mastered == {
                p for p in range(8) if table.master_of(p) == site.index
            }, f"site {site.index} disagrees with the selector's table"
