"""End-to-end fault injection: bit-identity, survival, and recovery.

The contract the tentpole rides on: a run *without* a FaultPlan is
bit-identical to a build without the faults subsystem (every hook is
gated on ``faults is None`` and the injector draws from its own RNG
stream), while a run *with* a plan exercises crash interruption, live
rejoin, suspicion-based failover, and the presumed-abort termination
protocol — and still terminates.
"""

import hashlib
import json

import pytest

from repro.bench.harness import run_benchmark
from repro.faults.plan import CrashFault, FaultPlan, build_scenario
from repro.faults.chaos import run_chaos
from repro.faults.injector import FaultInjector
from repro.partitioning.schemes import PartitionScheme
from repro.sim.config import ClusterConfig
from repro.sites.messages import MAX_RETRIES
from repro.systems import Cluster, build_system
from repro.transactions import Transaction
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload
from tests.helpers import assert_converged, run_process

#: Digests of the canonical no-faults run, one per system. These pin
#: the *entire* observable outcome (commit count, every commit time,
#: mean latency, per-category traffic bytes) of a fixed seeded run: if
#: fault handling leaks any event, RNG draw, or timing change into an
#: unfaulted run, the digest moves. Regenerate only for intentional
#: simulation-behavior changes.
UNFAULTED_FINGERPRINTS = {
    "dynamast": "98b4ba6dad2209ab",
    "single-master": "13cac5bb9216d8cc",
    "multi-master": "4100c659f786474d",
    "partition-store": "8c5574d11d589af9",
    "leap": "5384a0464cc802f4",
}

#: Digests of a canonical crash-restart run, one per system: the same
#: seeded run *with* a fault plan installed. Together with the
#: unfaulted pins these prove that performance work on the simulation
#: substrate changes neither the hardened nor the legacy code paths.
#: The payload additionally covers aborts by reason and the fault
#: timeline, since those are the observable outputs of a faulted run.
FAULTED_FINGERPRINTS = {
    "dynamast": "cb21d561b1f269be",
    "single-master": "8910148aac407760",
    "multi-master": "f531f4c54bad01c7",
    "partition-store": "1db12045d127ad83",
    "leap": "5e97ac0ec0c43f1c",
}


def _workload():
    return YCSBWorkload(
        YCSBConfig(num_partitions=40, rmw_fraction=0.5, zipf_theta=0.5)
    )


def _run(system, fault_plan=None, duration_ms=400.0):
    return run_benchmark(
        system,
        _workload(),
        num_clients=8,
        duration_ms=duration_ms,
        warmup_ms=100.0,
        cluster_config=ClusterConfig(num_sites=3),
        seed=7,
        fault_plan=fault_plan,
    )


def _fingerprint(result):
    payload = {
        "commits": result.metrics.commits,
        "commit_time_sum": round(sum(result.metrics.commit_times), 6),
        "latency_mean": round(result.latency().mean, 6),
        "traffic": sorted(result.traffic_bytes.items()),
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()[:16]


def _fingerprint_faulted(result):
    payload = {
        "commits": result.metrics.commits,
        "commit_time_sum": round(sum(result.metrics.commit_times), 6),
        "traffic": sorted(result.traffic_bytes.items()),
        "aborts_by_reason": sorted(result.metrics.aborts_by_reason.items()),
        "fault_events": [
            (round(event.at_ms, 6), event.kind, event.site)
            for event in result.fault_events
        ],
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()[:16]


class TestFaultedBitIdentity:
    def test_crash_restart_runs_match_pinned_fingerprints(self):
        for system, expected in FAULTED_FINGERPRINTS.items():
            plan = build_scenario("crash-restart", num_sites=3, duration_ms=1500.0)
            result = _run(system, fault_plan=plan, duration_ms=1500.0)
            assert _fingerprint_faulted(result) == expected, (
                f"{system}: faulted run diverged from the pinned baseline "
                "— an optimization changed hardened-path behavior"
            )


class TestUnfaultedBitIdentity:
    def test_no_plan_runs_match_pre_fault_fingerprints(self):
        for system, expected in UNFAULTED_FINGERPRINTS.items():
            result = _run(system)
            assert _fingerprint(result) == expected, (
                f"{system}: unfaulted run diverged from the pre-fault "
                "baseline — a fault hook leaked into the no-plan path"
            )

    def test_empty_plan_enables_hardened_stack_without_faults(self):
        """An installed injector with an empty plan opts the run into
        the survivable protocol stack (guarded RPCs, presumed-abort
        2PC), which runs the figures' schedule: where no fault fires,
        every system measures the protocol the unfaulted runs do."""
        for system in ("dynamast", "single-master", "multi-master", "leap"):
            result = _run(system, fault_plan=FaultPlan())
            assert result.fault_events == []
            assert _fingerprint(result) == UNFAULTED_FINGERPRINTS[system], system
        # Partition-store runs deterministically and sees no fault; its
        # guarded sub-reads run their handler in a spawned process,
        # which reorders a few same-instant ties.
        first = _run("partition-store", fault_plan=FaultPlan())
        second = _run("partition-store", fault_plan=FaultPlan())
        assert first.fault_events == []
        for reason in ("timeout", "site_crash"):
            assert first.metrics.aborts_by_reason.get(reason, 0) == 0
        assert _fingerprint(first) == _fingerprint(second)
        unfaulted = _run("partition-store").metrics.commits
        assert abs(first.metrics.commits - unfaulted) <= 0.01 * unfaulted


class TestRetryCount:
    """``Outcome.retries`` counts the tries after the first, in every
    system: a transaction whose every try fails reports ``max_retries``.
    Partition-store reads and LEAP used to count the last failed try
    too, and reported ``max_retries + 1``."""

    @pytest.mark.parametrize("system_name,client_id,kind", [
        ("partition-store", 1, "read"),
        ("partition-store", 1, "scatter-read"),
        ("partition-store", 1, "write"),
        ("multi-master", 1, "write"),
        ("leap", 1, "read"),  # executes at the crashed site
        ("leap", 0, "write"),  # ships from the crashed site
    ])
    def test_exhausted_transaction_reports_max_retries(
        self, system_name, client_id, kind
    ):
        cluster = Cluster(
            ClusterConfig(num_sites=3), replicated=system_name == "multi-master"
        )
        system = build_system(
            system_name, cluster,
            scheme=PartitionScheme(lambda key: key[1] // 5, num_partitions=6),
            placement={partition: partition % 3 for partition in range(6)},
        )
        plan = FaultPlan(crashes=(CrashFault(1, at_ms=0.0),))
        FaultInjector(cluster, plan, cluster.streams.faults()).install()
        crashed_key = ("t", 5)  # partition 1, mastered by site 1
        if kind == "read":
            txn = Transaction("r", client_id, read_set=(crashed_key,))
        elif kind == "scatter-read":
            txn = Transaction("r", client_id, read_set=(("t", 0), crashed_key))
        else:
            txn = Transaction("w", client_id, write_set=(crashed_key,))
        env = cluster.env
        outcome = run_process(
            env, env.process(system.submit(txn, system.new_session(client_id)))
        )
        assert not outcome.committed
        assert outcome.abort_reason == "site_crash"
        assert outcome.retries == MAX_RETRIES


class TestDeterminism:
    def test_same_seed_same_plan_same_run(self):
        plan = build_scenario("lossy", num_sites=3, duration_ms=400.0)
        first = _run("dynamast", fault_plan=plan)
        second = _run("dynamast", fault_plan=plan)
        assert first.metrics.commits == second.metrics.commits
        assert first.metrics.commit_times == second.metrics.commit_times
        assert first.metrics.aborts_by_reason == second.metrics.aborts_by_reason
        assert first.traffic_bytes == second.traffic_bytes


class TestCrashRestart:
    def test_dynamast_survives_and_site_rejoins(self):
        plan = FaultPlan(crashes=(
            CrashFault(1, at_ms=1000.0, restart_at_ms=2000.0),
        ))
        result = _run("dynamast", fault_plan=plan, duration_ms=3000.0)
        kinds = [(event.kind, event.site) for event in result.fault_events]
        assert ("crash", 1) in kinds and ("restart", 1) in kinds
        # Survived: commits continue through the outage at scale.
        assert result.metrics.commits > 1000
        assert result.metrics.aborts_by_reason.get("site_crash", 0) == 0

        cluster = result.system.cluster
        restarted = cluster.sites[1]
        assert restarted.alive
        assert restarted.epoch == 1
        # Mastership is a partition of the partition space: every
        # partition has exactly one master among the alive sites.
        mastered = [p for site in cluster.sites for p in site.mastered]
        assert len(mastered) == len(set(mastered)) == 40

    def test_restarted_site_converges_with_survivors(self):
        plan = FaultPlan(crashes=(
            CrashFault(1, at_ms=500.0, restart_at_ms=1000.0),
        ))
        result = _run("dynamast", fault_plan=plan, duration_ms=2000.0)
        cluster = result.system.cluster
        # Let replication drain (clients keep running a moment longer,
        # then quiesce; the watch/notify machinery flushes pending
        # refreshes within a few intervals).
        cluster.env.run(until=cluster.env.now + 200.0)
        restarted = cluster.sites[1]
        survivor = cluster.sites[0]
        for origin in range(3):
            lag = survivor.svv[origin] - restarted.svv[origin]
            assert abs(lag) <= 64, (
                f"restarted site never caught up on origin {origin}: "
                f"{restarted.svv.to_tuple()} vs {survivor.svv.to_tuple()}"
            )
        # The rejoined replica serves reads from replayed state: its
        # database holds the same records as a survivor's.
        for table_name, table in survivor.database.tables.items():
            for record in table:
                other = restarted.database.record(record.key)
                assert other is not None, f"missing {record.key} after rejoin"

    def test_rebuilt_site_retains_the_same_versions_as_a_survivor(self):
        """Log replay into a fresh store, then live refreshes on top:
        once the rebuilt site has applied exactly what a survivor has,
        every key's retained chain — wrapped rings included — is equal,
        version for version and in order. The rebuilt store reuses the
        replica group's row maps, so each key keeps its row number."""
        plan = FaultPlan(crashes=(
            CrashFault(1, at_ms=500.0, restart_at_ms=1000.0),
        ))
        result = _run("dynamast", fault_plan=plan, duration_ms=2000.0)
        cluster = result.system.cluster
        restarted, survivor = cluster.sites[1], cluster.sites[0]
        # Closed-loop clients never quiesce, so step to an instant at
        # which both sites have applied the same set of updates.
        for _ in range(200_000):
            if restarted.svv.to_tuple() == survivor.svv.to_tuple():
                break
            cluster.env.step()
        assert restarted.svv.to_tuple() == survivor.svv.to_tuple()
        assert restarted.database.row_count() == survivor.database.row_count()
        assert restarted.database.row_index is survivor.database.row_index
        assert_converged([survivor.database, restarted.database])
        wrapped = 0
        for name, table in survivor.database.tables.items():
            assert restarted.database.tables[name]._rows is table._rows
            for record in table:
                assert restarted.database.record(record.key).row == record.row, record.key
                wrapped += record.versions()[0].seq > 0  # the (0, 0) version overwritten
        assert wrapped > 100

    def test_comparators_degrade_but_terminate(self):
        plan = FaultPlan(crashes=(CrashFault(1, at_ms=500.0),))
        for system in ("multi-master", "partition-store", "leap"):
            result = _run(system, fault_plan=plan, duration_ms=1500.0)
            aborts = result.metrics.aborts_by_reason
            assert aborts.get("site_crash", 0) > 0, (
                f"{system}: fixed mastership must lose txns to the crash"
            )
            assert result.metrics.commits > 0


class TestCrashEventHoldsOnlyLiveRaces:
    """Regression: every finished ``guarded_call`` / ``site_process``
    race left its callback on ``site.crash_event`` — and with it the
    handler process, its frames, the deadline and the result box —
    until the site crashed: thousands per site, growing with the run."""

    @pytest.mark.parametrize("system", ["dynamast", "partition-store"])
    def test_callbacks_never_exceed_races_in_flight(self, system):
        probes = []

        def probe(running, _workload):
            probes.append([
                # A dispatched crash event (site down) has no callbacks.
                (len(site.crash_event.callbacks or ()), len(site._inflight))
                for site in running.cluster.sites
            ])

        plan = build_scenario("crash-restart", num_sites=3, duration_ms=900.0)
        result = run_benchmark(
            system, _workload(), num_clients=8, duration_ms=900.0,
            warmup_ms=100.0, cluster_config=ClusterConfig(num_sites=3),
            seed=7, fault_plan=plan,
            events=[(36.7 * step, probe) for step in range(1, 25)],
        )
        kinds = [event.kind for event in result.fault_events]
        assert "crash" in kinds and "restart" in kinds
        assert len(probes) == 24
        assert result.metrics.commits > 500
        for sites in probes:
            for hooked, in_flight in sites:
                # A race's handler is tracked until it finishes; a race
                # decided by its deadline unhooks while it still runs.
                assert hooked <= in_flight
        assert any(hooked for sites in probes for hooked, _ in sites)


class TestAvailabilityTimeline:
    def test_chaos_report_shows_dip_and_recovery(self):
        report = run_chaos(
            "partition-store",
            "crash-restart",
            num_sites=3,
            num_clients=8,
            duration_ms=3000.0,
            bucket_ms=250.0,
            seed=7,
        )
        assert [kind for _, kind, _ in report.fault_events] == ["crash", "restart"]
        crash_ms = report.fault_events[0][0]
        restart_ms = report.fault_events[1][0]
        steady = report.steady_rate()
        assert steady > 0
        outage = [
            b for b in report.buckets
            if crash_ms <= b.start_ms and b.start_ms + 250.0 <= restart_ms
        ]
        assert outage, "no full bucket inside the outage window"
        assert min(b.commits_per_s for b in outage) < 0.8 * steady, (
            "a fixed-placement store must dip while a site is down"
        )
        assert all(b.sites_up == 2 for b in outage)
        assert report.recovered(), (
            f"rate never recovered: steady={steady}, final={report.final_rate()}"
        )

    def test_dynamast_rides_through_the_outage(self):
        report = run_chaos(
            "dynamast",
            "crash-restart",
            num_sites=3,
            num_clients=8,
            duration_ms=3000.0,
            bucket_ms=250.0,
            seed=7,
        )
        assert report.aborts_by_reason == {}
        # Remastering + replicas keep every bucket productive.
        assert all(bucket.commits_per_s > 0 for bucket in report.buckets)
        assert report.recovered()

    def test_partial_last_bucket_reports_its_true_rate(self):
        """1000 ms in 300 ms buckets leaves a 100 ms last bucket. Divided
        by the full bucket width it read 2883 commits/s (a third of the
        rest) and the run looked unrecovered; by its own width it reads
        what 250 ms buckets show for the same end of the run."""
        report = run_chaos(
            "dynamast", "crash-restart", duration_ms=1000.0, bucket_ms=300.0, seed=1,
        )
        assert [bucket.start_ms for bucket in report.buckets] == [0.0, 300.0, 600.0, 900.0]
        whole = run_chaos(
            "dynamast", "crash-restart", duration_ms=1000.0, bucket_ms=250.0, seed=1,
        )
        assert report.final_rate() == pytest.approx(whole.final_rate(), rel=0.1)
        assert report.recovered()

    def test_a_bucket_that_is_not_positive_is_refused(self):
        """A zero bucket printed an empty timeline and a "recovered" run
        with 0 commit/s."""
        with pytest.raises(ValueError, match="bucket_ms must be > 0"):
            run_chaos("dynamast", "crash-restart", duration_ms=400.0, bucket_ms=0.0)

    def test_csv_round_trip(self, tmp_path):
        report = run_chaos(
            "dynamast", "crash", num_sites=3, num_clients=4,
            duration_ms=600.0, bucket_ms=200.0, seed=7,
        )
        path = tmp_path / "timeline.csv"
        report.write_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "start_ms,commits_per_s,aborts_per_s,sites_up"
        assert len(lines) == len(report.buckets) + 1
