"""Property tests for the mastering observatory (hypothesis).

Two ledger contracts must hold for *arbitrary* run parameters, not
just the handful pinned in ``tests/test_mastery.py``:

* **timeline fidelity** — the placement reconstructed from the
  recorded ownership changes (directly and via the interval timeline)
  equals the live :class:`~repro.core.partitions.PartitionTable`
  snapshot at run end, for every system that exposes a selector; for
  selector-less comparators the ledger simply stays empty;
* **offline auditability** — recomputing every recorded decision's
  Eq. 8 benefit from its recorded feature scores and weights
  reproduces the recorded choice (:func:`recompute_decision`).

Example counts are small: each example is a full (short) simulation
run across one of the five systems.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.harness import ALL_SYSTEMS, run_benchmark
from repro.obs.mastery import DecisionLedger, recompute_decision
from repro.sim.config import ClusterConfig
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload

RUN_SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def observed(system, seed, theta, num_sites, num_clients=3,
             duration_ms=180.0):
    ledger = DecisionLedger()
    workload = YCSBWorkload(
        YCSBConfig(num_partitions=12, rmw_fraction=0.6, zipf_theta=theta)
    )
    result = run_benchmark(
        system, workload, num_clients=num_clients, duration_ms=duration_ms,
        warmup_ms=0.0, cluster_config=ClusterConfig(num_sites=num_sites),
        seed=seed, ledger=ledger,
    )
    return result, ledger


def last_masters(timeline):
    """Partition -> the site of its last ownership interval."""
    return {partition: timeline.intervals(partition)[-1].site
            for partition in timeline.partitions()}


class TestTimelineFidelity:
    @RUN_SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        theta=st.sampled_from([0.0, 0.5, 0.9]),
        num_sites=st.integers(min_value=2, max_value=4),
    )
    def test_reconstruction_matches_live_table(self, seed, theta, num_sites):
        result, ledger = observed("dynamast", seed, theta, num_sites)
        snapshot = result.system.selector.table.snapshot()
        assert ledger.final_placement() == snapshot
        assert last_masters(ledger.timeline()) == snapshot
        counters = result.metrics.selector_counters
        assert ledger.updates_routed == counters["updates_routed"]
        assert ledger.partitions_moved == counters["partitions_moved"]

    @RUN_SETTINGS
    @given(
        system=st.sampled_from(ALL_SYSTEMS),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_every_system_accepts_a_ledger(self, system, seed):
        """All five systems run to completion with a ledger attached;
        where a selector exists the reconstruction matches it, and
        where none does the ledger stays empty."""
        result, ledger = observed(system, seed, 0.5, 3)
        assert result.metrics.commits > 0
        selector = getattr(result.system, "selector", None)
        if selector is None:
            assert not ledger.routes
            assert not ledger.decisions and not ledger.changes
        else:
            assert ledger.final_placement() == selector.table.snapshot()
            assert last_masters(ledger.timeline()) == selector.table.snapshot()


class TestOfflineAuditability:
    @RUN_SETTINGS
    @given(
        system=st.sampled_from(ALL_SYSTEMS),
        seed=st.integers(min_value=0, max_value=2**16),
        theta=st.sampled_from([0.0, 0.9]),
    )
    def test_recorded_decisions_recompute(self, system, seed, theta):
        _, ledger = observed(system, seed, theta, 3)
        for record in ledger.decisions:
            site, consistent = recompute_decision(record)
            assert consistent
            if record.tie_break == "clear":
                assert site == record.chosen
            else:
                assert record.chosen in record.tied
