"""Gray failures and their adaptive defenses.

Covers the fail-slow fault interpretation, the phi-accrual detector,
adaptive per-destination deadlines, hedged reads (including the
hypothesis soundness property), health-aware remastering, the
stale-suspicion restart regression, and the detector counters'
end-to-end path into reports and exports.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import run_benchmark
from repro.core.partitions import PartitionTable
from repro.core.site_selector import ADAPTIVE_HEALTH_WEIGHT
from repro.core.statistics import AccessStatistics, StatisticsConfig
from repro.core.strategy import RemasterStrategy, StrategyWeights
from repro.faults.chaos import run_chaos
from repro.faults.deadlines import (
    DEADLINE_FLOOR_MS,
    DEADLINE_MIN_SAMPLES,
    TIMEOUT_MS,
    DeadlineTracker,
)
from repro.faults.detector import (
    SUSPICION_QUARANTINE_MS,
    SUSPICION_THRESHOLD,
    AdaptiveDetector,
    FailureDetector,
)
from repro.faults.plan import CrashFault, FaultPlan, SlowFault, build_scenario
from repro.sim.config import ClusterConfig
from repro.sim.core import Environment
from repro.sim.resources import Resource
from repro.versioning import VersionVector
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload
from tests.test_obs_registry import exposition, sorted_digest


def _workload():
    return YCSBWorkload(
        YCSBConfig(num_partitions=40, rmw_fraction=0.5, zipf_theta=0.5)
    )


def _run(system, fault_plan, defenses="fixed", seed=7, duration_ms=900.0,
         warmup_ms=100.0):
    return run_benchmark(
        system,
        _workload(),
        num_clients=8,
        duration_ms=duration_ms,
        warmup_ms=warmup_ms,
        cluster_config=ClusterConfig(num_sites=3, defenses=defenses),
        seed=seed,
        fault_plan=fault_plan,
    )


def _fingerprint(result):
    payload = {
        "commits": result.metrics.commits,
        "commit_time_sum": round(sum(result.metrics.commit_times), 6),
        "latency_mean": round(result.latency().mean, 6),
        "traffic": sorted(result.traffic_bytes.items()),
        "aborts": sorted(result.metrics.aborts_by_reason.items()),
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()[:16]


# -- fail-slow interpretation (Resource.slow hook) --------------------------


class TestSlowHook:
    def _timed_use(self, factor):
        env = Environment()
        cpu = Resource(env, capacity=1)
        if factor is not None:
            cpu.slow = lambda: factor
        done = {}

        def proc():
            yield from cpu.use(10.0)
            done["at"] = env.now

        env.process(proc())
        env.run(until=1000.0)
        return done["at"]

    def test_multiplier_stretches_service_time(self):
        assert self._timed_use(None) == 10.0
        assert self._timed_use(4.0) == 40.0

    def test_unit_multiplier_is_identity(self):
        assert self._timed_use(1.0) == 10.0

    def test_injector_applies_and_lifts_slow_window(self):
        plan = FaultPlan(slowdowns=(SlowFault(1, 200.0, 500.0, factor=8.0),))
        result = _run("dynamast", plan, duration_ms=800.0)
        injector = result.system.cluster.faults
        assert injector.cpu_multiplier(1) == 1.0  # past the window
        assert result.system.cluster.sites[1].cpu.slow is not None
        assert result.metrics.commits > 0

    def test_overlapping_slow_windows_multiply(self):
        plan = FaultPlan(slowdowns=(
            SlowFault(1, 0.0, 100.0, factor=2.0),
            SlowFault(1, 50.0, 100.0, factor=3.0),
        ))
        result = _run("dynamast", plan, duration_ms=60.0, warmup_ms=0.0)
        # env.now is 60.0 at run end — inside both windows.
        assert result.system.cluster.faults.cpu_multiplier(1) == 6.0


# -- phi-accrual detector ---------------------------------------------------


class TestAdaptiveDetector:
    def _detector(self, clock):
        return AdaptiveDetector(clock=clock)

    def test_idle_silence_is_not_suspicion(self):
        now = [0.0]
        detector = self._detector(lambda: now[0])
        for t in (1.0, 2.0, 3.0, 4.0):
            now[0] = t
            detector.report_success(0)
        now[0] = 1000.0  # long silence, but no timeouts: nobody called
        assert detector.phi(0) == 0.0
        assert not detector.is_suspected(0)

    def test_timeout_gated_silence_accrues_phi(self):
        now = [0.0]
        detector = self._detector(lambda: now[0])
        for t in (1.0, 2.0, 3.0, 4.0, 5.0):
            now[0] = t
            detector.report_success(0)
        now[0] = 6.0
        detector.report_timeout(0)
        small = detector.phi(0)
        now[0] = 500.0
        large = detector.phi(0)
        assert 0.0 <= small < large
        assert detector.is_suspected(0)  # re-evaluated at read time
        assert detector.suspicion_episodes == 1

    def test_success_clears_suspicion_after_quarantine(self):
        now = [0.0]
        detector = self._detector(lambda: now[0])
        now[0] = 1.0
        detector.report_success(0)
        now[0] = 2.0
        detector.report_success(0)
        now[0] = 400.0
        detector.report_timeout(0)
        assert detector.is_suspected(0)
        assert detector.health(0) == 0.0
        # A success inside the quarantine window does NOT clear the
        # suspicion — a fail-slow site keeps succeeding (slowly), and
        # without the latch routing would flicker instead of draining.
        detector.report_success(0)
        assert detector.is_suspected(0)
        # Past the quarantine, the next success rehabilitates the site.
        now[0] = 400.0 + SUSPICION_QUARANTINE_MS
        detector.report_success(0)
        assert not detector.is_suspected(0)
        assert detector.health(0) == 1.0

    def test_fresh_timeouts_extend_the_quarantine(self):
        now = [0.0]
        detector = self._detector(lambda: now[0])
        detector.report_timeout(0)
        detector.report_timeout(0)  # strike fallback trips at 2
        assert detector.is_suspected(0)
        now[0] = 90.0
        detector.report_timeout(0)  # extends to 90 + the quarantine
        now[0] = SUSPICION_QUARANTINE_MS + 50.0
        detector.report_success(0)
        assert detector.is_suspected(0)  # still inside extended latch
        now[0] = SUSPICION_QUARANTINE_MS + 100.0
        detector.report_success(0)
        assert not detector.is_suspected(0)

    def test_episodes_are_timestamped(self):
        now = [42.0]
        detector = self._detector(lambda: now[0])
        detector.report_down(1)
        assert detector.episodes == [(42.0, 1)]

    def test_down_suspects_immediately(self):
        detector = self._detector(lambda: 0.0)
        detector.report_down(2)
        assert detector.is_suspected(2)
        assert detector.phi(2) == float("inf")

    def test_strike_fallback_before_history(self):
        detector = self._detector(lambda: 0.0)
        assert SUSPICION_THRESHOLD == 2
        detector.report_timeout(1)
        assert not detector.is_suspected(1)
        detector.report_timeout(1)
        assert detector.is_suspected(1)

    def test_clear_drops_all_evidence(self):
        now = [0.0]
        detector = self._detector(lambda: now[0])
        now[0] = 1.0
        detector.report_success(0)
        now[0] = 2.0
        detector.report_success(0)
        now[0] = 300.0
        detector.report_timeout(0)
        detector.report_down(0)
        assert detector.is_suspected(0)
        detector.clear(0)
        assert not detector.is_suspected(0)
        assert detector.phi(0) == 0.0
        assert detector.health(0) == 1.0

    def test_health_is_graded_between_suspicion_and_calm(self):
        now = [0.0]
        detector = self._detector(lambda: now[0])
        for t in (1.0, 2.0, 3.0, 4.0, 5.0):
            now[0] = t
            detector.report_success(0)
        now[0] = 6.2
        detector.report_timeout(0)
        health = detector.health(0)
        assert 0.0 < health < 1.0

    def test_false_suspicion_counted_against_ground_truth(self):
        detector = AdaptiveDetector(
            clock=lambda: 0.0, ground_truth=lambda site: site == 0
        )
        detector.report_down(0)  # genuinely faulted
        detector.report_down(1)  # healthy: a false suspicion
        assert detector.suspicion_episodes == 2
        assert detector.false_suspicions == 1


# -- adaptive deadlines -----------------------------------------------------


class TestDeadlineTracker:
    def test_fixed_timeout_until_warm(self):
        tracker = DeadlineTracker()
        for _ in range(DEADLINE_MIN_SAMPLES - 1):
            tracker.observe(0, 2.0)
        assert tracker.deadline_ms(0) == TIMEOUT_MS
        tracker.observe(0, 2.0)
        assert tracker.deadline_ms(0) < TIMEOUT_MS

    def test_deadline_clamped_between_floor_and_timeout(self):
        tracker = DeadlineTracker()
        for _ in range(DEADLINE_MIN_SAMPLES):
            tracker.observe(0, 0.1)
            tracker.observe(1, 1000.0)
        assert tracker.deadline_ms(0) == DEADLINE_FLOOR_MS
        assert tracker.deadline_ms(1) == TIMEOUT_MS  # ceiling: never looser

    def test_hedge_delay_tracks_lower_quantile(self):
        tracker = DeadlineTracker()
        for rtt in (8.0,) * DEADLINE_MIN_SAMPLES:
            tracker.observe(0, rtt)
        assert tracker.hedge_delay_ms(0) <= tracker.deadline_ms(0)

    def test_reset_forgets_destination(self):
        tracker = DeadlineTracker()
        tracker.observe(0, 2.0)
        assert tracker.samples(0) == 1
        tracker.reset(0)
        assert tracker.samples(0) == 0
        assert tracker.deadline_ms(0) == TIMEOUT_MS


# -- hedged reads -----------------------------------------------------------


class TestHedgedReads:
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=1, max_value=50))
    def test_hedging_never_double_applies_and_is_inert_when_off(self, seed):
        """The hypothesis soundness property for hedged reads.

        (1) With hedging *disabled*, no read hedges, however slow the
        master. (2) With
        hedging *enabled* under a fail-slow master, effects are never
        double-applied: one recorded outcome per transaction, one
        commit time per commit, and wins never exceed launches.
        """
        plan = build_scenario("fail_slow_master", num_sites=3,
                              duration_ms=900.0)
        off = _run("dynamast", plan, seed=seed, defenses="fixed")
        assert off.metrics.detector_counters["hedges_launched"] == 0

        on = _run("dynamast", plan, seed=seed, defenses="adaptive")
        metrics = on.metrics
        assert metrics.commits == len(metrics.commit_times)
        assert metrics.abort_count == len(metrics.abort_times)
        for samples in metrics.latencies.values():
            assert all(latency >= 0.0 for latency in samples)
        counters = metrics.detector_counters
        assert counters["hedge_wins"] <= counters["hedges_launched"]

    def test_hedges_fire_under_fail_slow_master(self):
        plan = build_scenario("fail_slow_master", num_sites=3,
                              duration_ms=1500.0)
        result = _run("dynamast", plan, defenses="adaptive",
                      duration_ms=1500.0)
        counters = result.metrics.detector_counters
        assert counters["hedges_launched"] > 0
        assert counters["hedge_wins"] > 0

    def test_hedged_run_is_deterministic(self):
        plan = build_scenario("fail_slow_master", num_sites=3,
                              duration_ms=900.0)
        first = _run("dynamast", plan, defenses="adaptive")
        second = _run("dynamast", plan, defenses="adaptive")
        assert _fingerprint(first) == _fingerprint(second)
        assert first.metrics.detector_counters == \
            second.metrics.detector_counters


# -- health-aware remastering ----------------------------------------------


class TestHealthAwareStrategy:
    def _strategy(self, weights, num_sites=2):
        env = Environment()
        table = PartitionTable(env, {0: 0, 1: 0})
        stats = AccessStatistics(StatisticsConfig())
        return RemasterStrategy(weights, stats, table, num_sites)

    def test_health_penalty_steers_away_from_sick_site(self):
        strategy = self._strategy(StrategyWeights(health=10.0))
        vvs = [VersionVector.zeros(2) for _ in range(2)]
        # All Equation-8 features are zero; without health evidence the
        # lowest-site tie-break would pick site 0.
        decision = strategy.decide([0], vvs, health=[0.2, 1.0])
        assert decision.site == 1
        penalties = {score.site: score.health_penalty
                     for score in decision.scores}
        assert penalties[0] == pytest.approx(0.8)
        assert penalties[1] == 0.0

    def test_zero_weight_ignores_health_entirely(self):
        strategy = self._strategy(StrategyWeights(health=0.0))
        vvs = [VersionVector.zeros(2) for _ in range(2)]
        baseline = strategy.decide([0], vvs)
        with_health = strategy.decide([0], vvs, health=[0.0, 1.0])
        assert with_health.site == baseline.site
        assert all(score.health_penalty == 0.0
                   for score in with_health.scores)

    def test_mild_degradation_loses_to_strong_feature_signal(self):
        # A modest health weight must not override a decisive balance
        # signal — the penalty is soft, not an exclusion.
        strategy = self._strategy(StrategyWeights(balance=10_000.0, health=1.0))
        stats = strategy.statistics
        stats.observe(0.0, 1, [0])
        stats.observe(1.0, 1, [1])
        vvs = [VersionVector.zeros(2) for _ in range(2)]
        decision = strategy.decide([1], vvs, health=[1.0, 0.9])
        assert decision.site == 1  # rebalancing beats the soft penalty


# -- restart hygiene (stale-suspicion regression) --------------------------


class TestRestartHygiene:
    def test_crash_restart_clears_suspicion_and_routes_back(self):
        plan = build_scenario("crash-restart", num_sites=3,
                              duration_ms=1500.0)
        result = _run("dynamast", plan, defenses="adaptive", duration_ms=1500.0)
        injector = result.system.cluster.faults
        kinds = [(event.kind, event.site) for event in injector.events]
        assert ("crash", 1) in kinds and ("restart", 1) in kinds
        # The rejoined site carries no stale suspicion, and its RTT
        # history was dropped at restart (it re-accumulates from the
        # post-restart traffic only, so it trails a never-crashed peer).
        assert not injector.detector.is_suspected(1)
        assert injector.detector.phi(1) == 0.0
        assert 0 < injector.deadlines.samples(1) < injector.deadlines.samples(2)
        assert result.metrics.detector_counters["suspected_sites"] == 0
        assert result.system.cluster.sites[1].alive

    def test_slow_hook_survives_crash_restart(self):
        # crash() replaces the CPU resource; the restart hook must
        # reinstall the fail-slow multiplier on the new one.
        plan = FaultPlan(
            crashes=(CrashFault(1, at_ms=300.0, restart_at_ms=600.0),),
            slowdowns=(SlowFault(1, 0.0, float("inf"), factor=3.0),),
        )
        result = _run("dynamast", plan, duration_ms=1500.0)
        site = result.system.cluster.sites[1]
        assert site.alive
        assert site.cpu.slow is not None
        assert site.cpu.slow() == 3.0


# -- counters end-to-end ----------------------------------------------------


class TestDetectorObservability:
    @pytest.fixture(scope="class")
    def adaptive_chaos(self):
        return run_chaos(
            "dynamast", "fail_slow_master",
            duration_ms=3000.0, defenses="adaptive",
        )

    def test_counters_reach_metrics(self, adaptive_chaos):
        counters = adaptive_chaos.result.metrics.detector_counters
        assert counters["suspicion_episodes"] >= 1
        assert counters["false_suspicions"] == 0
        assert counters["hedges_launched"] > 0

    def test_counters_reach_prometheus(self, adaptive_chaos):
        text = exposition(adaptive_chaos.result.metrics)
        assert "repro_detector_suspicion_episodes_total" in text
        assert "repro_detector_false_suspicions_total" in text
        assert "repro_detector_hedges_launched_total" in text
        assert "# TYPE repro_detector_suspected_sites gauge" in text
        # Sorted-line digest of the deleted Metrics.to_prometheus,
        # re-taken once when each wire leg became its own timed phase
        # (the network and other phase totals moved by float rounding).
        assert sorted_digest(text) == (
            "df38b657f2308af8e5a193ed02b80dfdad655ae1efc0374bbb4d6f30aaeb022b")

    def test_unfaulted_runs_export_zero_counters(self):
        result = run_benchmark(
            "dynamast", _workload(), num_clients=4, duration_ms=300.0,
            warmup_ms=100.0, cluster_config=ClusterConfig(num_sites=3),
            seed=7,
        )
        assert result.metrics.detector_counters == {}
        assert "repro_detector" not in exposition(result.metrics)


# -- defense presets --------------------------------------------------------


class TestDefensePresets:
    """Each preset, read off a built cluster: the detector class, the
    RPC deadline, hedging and the selector's health weight."""

    def _built(self, defenses):
        plan = build_scenario("crash", num_sites=3, duration_ms=300.0)
        result = _run("dynamast", plan, defenses=defenses, duration_ms=300.0)
        return result.system.cluster.faults, result.system

    def test_fixed_preset_is_the_baseline(self):
        injector, system = self._built("fixed")
        assert type(injector.detector) is FailureDetector
        assert injector.deadline_ms(0) == TIMEOUT_MS
        assert not system.cluster.hedged_reads
        assert system.selector.strategy.weights.health == 0.0

    def test_adaptive_preset_arms_everything(self):
        injector, system = self._built("adaptive")
        assert type(injector.detector) is AdaptiveDetector
        assert injector.deadlines.samples(0) >= DEADLINE_MIN_SAMPLES
        assert injector.deadline_ms(0) == injector.deadlines.deadline_ms(0)
        assert injector.deadline_ms(0) < TIMEOUT_MS
        assert system.cluster.hedged_reads
        assert system.selector.strategy.weights.health == ADAPTIVE_HEALTH_WEIGHT

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="ClusterConfig.defenses"):
            ClusterConfig(defenses="wishful")
        with pytest.raises(ValueError, match="ClusterConfig.defenses"):
            run_chaos("dynamast", "crash", duration_ms=300.0, defenses="wishful")

    def test_a_faulted_run_defaults_to_the_fixed_preset(self):
        plan = build_scenario("crash", num_sites=3, duration_ms=300.0)
        result = run_benchmark(
            "dynamast", _workload(), num_clients=4, duration_ms=300.0,
            warmup_ms=100.0, cluster_config=ClusterConfig(num_sites=3), seed=7,
            fault_plan=plan,
        )
        assert type(result.system.cluster.faults.detector) is FailureDetector
        assert not result.system.cluster.hedged_reads
        assert result.system.selector.strategy.weights.health == 0.0


# -- the headline: adaptive defenses beat fixed under fail-slow -------------


class TestFailSlowHeadline:
    def test_detection_under_fail_slow_needs_the_adaptive_preset(self):
        """A 10x-slow master still answers within the generous fixed
        timeout, so the fixed-strike detector never suspects it; the
        adaptive stack converts the slowness into timeout evidence and
        suspicion."""
        plan = build_scenario("fail_slow_master", num_sites=3,
                              duration_ms=3000.0)
        fixed = _run("dynamast", plan, duration_ms=3000.0,
                     defenses="fixed")
        assert fixed.metrics.detector_counters["suspicion_episodes"] == 0

        adaptive = _run("dynamast", plan, duration_ms=3000.0,
                        defenses="adaptive")
        assert adaptive.metrics.detector_counters["suspicion_episodes"] >= 1
        assert adaptive.metrics.detector_counters["false_suspicions"] == 0
