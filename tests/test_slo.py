"""The streaming SLO engine (`repro slo`).

Covers the declarative spec layer, the tumbling-window metric math,
multi-window burn-rate alerting and hysteresis, the four runtime
invariant monitors, blame attribution, ground-truth fault correlation
(MTTD/MTTR), the JSONL/CSV/Prometheus exports and HTML dashboard, and
the acceptance pins: faulted runs are detected, unfaulted runs of all
five systems are invariant-clean, SLO-monitored runs are bit-identical
to unmonitored ones, and parallel folding matches serial.
"""

import json

import pytest

from repro.bench.export import FIELDS, attach_slo, rows_from, to_csv
from repro.bench.harness import run_benchmark
from repro.bench.parallel import (
    RunSpec,
    WorkloadSpec,
    execute_specs,
    run_fingerprint,
)
from repro.faults import FaultPlan, build_scenario
from repro.faults.chaos import defense_setup, run_chaos
from repro.obs.dashboard import render_dashboard, write_dashboard
from repro.obs.slo import (
    DEFAULT_SLOS,
    SCHEMA,
    Incident,
    SloEngine,
    SloSpec,
    _coalesce,
    _evaluate,
    _SloState,
    _Window,
    load_jsonl,
    quick_slos,
)
from repro.sim.config import ClusterConfig
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload
from tests.test_obs_registry import exposition, parse_exposition, sorted_digest

ALL_SYSTEMS = ("dynamast", "single-master", "multi-master", "partition-store", "leap")


# ---------------------------------------------------------------------------
# Stubs: the minimal pure-read surface the engine touches.
# ---------------------------------------------------------------------------


class StubSite:
    def __init__(self, index, num_sites=3, alive=True, mastered=(), epoch=0):
        self.index = index
        self.num_sites = num_sites
        self.alive = alive
        self.mastered = set(mastered) if mastered else {index}
        self.epoch = epoch
        self.svv = [0] * num_sites


class StubQueue:
    def __init__(self, offered=0, admitted=0, shed=0, taken=0, backlog=0):
        self.offered = offered
        self.admitted = admitted
        self.shed = shed
        self.taken = taken
        self.backlog = backlog

    def __len__(self):
        return self.backlog


class StubDetector:
    def __init__(self, episodes=0, false_suspicions=0, suspected=()):
        self.suspicion_episodes = episodes
        self.false_suspicions = false_suspicions
        self.suspected = set(suspected)


class StubInjector:
    def __init__(self, detector=None, plan=None):
        self.detector = detector if detector is not None else StubDetector()
        self.plan = plan if plan is not None else FaultPlan()


class StubTable:
    def __init__(self, mapping):
        self._mapping = dict(mapping)

    def snapshot(self):
        return dict(self._mapping)


class StubSelector:
    def __init__(self, mapping):
        self.table = StubTable(mapping)


class StubSystem:
    def __init__(self, sites, selector=None):
        self.sites = sites
        if selector is not None:
            self.selector = selector


class StubOutcome:
    def __init__(self, committed=True, remastered=False):
        self.committed = committed
        self.remastered = remastered


def _stub_engine(specs=(), window_ms=100.0, sites=None, selector=None,
                 injector=None, queues=(), duration_ms=1000.0):
    engine = SloEngine(specs=specs, window_ms=window_ms)
    if sites is None:
        sites = [StubSite(i) for i in range(3)]
    engine.install(
        StubSystem(sites, selector=selector), injector=injector,
        queues=list(queues), duration_ms=duration_ms, warmup_ms=0.0,
    )
    return engine, sites


def _window(start=0.0, end=250.0, commits=0, aborts=0, latencies=(),
            remastered=0, offered=0, shed=0, sites_alive=3, sites_total=3):
    window = _Window(start, end)
    window.commits = commits
    window.aborts = aborts
    window.latencies = list(latencies)
    window.remastered = remastered
    window.offered = offered
    window.shed = shed
    window.sites_alive = sites_alive
    window.sites_total = sites_total
    return window


# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------


class TestSloSpec:
    def test_rejects_unknown_metric(self):
        with pytest.raises(ValueError, match="unknown SLO metric"):
            SloSpec("x", metric="latency_p50", target=1.0)

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError, match="bound"):
            SloSpec("x", metric="abort_rate", target=0.1, bound="sideways")

    def test_requires_exactly_one_threshold_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            SloSpec("x", metric="abort_rate")
        with pytest.raises(ValueError, match="exactly one"):
            SloSpec("x", metric="abort_rate", target=0.1, baseline_factor=2.0)

    def test_rejects_degenerate_window_counts(self):
        with pytest.raises(ValueError, match=">= 1"):
            SloSpec("x", metric="abort_rate", target=0.1, long_windows=0)
        with pytest.raises(ValueError, match=">= 1"):
            SloSpec("x", metric="abort_rate", target=0.1, min_samples=0)

    def test_to_dict_round_trips_fields(self):
        spec = SloSpec("p99", metric="p99_latency_ms", baseline_factor=3.0,
                       floor=5.0)
        data = spec.to_dict()
        assert data["name"] == "p99"
        assert data["baseline_factor"] == 3.0
        assert data["target"] is None

    def test_default_slos_include_site_liveness(self):
        liveness = {spec.name: spec for spec in DEFAULT_SLOS}["site_liveness"]
        assert liveness.bound == "lower"
        assert liveness.target == 1.0
        assert liveness.min_samples == 1
        assert liveness.long_windows == 1

    def test_engine_rejects_nonpositive_window(self):
        with pytest.raises(ValueError, match="window_ms"):
            SloEngine(window_ms=0.0)

    def test_quick_slos_shortens_baselines_only(self):
        engine = quick_slos()
        for spec in engine.specs:
            if spec.baseline_factor is not None:
                assert spec.baseline_windows == 2
        absolute = {s.name for s in engine.specs if s.target is not None}
        stock = {s.name for s in DEFAULT_SLOS if s.target is not None}
        assert absolute == stock


# ---------------------------------------------------------------------------
# Window metric math
# ---------------------------------------------------------------------------


class TestEvaluate:
    def test_availability_and_abort_rate(self):
        window = _window(commits=3, aborts=1)
        assert _evaluate("availability", (window,)) == (0.75, 4)
        assert _evaluate("abort_rate", (window,)) == (0.25, 4)

    def test_empty_window_has_no_data(self):
        window = _window()
        assert _evaluate("availability", (window,)) == (None, 0)
        assert _evaluate("p99_latency_ms", (window,)) == (None, 0)
        assert _evaluate("remaster_rate", (window,)) == (None, 0)
        assert _evaluate("goodput_ratio", (window,)) == (None, 0)

    def test_p99_is_nearest_rank_across_windows(self):
        first = _window(latencies=[5.0, 1.0])
        second = _window(latencies=[3.0])
        value, samples = _evaluate("p99_latency_ms", (first, second))
        assert value == 5.0 and samples == 3

    def test_remaster_rate_per_commit(self):
        window = _window(commits=4, remastered=2)
        assert _evaluate("remaster_rate", (window,)) == (0.5, 4)

    def test_open_loop_ratios_need_offered_load(self):
        window = _window(commits=4, offered=10, shed=2)
        assert _evaluate("goodput_ratio", (window,)) == (0.4, 10)
        assert _evaluate("shed_rate", (window,)) == (0.2, 10)
        closed = _window(commits=4)
        assert _evaluate("shed_rate", (closed,)) == (None, 0)

    def test_site_liveness_fraction(self):
        window = _window(sites_alive=2, sites_total=3)
        value, samples = _evaluate("site_liveness", (window,))
        assert value == pytest.approx(2 / 3)
        assert samples == 3

    def test_unknown_metric_with_offered_data_raises(self):
        window = _window(offered=5)
        with pytest.raises(ValueError, match="unknown SLO metric"):
            _evaluate("bogus", (window,))


# ---------------------------------------------------------------------------
# Burn-rate gate, hysteresis, baseline calibration
# ---------------------------------------------------------------------------


def _drive(state, windows):
    """Feed windows through a state the way the engine does (the
    current window is part of the long-horizon slice)."""
    recent = []
    opened = []
    for window in windows:
        recent.append(window)
        incident = state.close(window, recent, lambda: ())
        if incident is not None:
            opened.append(incident)
    return opened


class TestBurnAndHysteresis:
    SPEC = SloSpec("aborts", metric="abort_rate", target=0.25,
                   long_windows=2, clear_windows=2, min_samples=5)

    def test_single_noisy_window_does_not_open(self):
        state = _SloState(self.SPEC)
        opened = _drive(state, [
            _window(0, 250, commits=100),
            _window(250, 500, commits=2, aborts=8),
        ])
        assert opened == []
        assert state.open is None
        assert state.breached_windows == 1  # short breach, burn-gated

    def test_sustained_breach_opens_then_hysteresis_clears(self):
        state = _SloState(self.SPEC)
        opened = _drive(state, [
            _window(0, 250, commits=100),
            _window(250, 500, commits=2, aborts=8),
            _window(500, 750, commits=2, aborts=8),
            _window(750, 1000, commits=10),
            _window(1000, 1250, commits=10),
        ])
        assert len(opened) == 1
        incident = opened[0]
        assert incident.onset_ms == 750.0
        assert incident.clear_ms == 1250.0
        assert incident.peak_value == pytest.approx(0.8)
        assert incident.peak_severity == pytest.approx(0.8 / 0.25)
        assert state.open is None

    def test_one_clean_window_does_not_clear(self):
        state = _SloState(self.SPEC)
        _drive(state, [
            _window(0, 250, commits=100),
            _window(250, 500, commits=2, aborts=8),
            _window(500, 750, commits=2, aborts=8),
            _window(750, 1000, commits=10),
        ])
        assert state.open is not None
        assert state.open.clear_ms is None

    def test_small_windows_neither_breach_nor_clear(self):
        state = _SloState(self.SPEC)
        _drive(state, [
            _window(0, 250, commits=100),
            _window(250, 500, commits=2, aborts=8),
            _window(500, 750, commits=2, aborts=8),
            # 2 samples < min_samples=5: pure abort storm, yet it is
            # not evidence — and it must not count as a clean window.
            _window(750, 1000, aborts=2),
        ])
        assert state.open is not None
        assert state.clean_streak == 0

    def test_peak_severity_tracks_worst_window(self):
        state = _SloState(self.SPEC)
        _drive(state, [
            _window(0, 250, commits=100),
            _window(250, 500, commits=2, aborts=8),
            _window(500, 750, commits=2, aborts=8),
            _window(750, 1000, aborts=10),  # 100% aborts while open
        ])
        assert state.open.peak_value == pytest.approx(1.0)
        assert state.open.peak_severity == pytest.approx(1.0 / 0.25)


class TestBaselineCalibration:
    SPEC = SloSpec("p99", metric="p99_latency_ms", baseline_factor=2.0,
                   floor=1.0, baseline_windows=3, long_windows=4,
                   clear_windows=2, min_samples=2)

    def test_threshold_arms_from_median_baseline(self):
        state = _SloState(self.SPEC)
        _drive(state, [
            _window(0, 250, commits=2, latencies=[1.0, 1.0]),
            _window(250, 500, commits=2, latencies=[2.0, 2.0]),
        ])
        assert state.threshold is None  # still calibrating
        _drive(state, [_window(500, 750, commits=2, latencies=[9.0, 9.0])])
        assert state.threshold == pytest.approx(4.0)  # median 2.0 * 2

    def test_calibration_windows_carry_no_threshold_in_series(self):
        state = _SloState(self.SPEC)
        _drive(state, [
            _window(0, 250, commits=2, latencies=[1.0, 1.0]),
            _window(250, 500, commits=2, latencies=[2.0, 2.0]),
            _window(500, 750, commits=2, latencies=[9.0, 9.0]),
        ])
        assert [entry[2] for entry in state.series] == [None, None, None]
        assert not any(entry[4] for entry in state.series)

    def test_floor_bounds_a_tiny_baseline(self):
        spec = SloSpec("p99", metric="p99_latency_ms", baseline_factor=2.0,
                       floor=5.0, baseline_windows=1, min_samples=1)
        state = _SloState(spec)
        _drive(state, [_window(0, 250, commits=1, latencies=[0.1])])
        assert state.threshold == 5.0

    def test_small_windows_do_not_pollute_the_baseline(self):
        state = _SloState(self.SPEC)
        _drive(state, [_window(0, 250, commits=1, latencies=[500.0])])
        assert state._baseline == []

    def test_breach_after_arming_opens_incident(self):
        state = _SloState(self.SPEC)
        opened = _drive(state, [
            _window(0, 250, commits=2, latencies=[1.0, 1.0]),
            _window(250, 500, commits=2, latencies=[2.0, 2.0]),
            _window(500, 750, commits=2, latencies=[9.0, 9.0]),
            _window(750, 1000, commits=5, latencies=[10.0] * 5),
        ])
        assert len(opened) == 1
        assert opened[0].threshold == pytest.approx(4.0)
        assert opened[0].peak_value == pytest.approx(10.0)


class TestCoalesce:
    def test_nearby_windows_merge_into_one_span(self):
        spans = _coalesce(
            [("crash", 0, 100.0, 200.0), ("slow", 1, 250.0, 400.0)],
            gap_ms=100.0,
        )
        assert len(spans) == 1
        assert spans[0]["kinds"] == {"crash", "slow"}
        assert spans[0]["sites"] == {0, 1}
        assert spans[0]["end_ms"] == 400.0

    def test_distant_windows_stay_separate(self):
        spans = _coalesce(
            [("crash", 0, 100.0, 200.0), ("slow", 1, 250.0, 400.0)],
            gap_ms=10.0,
        )
        assert len(spans) == 2


# ---------------------------------------------------------------------------
# Engine window mechanics (stub-driven)
# ---------------------------------------------------------------------------


class TestEngineWindows:
    def test_observe_rolls_windows_and_finalize_closes_tail(self):
        engine, _ = _stub_engine(window_ms=100.0)
        engine.observe_txn(None, StubOutcome(), 5.0, now=10.0)
        engine.observe_txn(None, StubOutcome(), 5.0, now=450.0)
        engine.finalize(1000.0)
        assert engine.windows_closed == 10
        assert engine.run_end_ms == 1000.0
        assert engine._window is None

    def test_finalize_closes_partial_trailing_window(self):
        engine, _ = _stub_engine(window_ms=100.0)
        engine.finalize(250.0)
        assert engine.windows_closed == 3  # [0,100) [100,200) [200,250)

    def test_finalize_is_idempotent(self):
        engine, _ = _stub_engine(window_ms=100.0)
        engine.finalize(400.0)
        closed = engine.windows_closed
        engine.finalize(400.0)
        assert engine.windows_closed == closed

    def test_queue_counters_attribute_as_deltas(self):
        queue = StubQueue(offered=5, admitted=5, taken=5)
        engine, _ = _stub_engine(window_ms=100.0, queues=[queue])
        first = engine._window
        engine._close_window(first)
        assert (first.offered, first.shed) == (5, 0)
        queue.offered, queue.admitted, queue.shed, queue.taken = 12, 9, 3, 9
        second = engine._window
        engine._close_window(second)
        assert (second.offered, second.shed) == (7, 3)

    def test_windows_start_at_warmup(self):
        engine = SloEngine(specs=(), window_ms=100.0)
        engine.install(StubSystem([StubSite(0)]), duration_ms=1000.0,
                       warmup_ms=300.0)
        assert engine._window.start == 300.0
        assert engine._window.end == 400.0


# ---------------------------------------------------------------------------
# Runtime invariants
# ---------------------------------------------------------------------------


class TestInvariants:
    def test_clean_cluster_has_no_violations(self):
        queue = StubQueue(offered=10, admitted=8, shed=2, taken=7, backlog=1)
        engine, _ = _stub_engine(
            queues=[queue], injector=StubInjector(),
            selector=StubSelector({0: 0, 1: 1, 2: 2}),
        )
        engine.finalize(1000.0)
        assert engine.violations == []

    def test_duplicate_mastership_is_one_violation_per_episode(self):
        sites = [StubSite(0, mastered={5}), StubSite(1, mastered={5}),
                 StubSite(2, mastered={2})]
        engine, _ = _stub_engine(sites=sites)
        engine._close_window(engine._window)
        engine._close_window(engine._window)  # still violated: same episode
        assert len(engine.violations) == 1
        violation = engine.violations[0]
        assert violation.objective == "invariant:single_master"
        assert violation.kind == "invariant"
        assert violation.blamed_sites == (0, 1)
        assert "partition 5" in violation.detail
        assert violation.clear_ms is None

    def test_violation_clears_when_the_property_holds_again(self):
        sites = [StubSite(0, mastered={5}), StubSite(1, mastered={5})]
        engine, _ = _stub_engine(sites=sites, window_ms=100.0)
        engine._close_window(engine._window)
        sites[1].mastered = {7}
        engine._close_window(engine._window)
        assert engine.violations[0].clear_ms == 200.0

    def test_dead_sites_do_not_count_as_duplicate_masters(self):
        sites = [StubSite(0, mastered={5}), StubSite(1, mastered={5}, alive=False)]
        engine, _ = _stub_engine(sites=sites)
        engine.finalize(1000.0)
        assert engine.violations == []

    def test_selector_mapping_to_unknown_site_is_a_violation(self):
        engine, _ = _stub_engine(selector=StubSelector({3: 7}))
        engine._close_window(engine._window)
        assert any("invalid site 7" in v.detail for v in engine.violations)

    def test_admission_conservation_offered_mismatch(self):
        queue = StubQueue(offered=10, admitted=6, shed=3, taken=6)
        engine, _ = _stub_engine(queues=[StubQueue(offered=4, admitted=4, taken=4),
                                         queue])
        engine._close_window(engine._window)
        violation = engine.violations[0]
        assert violation.objective == "invariant:admission_conservation"
        assert violation.blamed_sites == (1,)
        assert "offered 10" in violation.detail

    def test_admission_conservation_backlog_mismatch(self):
        queue = StubQueue(offered=10, admitted=10, taken=6, backlog=1)
        engine, _ = _stub_engine(queues=[queue])
        engine._close_window(engine._window)
        assert "admitted 10 != taken 6 + backlog 1" in engine.violations[0].detail

    def test_svv_regression_within_epoch_is_a_violation(self):
        engine, sites = _stub_engine(window_ms=100.0)
        sites[1].svv = [0, 5, 0]
        engine._close_window(engine._window)
        sites[1].svv = [0, 3, 0]
        engine._close_window(engine._window)
        violation = engine.violations[0]
        assert violation.objective == "invariant:replay_monotonic"
        assert violation.blamed_sites == (1,)
        assert "regressed 5 -> 3" in violation.detail

    def test_epoch_bump_forgives_svv_reset(self):
        engine, sites = _stub_engine(window_ms=100.0)
        sites[1].svv = [0, 5, 0]
        engine._close_window(engine._window)
        sites[1].svv = [0, 0, 0]
        sites[1].epoch += 1  # crash-recovery reset: a fresh baseline
        engine._close_window(engine._window)
        assert engine.violations == []

    def test_dead_site_svv_is_not_checked(self):
        engine, sites = _stub_engine(window_ms=100.0)
        sites[1].svv = [0, 5, 0]
        engine._close_window(engine._window)
        sites[1].alive = False
        sites[1].svv = [0, 0, 0]
        engine._close_window(engine._window)
        sites[1].alive = True
        engine._close_window(engine._window)
        assert engine.violations == []

    def test_detector_false_suspicions_cannot_exceed_episodes(self):
        injector = StubInjector(StubDetector(episodes=1, false_suspicions=2))
        engine, _ = _stub_engine(injector=injector)
        engine._close_window(engine._window)
        assert any(
            v.objective == "invariant:detector_sanity"
            and "false_suspicions 2" in v.detail
            for v in engine.violations
        )

    def test_detector_episode_counter_must_be_monotonic(self):
        injector = StubInjector(StubDetector(episodes=5))
        engine, _ = _stub_engine(injector=injector, window_ms=100.0)
        engine._close_window(engine._window)
        injector.detector.suspicion_episodes = 3
        engine._close_window(engine._window)
        assert any("regressed 5 -> 3" in v.detail for v in engine.violations)

    def test_detector_suspecting_unknown_site_is_a_violation(self):
        injector = StubInjector(StubDetector(suspected={9}))
        engine, _ = _stub_engine(injector=injector)
        engine._close_window(engine._window)
        assert any("unknown site 9" in v.detail for v in engine.violations)


class TestBlame:
    def test_dead_sites_win(self):
        sites = [StubSite(0), StubSite(1, alive=False), StubSite(2)]
        engine, _ = _stub_engine(
            sites=sites, injector=StubInjector(StubDetector(suspected={0})),
        )
        assert engine._blame() == (1,)

    def test_suspected_sites_when_all_alive(self):
        engine, _ = _stub_engine(
            injector=StubInjector(StubDetector(suspected={2})),
        )
        assert engine._blame() == (2,)

    def test_out_of_range_suspicions_are_ignored(self):
        engine, _ = _stub_engine(
            injector=StubInjector(StubDetector(suspected={9})),
            queues=[StubQueue(), StubQueue(backlog=4), StubQueue(backlog=2)],
        )
        assert engine._blame() == (1,)

    def test_no_signal_blames_nobody(self):
        engine, _ = _stub_engine(queues=[StubQueue(), StubQueue()])
        assert engine._blame() == ()


# ---------------------------------------------------------------------------
# Incident round-trip
# ---------------------------------------------------------------------------


class TestIncident:
    def test_dict_round_trip(self):
        incident = Incident(
            objective="abort_rate", onset_ms=500.0, clear_ms=1250.0,
            threshold=0.25, peak_value=0.8, peak_severity=3.2,
            blamed_sites=(1, 2), detail="abort_rate=0.8 > 0.25",
        )
        data = json.loads(json.dumps(incident.to_dict()))
        data["blamed_sites"] = tuple(data["blamed_sites"])
        assert Incident(**data) == incident

    def test_open_incident_duration_runs_to_end(self):
        incident = Incident(objective="x", onset_ms=400.0, clear_ms=None)
        assert incident.duration_ms(1000.0) == 600.0
        incident.clear_ms = 700.0
        assert incident.duration_ms(1000.0) == 300.0


# ---------------------------------------------------------------------------
# End-to-end runs (module-scoped: these simulate seconds of cluster time)
# ---------------------------------------------------------------------------


def _workload():
    return YCSBWorkload(
        YCSBConfig(num_partitions=40, rmw_fraction=0.5, zipf_theta=0.5)
    )


def _slo_run(system, scenario, slo, duration_ms=6000.0, seed=0):
    workload = _workload()
    rpc, weights = defense_setup("adaptive", workload)
    plan = (build_scenario(scenario, num_sites=3, duration_ms=duration_ms)
            if scenario else None)
    return run_benchmark(
        system,
        workload,
        num_clients=8,
        duration_ms=duration_ms,
        warmup_ms=0.0,
        cluster_config=ClusterConfig(num_sites=3, rpc=rpc),
        weights=weights,
        seed=seed,
        fault_plan=plan,
        slo=slo,
    )


@pytest.fixture(scope="module")
def fail_slow():
    engine = quick_slos()
    result = _slo_run("dynamast", "fail_slow_master", engine)
    return result, engine


@pytest.fixture(scope="module")
def crash():
    engine = quick_slos()
    result = _slo_run("dynamast", "crash", engine)
    return result, engine


@pytest.fixture(scope="module")
def unmonitored_fail_slow():
    return _slo_run("dynamast", "fail_slow_master", None)


class TestFaultDetection:
    def test_fail_slow_fault_window_is_detected(self, fail_slow):
        result, engine = fail_slow
        assert result.slo is engine
        assert len(engine.correlation) >= 1
        for span in engine.correlation:
            assert span["detected"]
            assert span["incidents"]  # >= 1 incident per fault window
            assert span["detection_ms"] >= 0.0
        summary = engine.summary()
        assert summary["missed_faults"] == 0.0
        assert summary["true_positives"] >= 1.0
        assert summary["mttd_mean_ms"] >= 0.0

    def test_fail_slow_has_no_invariant_violations(self, fail_slow):
        _, engine = fail_slow
        assert engine.violations == []
        assert engine.summary()["violations"] == 0.0

    def test_crash_is_detected_via_site_liveness(self, crash):
        _, engine = crash
        assert len(engine.correlation) >= 1
        span = engine.correlation[0]
        assert "crash" in span["kinds"]
        assert span["detected"]
        liveness = [i for i in engine.incidents if i.objective == "site_liveness"]
        assert liveness, "a dead replica must itself be an incident"
        assert liveness[0].blamed_sites  # the dead site is named
        assert set(liveness[0].blamed_sites) <= {0, 1, 2}

    def test_crash_without_restart_never_recovers(self, crash):
        _, engine = crash
        summary = engine.summary()
        assert summary["violations"] == 0.0
        # The site stays down, so the liveness incident never clears
        # and MTTR is not applicable (-1 sentinel).
        assert summary["mttr_mean_ms"] == -1.0

    def test_run_chaos_threads_the_engine_through(self):
        engine = quick_slos()
        report = run_chaos(
            "dynamast", "crash", num_clients=4, duration_ms=1200.0,
            bucket_ms=300.0, slo=engine,
        )
        assert report.result.slo is engine
        assert engine.run_end_ms == 1200.0


class TestUnfaultedRuns:
    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    def test_invariants_hold_on_every_system(self, system):
        engine = quick_slos()
        _slo_run(system, None, engine, duration_ms=3000.0)
        assert engine.violations == []
        assert engine.summary()["violations"] == 0.0
        # No injected faults: any incident is a false positive. leap's
        # p99 genuinely drifts several-fold under contention as queues
        # build (real behavior, not noise), so only the other four
        # systems pin a silent SLO verdict.
        if system != "leap":
            assert engine.incidents == []
            assert engine.false_positives == []


class TestDeterminism:
    def test_slo_on_matches_slo_off_bit_for_bit(self, fail_slow,
                                                unmonitored_fail_slow):
        monitored, _ = fail_slow
        assert run_fingerprint(monitored) == run_fingerprint(unmonitored_fail_slow)
        assert monitored.metrics.commits == unmonitored_fail_slow.metrics.commits


class TestParallelFolding:
    def test_jobs2_summary_matches_serial(self):
        workload = WorkloadSpec.of(
            "ycsb", num_partitions=40, rmw_fraction=0.5, zipf_theta=0.5
        )
        specs = [
            RunSpec(
                system=system, workload=workload, num_clients=8,
                duration_ms=2500.0, warmup_ms=0.0,
                cluster=ClusterConfig(num_sites=3), seed=0,
                fault_scenario="fail_slow_master", slo=True,
                label=f"{system}-fail-slow",
            )
            for system in ("dynamast", "single-master")
        ]
        serial = execute_specs(specs, jobs=1)
        parallel = execute_specs(specs, jobs=2)
        for left, right in zip(serial, parallel):
            assert left.fingerprint == right.fingerprint
            assert left.slo_verdict == right.slo_verdict
            assert left.slo_verdict  # the verdict folded through the worker
            assert "incidents" in left.slo_verdict
            assert "mttd_mean_ms" in left.slo_verdict


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


class TestJsonlExport:
    def test_round_trip(self, fail_slow, tmp_path):
        _, engine = fail_slow
        path = tmp_path / "slo.jsonl"
        engine.write_jsonl(str(path))
        data = load_jsonl(str(path))
        header = data["header"]
        assert header["schema"] == SCHEMA
        assert header["window_ms"] == engine.window_ms
        assert header["run_end_ms"] == engine.run_end_ms
        assert header["incidents"] == engine.summary()["incidents"]
        assert len(header["specs"]) == len(engine.specs)
        assert len(data["incidents"]) == len(engine.incidents)
        assert data["incidents"][0] == engine.incidents[0].to_dict()
        assert data["spans"] == engine.correlation
        series = engine.window_series()
        assert len(data["windows"]) == sum(len(s) for s in series.values())

    def test_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"schema": "nope/9"}) + "\n")
        with pytest.raises(ValueError, match="not a repro-slo/1 file"):
            load_jsonl(str(path))

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_jsonl(str(path))


class TestCsvAndPrometheus:
    def test_csv_has_one_row_per_incident(self, fail_slow, tmp_path):
        _, engine = fail_slow
        path = tmp_path / "slo.csv"
        engine.write_csv(str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("kind,objective,onset_ms")
        assert len(lines) == 1 + len(engine.incidents) + len(engine.violations)
        assert lines[1].startswith("slo,")

    def test_prometheus_exposition(self, fail_slow):
        _, engine = fail_slow
        text = exposition(engine, {"system": "dynamast"})
        assert "# TYPE repro_slo_incidents_total counter" in text
        assert 'system="dynamast"' in text
        assert "# TYPE repro_slo_mttd_mean_ms gauge" in text
        assert text.endswith("\n")
        incidents = [row for row in parse_exposition(text)
                     if row[0] == "repro_slo_incidents_total"]
        assert sum(int(value) for _, _, value in incidents) == len(engine.incidents)
        assert all('objective="' in labels for _, labels, _ in incidents)
        # Sorted-line digest of the deleted SloEngine.to_prometheus.
        assert sorted_digest(text) == (
            "ba15f7a96b9c5851bc56000c0398e130889d1894f7dc5b8da83c7593e832e85c")

    def test_prometheus_zero_state_without_labels(self):
        engine = SloEngine()
        engine.finalize(0.0)
        text = exposition(engine)
        assert "repro_slo_incidents_total 0" in text
        assert "repro_slo_violations_total 0" in text


class TestBenchExportColumns:
    def test_detector_columns_are_first_class_fields(self):
        assert "detection_latency_ms" in FIELDS
        assert "quarantine_ms" in FIELDS

    def test_slo_columns_ride_along(self, fail_slow):
        result, engine = fail_slow
        row = rows_from(result)[0]
        summary = engine.summary()
        assert row["slo_incidents"] == summary["incidents"]
        assert row["slo_mttd_mean_ms"] == summary["mttd_mean_ms"]
        header = to_csv(result).split("\n")[0]
        assert "slo_incidents" in header
        assert "detection_latency_ms" in header

    def test_attach_slo_accepts_a_folded_verdict(self):
        class Folded:
            slo_verdict = {"incidents": 2.0, "violations": 0.0}

        row = {}
        attach_slo(row, Folded())
        assert row == {"slo_incidents": 2.0, "slo_violations": 0.0}

    def test_attach_slo_is_a_noop_without_an_engine(self):
        class Bare:
            slo_verdict = {}

        row = {}
        attach_slo(row, Bare())
        assert row == {}


# ---------------------------------------------------------------------------
# Dashboard
# ---------------------------------------------------------------------------


class TestDashboard:
    def test_renders_all_sections(self, fail_slow):
        result, engine = fail_slow
        page = render_dashboard(result)
        assert page.startswith("<!DOCTYPE html>")
        assert "<svg" in page
        assert "<h2>Verdict</h2>" in page
        assert "Fault correlation (injector ground truth)" in page
        assert "<h2>Objective timelines</h2>" in page
        assert "<h2>Incident ledger</h2>" in page
        for spec in engine.specs:
            assert spec.name in page

    def test_render_is_deterministic(self, fail_slow):
        result, _ = fail_slow
        assert render_dashboard(result) == render_dashboard(result)

    def test_title_is_escaped(self, fail_slow):
        result, _ = fail_slow
        page = render_dashboard(result, title='<x> & "q"')
        assert "<x>" not in page
        assert "&lt;x&gt; &amp; &quot;q&quot;" in page

    def test_write_dashboard(self, fail_slow, tmp_path):
        result, _ = fail_slow
        path = tmp_path / "dash.html"
        write_dashboard(result, str(path))
        assert path.read_text().startswith("<!DOCTYPE html>")

    def test_requires_a_monitored_run(self, unmonitored_fail_slow):
        with pytest.raises(ValueError, match="SloEngine"):
            render_dashboard(unmonitored_fail_slow)
