"""FaultPlan validation and the named chaos scenarios."""

import pytest

from repro.faults import (
    FRONTEND,
    GRAY_SCENARIOS,
    SCENARIOS,
    CrashFault,
    FaultPlan,
    LinkFault,
    SlowFault,
    build_scenario,
    flapping_site,
    partition_site,
)


class TestPlanValidation:
    def test_empty_plan_is_valid_and_empty(self):
        plan = FaultPlan()
        plan.validate(num_sites=3)
        assert plan.empty

    def test_valid_plan_passes(self):
        plan = FaultPlan(
            crashes=(CrashFault(1, at_ms=100.0, restart_at_ms=500.0),),
            links=(LinkFault(0, 2, 50.0, 250.0, loss=0.3),),
        )
        plan.validate(num_sites=3)
        assert not plan.empty

    def test_crash_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown site"):
            FaultPlan(crashes=(CrashFault(5, at_ms=10.0),)).validate(3)

    def test_sequential_crashes_per_site_allowed(self):
        plan = FaultPlan(crashes=(
            CrashFault(1, at_ms=10.0, restart_at_ms=20.0),
            CrashFault(1, at_ms=40.0),
        ))
        plan.validate(3)

    def test_overlapping_crash_windows_rejected(self):
        plan = FaultPlan(crashes=(
            CrashFault(1, at_ms=10.0, restart_at_ms=30.0),
            CrashFault(1, at_ms=20.0, restart_at_ms=50.0),
        ))
        with pytest.raises(ValueError, match="overlapping crash windows"):
            plan.validate(3)

    def test_crash_after_permanent_crash_rejected(self):
        plan = FaultPlan(crashes=(
            CrashFault(1, at_ms=10.0),
            CrashFault(1, at_ms=30.0),
        ))
        with pytest.raises(ValueError, match="never restarts"):
            plan.validate(3)

    def test_restart_must_follow_crash(self):
        plan = FaultPlan(crashes=(CrashFault(0, at_ms=100.0, restart_at_ms=100.0),))
        with pytest.raises(ValueError, match="not after"):
            plan.validate(3)

    def test_crashing_every_site_rejected(self):
        plan = FaultPlan(crashes=(
            CrashFault(0, at_ms=10.0),
            CrashFault(1, at_ms=20.0),
        ))
        with pytest.raises(ValueError, match="every site"):
            plan.validate(2)

    def test_link_self_loop_rejected(self):
        plan = FaultPlan(links=(LinkFault(1, 1, 0.0, 10.0, drop=True),))
        with pytest.raises(ValueError, match="self-loop"):
            plan.validate(3)

    def test_link_unknown_site_rejected(self):
        plan = FaultPlan(links=(LinkFault(0, 7, 0.0, 10.0, drop=True),))
        with pytest.raises(ValueError, match="unknown site"):
            plan.validate(3)

    def test_total_loss_requires_drop(self):
        plan = FaultPlan(links=(LinkFault(0, 1, 0.0, 10.0, loss=1.0),))
        with pytest.raises(ValueError, match="drop=True"):
            plan.validate(3)

    def test_permanent_partition_rejected(self):
        plan = FaultPlan(links=(
            LinkFault(0, 1, 0.0, float("inf"), drop=True),
        ))
        with pytest.raises(ValueError, match="must end"):
            plan.validate(3)

    def test_empty_interval_rejected(self):
        plan = FaultPlan(links=(LinkFault(0, 1, 10.0, 10.0, drop=True),))
        with pytest.raises(ValueError, match="empty"):
            plan.validate(3)

    def test_negative_extra_delay_rejected(self):
        plan = FaultPlan(links=(LinkFault(0, 1, 0.0, 10.0, extra_delay_ms=-1.0),))
        with pytest.raises(ValueError, match="negative"):
            plan.validate(3)

    def test_negative_jitter_rejected(self):
        plan = FaultPlan(links=(LinkFault(0, 1, 0.0, 10.0, jitter_ms=-2.0),))
        with pytest.raises(ValueError, match="negative"):
            plan.validate(3)

    def test_slow_fault_accepted_and_open_ended(self):
        plan = FaultPlan(slowdowns=(
            SlowFault(1, 100.0, float("inf"), factor=4.0),
        ))
        plan.validate(3)
        assert not plan.empty

    def test_slow_fault_unknown_site_rejected(self):
        plan = FaultPlan(slowdowns=(SlowFault(9, 0.0, 10.0),))
        with pytest.raises(ValueError, match="unknown site"):
            plan.validate(3)

    def test_slow_fault_factor_must_be_positive(self):
        plan = FaultPlan(slowdowns=(SlowFault(1, 0.0, 10.0, factor=0.0),))
        with pytest.raises(ValueError, match="positive"):
            plan.validate(3)

    def test_slow_fault_empty_window_rejected(self):
        plan = FaultPlan(slowdowns=(SlowFault(1, 10.0, 10.0),))
        with pytest.raises(ValueError, match="is empty"):
            plan.validate(3)

    def test_slow_fault_active_window(self):
        slow = SlowFault(0, 100.0, 200.0, factor=5.0)
        assert not slow.active_at(99.9)
        assert slow.active_at(100.0)
        assert slow.active_at(199.9)
        assert not slow.active_at(200.0)


class TestPartitionSugar:
    def test_partition_site_cuts_both_directions(self):
        links = partition_site(1, 100.0, 200.0, num_sites=3)
        pairs = {(link.src, link.dst) for link in links}
        assert pairs == {
            (1, 0), (0, 1), (1, 2), (2, 1), (1, FRONTEND), (FRONTEND, 1),
        }
        assert all(link.drop for link in links)
        assert all(link.start_ms == 100.0 and link.end_ms == 200.0 for link in links)

    def test_link_fault_active_window(self):
        link = LinkFault(0, 1, 100.0, 200.0, drop=True)
        assert not link.active_at(99.9)
        assert link.active_at(100.0)
        assert link.active_at(199.9)
        assert not link.active_at(200.0)

    def test_degrade_site_inflates_without_cutting(self):
        # degraded_wan_link: both directions of one link to the victim
        # get latency and jitter, never a cut or loss.
        links = build_scenario("degraded_wan_link", num_sites=3, duration_ms=3000.0).links
        pairs = {(link.src, link.dst) for link in links}
        assert len(pairs) == 2 and all((dst, src) in pairs for src, dst in pairs)
        assert all(not link.drop and link.loss == 0.0 for link in links)
        assert all(link.extra_delay_ms > 0.0 and link.jitter_ms > 0.0 for link in links)

    def test_flapping_site_cycles_cover_window(self):
        links = flapping_site(1, 0.0, 1000.0, num_sites=3,
                              period_ms=250.0, downtime_ms=100.0)
        starts = sorted({link.start_ms for link in links})
        assert starts == [0.0, 250.0, 500.0, 750.0]
        assert all(link.end_ms - link.start_ms == 100.0 for link in links)
        assert all(link.drop for link in links)
        FaultPlan(links=links).validate(3)

    def test_flapping_site_rejects_bad_cadence(self):
        with pytest.raises(ValueError, match="period"):
            flapping_site(1, 0.0, 1000.0, num_sites=3, period_ms=0.0)
        with pytest.raises(ValueError, match="downtime"):
            flapping_site(1, 0.0, 1000.0, num_sites=3,
                          period_ms=100.0, downtime_ms=150.0)


class TestScenarios:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_every_named_scenario_validates(self, name):
        plan = build_scenario(name, num_sites=3, duration_ms=3000.0)
        plan.validate(3)
        assert not plan.empty

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            build_scenario("meteor-strike", num_sites=3, duration_ms=1000.0)

    def test_scenarios_need_two_sites(self):
        with pytest.raises(ValueError, match="two sites"):
            build_scenario("crash", num_sites=1, duration_ms=1000.0)

    def test_gray_scenarios_are_named_scenarios(self):
        assert set(GRAY_SCENARIOS) <= set(SCENARIOS)

    def test_fail_slow_master_slows_without_crashing(self):
        plan = build_scenario("fail_slow_master", num_sites=3,
                              duration_ms=3000.0)
        assert not plan.crashes
        (slow,) = plan.slowdowns
        assert slow.factor > 1.0

    def test_gray_storm_validates_at_two_sites(self):
        plan = build_scenario("gray_storm", num_sites=2, duration_ms=3000.0)
        plan.validate(2)

    def test_crash_restart_outage_is_bounded(self):
        plan = build_scenario("crash-restart", num_sites=3, duration_ms=3000.0)
        (crash,) = plan.crashes
        assert crash.restart_at_ms is not None
        assert crash.at_ms < crash.restart_at_ms <= 3000.0
