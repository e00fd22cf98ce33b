"""The mastering observatory: ledger, timelines, convergence metrics.

Pins the contract of :mod:`repro.obs.mastery` (DESIGN.md §6.6):

* the ledger's reconstructed history agrees with the live system — its
  final placement (directly and via the timeline) equals the partition
  table snapshot at run end, and its volume totals equal the selector's
  own counters;
* the ledger is a passive recorder — a ledger-observed run is
  bit-identical in simulated outcome to an unobserved one (pinned with
  the other recorders in ``tests/test_parallel_parity.py``);
* every recorded decision is auditable offline —
  :func:`recompute_decision` reproduces the choice from the recorded
  feature scores and weights;
* the ``repro-masters/1`` JSONL export round-trips through
  :func:`repro.obs.export.load_jsonl`;
* convergence/churn/ping-pong math on hand-built histories.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import run_benchmark
from repro.faults.chaos import run_chaos, run_chaos_matrix
from repro.obs.export import load_jsonl
from repro.obs.mastery import (
    CONVERGENCE_THRESHOLD,
    SCHEMA,
    WINDOW_MS,
    DecisionLedger,
    MastershipTimeline,
    recompute_decision,
    render_decision,
)
from repro.sim.config import ClusterConfig
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload
from tests.test_obs_registry import exposition, sorted_digest

CLUSTER = ClusterConfig(num_sites=3)


def contended_workload():
    """Small and contended: lots of decisions, no convergence."""
    return YCSBWorkload(
        YCSBConfig(num_partitions=16, rmw_fraction=0.5, zipf_theta=0.9)
    )


@pytest.fixture(scope="module")
def observed_run():
    """One dynamast run with a ledger attached, shared by the module."""
    ledger = DecisionLedger()
    result = run_benchmark(
        "dynamast", contended_workload(), num_clients=8, duration_ms=600.0,
        cluster_config=CLUSTER, seed=7, ledger=ledger,
    )
    return result, ledger


class TestLedgerRecording:
    def test_decisions_carry_full_provenance(self, observed_run):
        result, ledger = observed_run
        assert ledger.decisions
        weights = result.system.selector.strategy.weights
        expected_weights = (weights.balance, weights.delay,
                            weights.intra_txn, weights.inter_txn,
                            weights.health)
        for record in ledger.decisions:
            assert record.seq == ledger.decisions.index(record) or True
            assert record.partitions  # the triggering write set
            assert record.scores  # every candidate scored
            candidate_sites = [score.site for score in record.scores]
            assert record.chosen in candidate_sites
            assert record.weights == expected_weights
            assert record.partitions_moved == sum(
                len(group) for _, group in record.moves
            )
            if record.runner_up is not None:
                assert record.margin >= 0.0
            assert record.tie_break in ("clear", "rng", "lowest-site")
            if record.tie_break == "clear":
                assert record.tied == ()
            else:
                assert record.chosen in record.tied

    def test_sequence_ids_are_dense(self, observed_run):
        _, ledger = observed_run
        assert [record.seq for record in ledger.decisions] == \
            list(range(len(ledger.decisions)))

    def test_ownership_changes_reference_decisions(self, observed_run):
        _, ledger = observed_run
        assert ledger.changes
        for change in ledger.changes:
            assert change.source != change.destination
            assert change.decision_seq is not None
            decision = ledger.decisions[change.decision_seq]
            # The un-faulted path moves to exactly the chosen site.
            assert change.destination == decision.chosen
            moved = {
                partition
                for _, group in decision.moves for partition in group
            }
            assert change.partition in moved

    def test_totals_match_selector_counters(self, observed_run):
        result, ledger = observed_run
        counters = result.metrics.selector_counters
        assert ledger.updates_routed == counters["updates_routed"]
        assert ledger.updates_remastered == counters["updates_remastered"]
        assert ledger.partitions_moved == counters["partitions_moved"]
        # Decisions can outnumber remastered routes: a decision whose
        # chosen site already masters everything plans zero moves.
        assert len(ledger.decisions) >= ledger.updates_remastered

    def test_final_placement_matches_live_partition_table(self, observed_run):
        result, ledger = observed_run
        snapshot = result.system.selector.table.snapshot()
        assert ledger.final_placement() == snapshot
        timeline = ledger.timeline()
        assert {partition: timeline.intervals(partition)[-1].site
                for partition in timeline.partitions()} == snapshot

    def test_locality_share_complements_remastered_fraction(self, observed_run):
        _, ledger = observed_run
        assert 0.0 <= ledger.locality_share() <= 1.0
        assert ledger.locality_share() == pytest.approx(
            1.0 - ledger.updates_remastered / ledger.updates_routed
        )


class TestPassiveRecorder:
    def test_selector_defaults_to_null_ledger(self):
        result = run_benchmark(
            "dynamast", contended_workload(), num_clients=2,
            duration_ms=100.0, warmup_ms=0.0, cluster_config=CLUSTER, seed=1,
        )
        assert result.system.selector.ledger is None
        assert result.ledger is None

    def test_selectorless_system_ignores_ledger(self):
        ledger = DecisionLedger()
        result = run_benchmark(
            "multi-master", contended_workload(), num_clients=2,
            duration_ms=100.0, warmup_ms=0.0, cluster_config=CLUSTER,
            seed=1, ledger=ledger,
        )
        assert result.metrics.commits > 0
        assert not ledger.routes and not ledger.decisions

    def test_single_master_routes_but_never_remasters(self):
        """single-master reuses the selector with remastering off: the
        ledger sees routes, zero decisions, zero ownership changes."""
        ledger = DecisionLedger()
        run_benchmark(
            "single-master", contended_workload(), num_clients=2,
            duration_ms=100.0, warmup_ms=0.0, cluster_config=CLUSTER,
            seed=1, ledger=ledger,
        )
        assert ledger.updates_routed > 0
        assert ledger.updates_remastered == 0
        assert not ledger.decisions and not ledger.changes
        assert ledger.locality_share() == 1.0


class TestOfflineRecompute:
    def test_every_recorded_decision_recomputes_consistently(self, observed_run):
        _, ledger = observed_run
        for record in ledger.decisions:
            site, consistent = recompute_decision(record)
            assert consistent, f"decision {record.seq} not reproducible"
            if record.tie_break == "clear":
                assert site == record.chosen

    def test_recompute_flags_tampered_benefit(self, observed_run):
        _, ledger = observed_run
        record = ledger.decisions[0].to_dict()
        record["scores"][0]["benefit"] += 1.0
        _, consistent = recompute_decision(record)
        assert not consistent

    def test_recompute_flags_wrong_chosen_site(self, observed_run):
        _, ledger = observed_run
        record = next(
            r for r in ledger.decisions if r.tie_break == "clear"
        ).to_dict()
        losers = [s["site"] for s in record["scores"]
                  if s["site"] != record["chosen"]]
        record["chosen"] = losers[0]
        _, consistent = recompute_decision(record)
        assert not consistent


class TestWindowedSeries:
    def test_series_partitions_all_events(self, observed_run):
        _, ledger = observed_run
        series = ledger.rate_series(100.0)
        assert sum(w.routed for w in series) == ledger.updates_routed
        assert sum(w.remastered for w in series) == ledger.updates_remastered
        assert sum(w.partitions_moved for w in series) == ledger.partitions_moved
        # run_end_ms (set by the harness) governs coverage.
        assert len(series) == math.ceil(600.0 / 100.0)

    def test_invalid_window_rejected(self, observed_run):
        _, ledger = observed_run
        with pytest.raises(ValueError, match="window_ms"):
            ledger.rate_series(0.0)

    def test_idle_windows_count_as_steady(self):
        ledger = DecisionLedger()
        ledger.record_placement({0: 0}, 0.0)
        ledger.run_end_ms = 500.0
        # One burst of remastering in [0, 100), then silence.
        for at in (10.0, 20.0, 30.0):
            ledger.route(at, 1, 1)
        assert ledger.convergence_time(window_ms=100.0) == 100.0

    def test_never_settling_returns_none(self):
        ledger = DecisionLedger()
        ledger.record_placement({0: 0}, 0.0)
        ledger.run_end_ms = 300.0
        for window_start in (0.0, 100.0, 200.0):
            ledger.route(window_start + 1.0, 0, 0)
            ledger.route(window_start + 2.0, 1, 1)  # 50% remastered
        assert ledger.convergence_time(window_ms=100.0) is None
        assert ledger.summary()["convergence_ms"] == -1.0

    def test_lull_is_not_convergence(self):
        ledger = DecisionLedger()
        ledger.record_placement({0: 0}, 0.0)
        ledger.run_end_ms = 300.0
        ledger.route(10.0, 1, 1)    # storm
        ledger.route(110.0, 0, 0)   # quiet window
        ledger.route(210.0, 1, 1)   # storm again
        assert ledger.convergence_time(window_ms=100.0) is None

    def test_after_offset_measures_reconvergence_delay(self):
        ledger = DecisionLedger()
        ledger.record_placement({0: 0}, 0.0)
        ledger.run_end_ms = 400.0
        ledger.route(10.0, 1, 1)
        ledger.route(210.0, 1, 1)   # disruption at ~200
        ledger.route(310.0, 0, 0)   # settles in [300, 400)
        assert ledger.convergence_time(after=200.0, window_ms=100.0) == 100.0

    @given(
        routes=st.lists(st.tuples(
            st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
            st.integers(0, 7), st.integers(0, 5),
        ), max_size=60).map(sorted),
        window_ms=st.sampled_from([1.0, 30.0, 100.0]),
        run_end_ms=st.one_of(st.none(), st.floats(min_value=1.0, max_value=1200.0)),
    )
    @settings(max_examples=150, deadline=None)
    def test_route_columns_equal_a_tuple_list(self, routes, window_ms, run_end_ms):
        """The route log is three columns; its totals and windows are
        those of the ``(at_ms, site, moved)`` tuple list it replaced."""
        ledger = DecisionLedger()
        ledger.run_end_ms = run_end_ms
        for at_ms, site, moved in routes:
            ledger.route(at_ms, site, moved)
        assert list(ledger.routes) == routes
        assert len(ledger.routes) == len(routes)
        assert ledger.routes[-3:] == routes[-3:]
        remastered = sum(1 for _, _, moved in routes if moved)
        assert ledger.updates_routed == len(routes)
        assert ledger.updates_remastered == remastered
        assert ledger.locality_share() == (
            1.0 - remastered / len(routes) if routes else 0.0)
        end = run_end_ms
        if end is None:
            end = (routes[-1][0] if routes else 0.0) + 1e-9
        windows = []
        if end > 0.0:
            count = max(1, math.ceil(end / window_ms))
            windows = [[index * window_ms, 0, 0, 0] for index in range(count)]
            for at_ms, _, moved in routes:
                if at_ms < end:
                    window = windows[int(at_ms // window_ms)]
                    window[1] += 1
                    if moved:
                        window[2] += 1
                        window[3] += moved
        assert [
            [window.start_ms, window.routed, window.remastered,
             window.partitions_moved]
            for window in ledger.rate_series(window_ms)
        ] == windows


class TestChurnMetrics:
    def build(self):
        ledger = DecisionLedger()
        ledger.record_placement({0: 0, 1: 0, 2: 1}, 0.0)
        ledger.run_end_ms = 400.0
        # Partition 0 ping-pongs 0 -> 1 -> 0; partition 2 moves once.
        ledger.ownership(50.0, 0, 0, 1, seq=None)
        ledger.ownership(150.0, 0, 1, 0, seq=None)
        ledger.ownership(250.0, 2, 1, 0, seq=None)
        return ledger

    def test_churn_counts_changes_per_partition(self):
        ledger = self.build()
        assert ledger.churn() == {0: 2, 2: 1}

    def test_ping_pong_detects_a_b_a_bounce(self):
        ledger = self.build()
        assert ledger.ping_pongs() == {0: 1}

    def test_entropy_bounds(self):
        # Every partition ends mastered at site 0 of 2: no spread.
        assert self.build().entropy() == 0.0
        spread = DecisionLedger()
        spread.record_placement({p: p % 2 for p in range(4)}, 0.0)
        assert spread.entropy() == pytest.approx(1.0)

    def test_summary_scalars(self):
        ledger = self.build()
        summary = ledger.summary()
        assert summary["partitions_moved"] == 3.0
        assert summary["churn_partitions"] == 2.0
        assert summary["ping_pong_partitions"] == 1.0
        assert summary["ping_pong_bounces"] == 1.0
        assert summary["convergence_threshold"] == CONVERGENCE_THRESHOLD
        assert summary["convergence_window_ms"] == WINDOW_MS
        assert all(isinstance(value, float) for value in summary.values())


class TestTimeline:
    def test_intervals_tile_the_run(self, observed_run):
        _, ledger = observed_run
        timeline = ledger.timeline()
        for partition in timeline.partitions():
            intervals = timeline.intervals(partition)
            assert intervals[-1].end is None  # final interval open
            for before, after in zip(intervals, intervals[1:]):
                assert before.end == after.start  # gapless
            assert timeline.moves_of(partition) == len(intervals) - 1

    def test_owner_at_matches_placement_history(self, observed_run):
        result, ledger = observed_run
        timeline = ledger.timeline()
        for partition, master in ledger.initial_placement.items():
            assert timeline.intervals(partition)[0].site == master
        snapshot = result.system.selector.table.snapshot()
        for partition, master in snapshot.items():
            assert timeline.intervals(partition)[-1].site == master

    def test_top_movers_sorted_by_moves(self, observed_run):
        _, ledger = observed_run
        movers = ledger.timeline().top_movers(top=5)
        assert movers
        counts = [count for _, count in movers]
        assert counts == sorted(counts, reverse=True)
        assert all(count > 0 for count in counts)

    def test_render_elides_churny_histories(self):
        ledger = DecisionLedger()
        ledger.record_placement({0: 0}, 0.0)
        for index in range(12):
            source = index % 2
            ledger.ownership(float(index + 1), 0, source, 1 - source)
        timeline = ledger.timeline()
        full = timeline.render(0)
        assert full.count("site") == 13
        short = timeline.render(0, max_intervals=6)
        assert "(8 more)" in short
        assert short.count("site") == 5

    def test_render_unknown_partition(self):
        timeline = MastershipTimeline({})
        assert "no recorded ownership" in timeline.render(99)


class TestExport:
    def test_jsonl_round_trips(self, observed_run, tmp_path):
        _, ledger = observed_run
        path = tmp_path / "masters.jsonl"
        ledger.write_jsonl(str(path))
        loaded = load_jsonl(str(path))
        header = loaded["header"]
        assert header["schema"] == SCHEMA
        assert header["updates_routed"] == ledger.updates_routed
        assert header["partitions_moved"] == ledger.partitions_moved
        assert len(loaded["decisions"]) == len(ledger.decisions)
        assert len(loaded["changes"]) == len(ledger.changes)
        # The export alone reconstructs the final placement.
        placement = {
            int(partition): master
            for partition, master in header["initial_placement"].items()
        }
        for change in loaded["changes"]:
            placement[change["partition"]] = change["destination"]
        assert placement == ledger.final_placement()
        # And the exported decisions recompute offline.
        for record in loaded["decisions"]:
            _, consistent = recompute_decision(record)
            assert consistent

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "header", "schema": "repro-masters/999"}\n')
        with pytest.raises(ValueError, match="schema"):
            load_jsonl(str(path))

    def test_load_rejects_headerless_file(self, tmp_path):
        path = tmp_path / "noheader.jsonl"
        path.write_text('{"kind": "ownership", "at_ms": 0, "partition": 0, '
                        '"source": 0, "destination": 1, "decision_seq": null}\n')
        with pytest.raises(ValueError, match="header"):
            load_jsonl(str(path))

    def test_csv_series(self, observed_run, tmp_path):
        _, ledger = observed_run
        path = tmp_path / "rate.csv"
        ledger.write_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == \
            "start_ms,routed,remastered,partitions_moved,remaster_fraction"
        assert len(lines) == 1 + len(ledger.rate_series(WINDOW_MS))

    def test_prometheus_exposition(self, observed_run):
        _, ledger = observed_run
        text = exposition(ledger)
        assert "repro_masters_decisions_total" in text
        assert "repro_masters_locality_share" in text
        assert "repro_masters_convergence_ms" in text
        # Sorted-line digest taken before the registry learned labelled
        # series and the Metrics/SLO writers folded into it.
        assert sorted_digest(text) == (
            "9f85e543426300603fe297e7db8d4ea2109682f33f0d1b46f61d3fdebf6cab28")

    def test_render_decision_waterfall(self, observed_run):
        _, ledger = observed_run
        record = ledger.decisions[0]
        text = render_decision(record)
        assert f"decision #{record.seq}" in text
        assert "<- chosen" in text
        assert "moves:" in text


class TestConvergenceAcceptance:
    def test_skewed_ycsb_reaches_finite_convergence(self):
        """The paper-facing acceptance run: locality dominates and the
        windowed remaster rate settles below the steady threshold."""
        ledger = DecisionLedger()
        run_benchmark(
            "dynamast", YCSBWorkload(YCSBConfig(zipf_theta=0.9)),
            num_clients=16, duration_ms=800.0, warmup_ms=200.0,
            cluster_config=ClusterConfig(num_sites=4), seed=3, ledger=ledger,
        )
        assert ledger.locality_share() > 0.85
        convergence = ledger.convergence_time(window_ms=100.0)
        assert convergence is not None
        assert 0.0 <= convergence < 800.0
        series = ledger.rate_series(100.0)
        assert series[-1].remaster_fraction <= CONVERGENCE_THRESHOLD


class TestChaosMastering:
    def test_chaos_run_reports_reconvergence_per_transition(self):
        ledger = DecisionLedger()
        report = run_chaos(
            "dynamast", "crash-restart", num_sites=3, num_clients=4,
            duration_ms=1500.0, seed=4, ledger=ledger,
        )
        mastering = report.mastering_summary()
        assert mastering is not None
        assert mastering["summary"]["decisions"] >= 0
        reconvergence = mastering["reconvergence"]
        assert len(reconvergence) == len(report.fault_events)
        kinds = [entry["kind"] for entry in reconvergence]
        assert "crash" in kinds and "restart" in kinds
        for entry in reconvergence:
            assert entry["reconvergence_ms"] is None \
                or entry["reconvergence_ms"] >= 0.0

    def test_live_and_portable_cells_report_the_same_summary(self):
        """A matrix cell's ledger crosses the worker whole: its summary
        and its reconvergence per fault transition equal the live run's."""
        cell = dict(num_sites=2, num_clients=4, duration_ms=800.0, seed=4)
        live = run_chaos("dynamast", "crash", ledger=DecisionLedger(), **cell)
        portable = run_chaos_matrix(
            ("dynamast",), ("crash",), jobs=2, mastery=True, **cell
        )[("dynamast", "crash")]
        mastering = portable.mastering_summary()
        assert mastering == live.mastering_summary()
        assert mastering["summary"]["updates_routed"] > 0
        assert len(mastering["reconvergence"]) == len(portable.fault_events) > 0

    def test_unobserved_chaos_has_no_mastering(self):
        report = run_chaos("dynamast", "crash", num_sites=2, num_clients=2,
                           duration_ms=400.0, seed=4)
        assert report.mastering_summary() is None
