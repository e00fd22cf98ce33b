"""End-to-end observability: traced benchmark runs and abort metrics."""

import hashlib
import json
import math

import pytest

from repro.bench import Metrics, run_benchmark
from repro.bench.metrics import rate_series
from repro.bench.report import print_run_report
from repro.obs import Observability
from repro.obs.export import to_chrome_trace, to_jsonl
from repro.sim.config import ClusterConfig
from repro.transactions import Outcome, Transaction
from repro.workloads import YCSBConfig, YCSBWorkload


def small_workload():
    return YCSBWorkload(
        YCSBConfig(num_partitions=40, rmw_fraction=0.5, affinity_txns=50)
    )


def traced_run(system="dynamast", **kwargs):
    obs = Observability()
    result = run_benchmark(
        system,
        small_workload(),
        num_clients=6,
        duration_ms=200.0,
        warmup_ms=50.0,
        cluster_config=ClusterConfig(num_sites=2),
        seed=7,
        obs=obs,
        **kwargs,
    )
    return result, obs


def canonical_trace(tracer):
    """Trace lines with txn ids remapped to dense per-run ranks.

    Transaction ids come from a process-global counter, so two
    otherwise identical runs disagree on raw ids; rank-by-appearance
    makes traces comparable across runs.
    """
    ranks = {
        txn_id: rank
        for rank, txn_id in enumerate(sorted(tracer.txns))
    }
    lines = []
    for line in to_jsonl(tracer):
        record = json.loads(line)
        if record["txn_id"] is not None:
            record["txn_id"] = ranks[record["txn_id"]]
        lines.append(json.dumps(record, sort_keys=True))
    return lines


class TestTracedRun:
    def test_protocol_span_phases_present(self):
        result, obs = traced_run()
        names = {span.name for span in obs.tracer.spans}
        # The acceptance phases: routing, remaster release/grant, lock
        # and execute work, commit, plus the network hops between them.
        for expected in ("route", "routing", "release", "grant", "lock_wait",
                         "freshness_wait", "begin", "execute", "commit",
                         "network", "refresh_apply"):
            assert expected in names, f"missing span {expected!r}"
        assert any(i.name == "remaster" for i in obs.tracer.instants)
        assert any(i.name == "log_deliver" for i in obs.tracer.instants)

    def test_phase_spans_sum_to_the_breakdown(self):
        """Every timed phase is also a span, so over the recorded
        transactions each phase's spans add up to its breakdown total
        (``other``, the untimed rest of the latency, has no span)."""
        for system in ("dynamast", "single-master", "multi-master",
                       "partition-store", "leap"):
            result, obs = traced_run(system=system)
            tracer = obs.tracer
            recorded = {txn_id for txn_id, record in tracer.txns.items()
                        if record.recorded}
            phase_totals = result.metrics.phase_totals
            spanned = dict.fromkeys(set(phase_totals) - {"other"}, 0.0)
            for span in tracer.spans:
                if span.txn_id in recorded and span.name in spanned:
                    spanned[span.name] += span.duration
            assert "network" in spanned, system
            for phase, total in spanned.items():
                assert math.isclose(total, phase_totals[phase], rel_tol=1e-9), (
                    system, phase, total, phase_totals[phase])

    def test_timelines_sampled(self):
        result, obs = traced_run()
        assert result.timelines
        for name in ("cpu_utilization.site0", "lock_depth.site1",
                     "replication_queue.site0",
                     "replication_lag.site1.from.site0"):
            assert name in result.timelines
            assert len(result.timelines[name].samples) > 0
        cpu = result.timelines["cpu_utilization.site0"]
        assert all(0.0 <= value <= 1.0 + 1e-9 for value in cpu.values())

    def test_chrome_trace_export_is_valid(self):
        result, obs = traced_run()
        document = json.loads(
            json.dumps(to_chrome_trace(obs.tracer, timelines=result.timelines))
        )
        phases = {event["ph"] for event in document["traceEvents"]}
        assert phases == {"M", "X", "i", "C"}

    def test_same_seed_identical_trace(self):
        _, first = traced_run()
        _, second = traced_run()
        assert canonical_trace(first.tracer) == canonical_trace(second.tracer)

    def test_untraced_run_unchanged_by_observed_run(self):
        """An untraced run gives the same numbers whether or not a traced
        run happened before it (no global state leaks)."""
        def plain():
            result = run_benchmark(
                "dynamast",
                small_workload(),
                num_clients=6,
                duration_ms=200.0,
                warmup_ms=50.0,
                cluster_config=ClusterConfig(num_sites=2),
                seed=7,
            )
            return (result.throughput, result.latency().mean,
                    result.metrics.commit_times)
        before = plain()
        traced_run()
        assert plain() == before

    @pytest.mark.parametrize("system", ["dynamast", "partition-store", "leap"])
    def test_observed_run_fingerprint_equals_unobserved(self, system):
        """``obs.enabled`` gates the network and 2PC recorders; it is a
        plain attribute fixed at construction, OFF on the shared no-op
        handle, and switching it ON changes nothing simulated, nor the
        phases a run times."""
        from repro.bench.parallel import run_fingerprint
        from repro.obs import NULL_OBS

        assert vars(NULL_OBS)["enabled"] is False
        on, obs = traced_run(system=system)
        assert vars(obs)["enabled"] is True
        off = run_benchmark(
            system,
            small_workload(),
            num_clients=6,
            duration_ms=200.0,
            warmup_ms=50.0,
            cluster_config=ClusterConfig(num_sites=2),
            seed=7,
        )
        assert run_fingerprint(on) == run_fingerprint(off)
        assert on.metrics.phase_totals == off.metrics.phase_totals

    def test_untraced_run_records_nothing(self):
        result = run_benchmark(
            "dynamast",
            small_workload(),
            num_clients=4,
            duration_ms=100.0,
            warmup_ms=25.0,
            cluster_config=ClusterConfig(num_sites=2),
        )
        assert result.obs is None
        assert result.timelines == {}

    def test_two_phase_commit_spans(self):
        result, obs = traced_run(system="multi-master")
        names = {span.name for span in obs.tracer.spans}
        if result.metrics.distributed_txns:
            for expected in ("2pc_execute", "2pc_prepare", "2pc_decide",
                             "branch_execute", "branch_prepare",
                             "branch_commit"):
                assert expected in names, f"missing span {expected!r}"
            assert obs.timelines["2pc_inflight"].maximum() > 0

    def test_two_phase_commit_inflight_timeline_is_pinned(self):
        """The ``2pc_inflight`` samples of one observed partition-store
        run, as taken when a registry gauge still carried the count."""
        _, obs = traced_run(system="partition-store")
        samples = obs.timelines["2pc_inflight"].samples
        assert (len(samples), max(v for _, v in samples),
                sum(v for _, v in samples)) == (20, 5.0, 59.0)
        assert hashlib.sha256(json.dumps(samples).encode()).hexdigest() == (
            "457fe0ad6193a3cc449a0717bade7e73b479abc155be17dbb3049c6fc2973ede")

    def test_streaming_metrics_run(self):
        result, _ = traced_run(streaming_metrics=True)
        summary = result.latency()
        assert summary.count == result.metrics.commits
        assert summary.p50 <= summary.p99 <= summary.maximum


class TestAbortAccounting:
    def make_txn(self, kind="w"):
        return Transaction(kind, 0, write_set=(("t", 1),))

    def test_aborts_counted_not_dropped(self):
        metrics = Metrics()
        metrics.record(self.make_txn(), Outcome(True), 1.0, 1.0)
        metrics.record(self.make_txn(), Outcome(False, retries=2), 1.0, 2.0)
        metrics.record(self.make_txn("r"), Outcome(False), 1.0, 3.0)
        assert metrics.commits == 1
        assert metrics.abort_count == 2
        assert metrics.aborts == {"w": 1, "r": 1}
        assert metrics.abort_rate() == pytest.approx(2 / 3)
        assert metrics.retries == 2
        assert metrics.abort_breakdown() == [("r", 1), ("w", 1)]

    def test_abort_rate_empty(self):
        assert Metrics().abort_rate() == 0.0
        assert Metrics().abort_count == 0

    def test_aborts_do_not_touch_latency_stats(self):
        metrics = Metrics()
        metrics.record(self.make_txn(), Outcome(False), 99.0, 1.0)
        assert metrics.latency().count == 0
        assert metrics.phase_totals == {}

    def test_run_result_surfaces_aborts(self):
        result, _ = traced_run()
        assert result.abort_rate == result.metrics.abort_rate()
        assert result.aborts_by_type == result.metrics.aborts


class TestMetricsTimelineEdges:
    def make_txn(self):
        return Transaction("w", 0, write_set=(("t", 1),))

    def test_empty_run(self):
        series = rate_series(Metrics().commit_times, 10.0, 0.0, 100.0)
        assert series
        assert all(rate == 0.0 for _, rate in series)
        assert series[0][0] == 0.0

    def test_degenerate_windows(self):
        metrics = Metrics()
        metrics.record(self.make_txn(), Outcome(True), 1.0, 5.0)
        assert rate_series(metrics.commit_times, 0.0, 0.0, 100.0) == []
        assert rate_series(metrics.commit_times, -1.0, 0.0, 100.0) == []
        assert rate_series(metrics.commit_times, 10.0, 100.0, 100.0) == []
        assert rate_series(metrics.commit_times, 10.0, 100.0, 50.0) == []

    def test_boundary_commit_lands_in_next_bucket(self):
        metrics = Metrics()
        metrics.record(self.make_txn(), Outcome(True), 1.0, 10.0)
        series = rate_series(metrics.commit_times, 10.0, 0.0, 20.0)
        assert series[0][1] == 0.0
        assert series[1][1] == pytest.approx(100.0)  # 1 commit / 0.01 s

    def test_commits_outside_window_excluded(self):
        metrics = Metrics()
        metrics.record(self.make_txn(), Outcome(True), 1.0, 5.0)
        metrics.record(self.make_txn(), Outcome(True), 1.0, 250.0)
        series = rate_series(metrics.commit_times, 100.0, 0.0, 200.0)
        assert sum(rate for _, rate in series) == pytest.approx(10.0)


class TestRunReport:
    def test_print_run_report_smoke(self, capsys):
        result, _ = traced_run()
        print_run_report(result)
        output = capsys.readouterr().out
        assert "dynamast on ycsb" in output
        assert "remaster/ship fraction" in output
        assert "abort rate" in output
        assert "sampled timelines" in output
