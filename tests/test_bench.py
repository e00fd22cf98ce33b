"""Tests for the benchmark harness, metrics, and reporting."""

import pytest

from repro.bench import LatencySummary, Metrics, run_benchmark
from repro.bench.metrics import rate_series
from repro.bench.report import format_row, print_table, ratio
from repro.sim.config import ClusterConfig
from repro.transactions import Outcome, Transaction
from repro.workloads import YCSBConfig, YCSBWorkload


class TestLatencySummary:
    def test_empty(self):
        summary = LatencySummary.of([])
        assert summary.count == 0
        assert summary.mean == 0.0

    def test_basic_statistics(self):
        summary = LatencySummary.of([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == 2.5
        assert summary.maximum == 4.0
        assert summary.p50 in (2.0, 3.0)

    def test_percentiles_ordered(self):
        samples = [float(v) for v in range(1, 101)]
        summary = LatencySummary.of(samples)
        assert summary.p50 <= summary.p90 <= summary.p95 <= summary.p99
        assert summary.p99 <= summary.maximum

    def test_single_sample(self):
        summary = LatencySummary.of([7.0])
        assert summary.p50 == summary.p99 == summary.maximum == 7.0


class TestMetrics:
    def make_txn(self, kind="w"):
        txn = Transaction(kind, 0, write_set=(("t", 1),) if kind == "w" else ())
        txn.add_timing("execute", 1.0)
        txn.add_timing("network", 0.5)
        return txn

    def test_record_commit(self):
        metrics = Metrics()
        metrics.record(self.make_txn(), Outcome(True, remastered=True), 2.0, 10.0)
        assert metrics.commits == 1
        assert metrics.remastered_txns == 1
        assert metrics.latency("w").count == 1

    def test_uncommitted_ignored(self):
        metrics = Metrics()
        metrics.record(self.make_txn(), Outcome(False), 2.0, 10.0)
        assert metrics.commits == 0

    def test_throughput(self):
        metrics = Metrics()
        for index in range(10):
            metrics.record(self.make_txn(), Outcome(True), 1.0, float(index))
        assert metrics.throughput(1000.0) == pytest.approx(10.0)
        assert metrics.throughput(0.0) == 0.0

    def test_timeline_buckets(self):
        metrics = Metrics()
        for when in (10.0, 20.0, 110.0):
            metrics.record(self.make_txn(), Outcome(True), 1.0, when)
        timeline = rate_series(metrics.commit_times, bucket_ms=100.0, start=0.0, end=200.0)
        assert timeline[0] == (0.0, 20.0)  # 2 commits / 0.1 s
        assert timeline[1] == (100.0, 10.0)

    def test_partial_last_bucket_divided_by_its_own_width(self):
        # One commit per ms over [0, 100): 30 ms buckets leave a 10 ms tail.
        series = rate_series([float(t) for t in range(100)], 30.0, 0.0, 100.0)
        assert [start for start, _ in series] == [0.0, 30.0, 60.0, 90.0]
        assert [rate for _, rate in series] == pytest.approx([1000.0] * 4)

    def test_whole_window_has_no_trailing_bucket(self):
        # (0.1 - 0.025) / (0.1 / 12) rounds to 9.000000000000002: still
        # nine full buckets, not a tenth of near-zero width.
        bucket_ms = 0.1 / 12
        series = rate_series([0.099], bucket_ms, 0.1 / 4, 0.1)
        assert len(series) == 9
        assert series[-1][1] == 1 / (bucket_ms / 1000.0)

    def test_breakdown_normalized(self):
        metrics = Metrics()
        metrics.record(self.make_txn(), Outcome(True), 2.0, 1.0)
        breakdown = metrics.breakdown()
        assert pytest.approx(sum(breakdown.values())) == 1.0
        assert breakdown["execute"] == pytest.approx(0.5)
        assert breakdown["network"] == pytest.approx(0.25)
        assert breakdown["other"] == pytest.approx(0.25)  # untimed remainder

    def test_remaster_fraction(self):
        metrics = Metrics()
        metrics.record(self.make_txn(), Outcome(True, remastered=True), 1.0, 1.0)
        metrics.record(self.make_txn(), Outcome(True), 1.0, 2.0)
        assert metrics.remaster_fraction() == 0.5

    def test_combined_latency(self):
        metrics = Metrics()
        metrics.record(self.make_txn("w"), Outcome(True), 1.0, 1.0)
        metrics.record(self.make_txn("r"), Outcome(True), 3.0, 2.0)
        assert metrics.latency().count == 2
        assert metrics.latency().mean == 2.0
        assert metrics.txn_types() == ["r", "w"]


class TestReport:
    def test_ratio(self):
        assert ratio(10, 5) == 2.0
        assert ratio(1, 0) == float("inf")
        assert ratio(0, 0) == 0.0

    def test_format_row_aligns(self):
        row = format_row(["abc", 1.5, 10], [5, 8, 4])
        assert "abc" in row
        assert "1.50" in row

    def test_print_table_smoke(self, capsys):
        print_table("Title", ["a", "b"], [["x", 1.0], ["y", 2.0]])
        output = capsys.readouterr().out
        assert "Title" in output
        assert "x" in output
        assert "2.00" in output


class TestHarness:
    def small_workload(self):
        return YCSBWorkload(
            YCSBConfig(num_partitions=40, rmw_fraction=0.5, affinity_txns=50)
        )

    def test_run_produces_metrics(self):
        result = run_benchmark(
            "dynamast",
            self.small_workload(),
            num_clients=6,
            duration_ms=200.0,
            warmup_ms=50.0,
            cluster_config=ClusterConfig(num_sites=2),
        )
        assert result.throughput > 0
        assert result.metrics.commits > 0
        assert set(result.metrics.txn_types()) <= {"rmw", "scan"}
        assert len(result.site_utilization) == 2
        assert result.traffic_bytes.get("client", 0) > 0

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            run_benchmark("bogus", self.small_workload())

    def test_deterministic_same_seed(self):
        def run():
            result = run_benchmark(
                "multi-master",
                self.small_workload(),
                num_clients=4,
                duration_ms=150.0,
                warmup_ms=0.0,
                cluster_config=ClusterConfig(num_sites=2),
            )
            return result.metrics.commits, result.throughput

        assert run() == run()

    def test_different_seeds_differ(self):
        def run(seed):
            result = run_benchmark(
                "dynamast",
                self.small_workload(),
                num_clients=4,
                duration_ms=150.0,
                warmup_ms=0.0,
                cluster_config=ClusterConfig(num_sites=2),
                seed=seed,
            )
            return result.metrics.commit_times

        assert run(1) != run(2)

    def test_events_fire(self):
        fired = []

        def event(system, workload):
            fired.append(system.env.now)

        run_benchmark(
            "dynamast",
            self.small_workload(),
            num_clients=2,
            duration_ms=100.0,
            warmup_ms=0.0,
            cluster_config=ClusterConfig(num_sites=2),
            events=[(50.0, event)],
        )
        assert fired == [50.0]

    def test_warmup_excludes_early_txns(self):
        full = run_benchmark(
            "dynamast",
            self.small_workload(),
            num_clients=4,
            duration_ms=200.0,
            warmup_ms=0.0,
            cluster_config=ClusterConfig(num_sites=2),
        )
        warm = run_benchmark(
            "dynamast",
            self.small_workload(),
            num_clients=4,
            duration_ms=200.0,
            warmup_ms=150.0,
            cluster_config=ClusterConfig(num_sites=2),
        )
        assert warm.metrics.commits < full.metrics.commits
