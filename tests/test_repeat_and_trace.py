"""Tests for repeated-run estimation and workload trace replay."""

import pytest

from repro.bench.parallel import WorkloadSpec
from repro.bench.repeat import Estimate, RepeatedResult, run_repeated, t_critical_95
from repro.sim.config import ClusterConfig
from repro.workloads import YCSBConfig, YCSBWorkload
from repro.workloads.trace import WorkloadTrace, record_trace


class TestEstimate:
    def test_single_sample(self):
        estimate = Estimate.of([5.0])
        assert estimate.mean == 5.0
        assert estimate.half_width == 0.0

    def test_identical_samples_zero_width(self):
        estimate = Estimate.of([3.0, 3.0, 3.0])
        assert estimate.mean == 3.0
        assert estimate.half_width == 0.0

    def test_known_interval(self):
        # Samples 1..5: mean 3, sd sqrt(2.5); t(4 df) = 2.776.
        estimate = Estimate.of([1.0, 2.0, 3.0, 4.0, 5.0])
        assert estimate.mean == 3.0
        expected = 2.776 * (2.5 ** 0.5) / (5 ** 0.5)
        assert estimate.half_width == pytest.approx(expected, rel=1e-3)
        assert estimate.low < 3.0 < estimate.high

    def test_overlap(self):
        wide = Estimate(10.0, 5.0, 3)
        near = Estimate(13.0, 1.0, 3)
        far = Estimate(30.0, 2.0, 3)
        assert wide.overlaps(near)
        assert not wide.overlaps(far)

    def test_t_values(self):
        assert t_critical_95(2) == pytest.approx(12.706)
        assert t_critical_95(5) == pytest.approx(2.776)
        assert t_critical_95(1000) == pytest.approx(1.96)
        with pytest.raises(ValueError):
            t_critical_95(1)

    def test_str(self):
        assert "±" in str(Estimate(10.0, 1.0, 5))


class TestRunRepeated:
    def test_collects_across_seeds(self):
        result = run_repeated(
            "dynamast",
            WorkloadSpec.of("ycsb", num_partitions=40, affinity_txns=50),
            seeds=(1, 2, 3),
            num_clients=4,
            duration_ms=200.0,
            warmup_ms=50.0,
            cluster_config=ClusterConfig(num_sites=2),
        )
        assert isinstance(result, RepeatedResult)
        assert result.throughput.samples == 3
        assert result.throughput.mean > 0
        assert len(result.runs) == 3
        # Different seeds produce genuinely different runs.
        throughputs = {run.throughput for run in result.runs}
        assert len(throughputs) > 1


class TestTrace:
    def small_workload(self):
        return YCSBWorkload(
            YCSBConfig(num_partitions=30, affinity_txns=8, rmw_fraction=0.5)
        )

    def test_record_shapes(self):
        trace = record_trace(self.small_workload(), num_clients=3, txns_per_client=20)
        assert trace.num_clients == 3
        assert len(trace.entries_for(0)) == 20
        assert trace.name == "trace(ycsb)"

    def test_recording_is_deterministic(self):
        first = record_trace(self.small_workload(), 2, 15, seed=9)
        second = record_trace(self.small_workload(), 2, 15, seed=9)
        assert first.entries_for(0) == second.entries_for(0)
        assert first.entries_for(1) == second.entries_for(1)

    def test_different_seeds_differ(self):
        first = record_trace(self.small_workload(), 1, 15, seed=1)
        second = record_trace(self.small_workload(), 1, 15, seed=2)
        assert first.entries_for(0) != second.entries_for(0)

    def test_replay_reproduces_sequence(self):
        trace = record_trace(self.small_workload(), 1, 10)
        state = trace.new_client_state(0, rng=None)
        replayed = [
            trace.next_transaction(state, None, float(i)) for i in range(10)
        ]
        for entry, turn in zip(trace.entries_for(0), replayed):
            assert turn.txn.txn_type == entry.txn_type
            assert turn.txn.write_set == entry.write_set
            assert turn.txn.scan_set == entry.scan_set

    def test_replay_wraps_with_session_reset(self):
        trace = record_trace(self.small_workload(), 1, 5)
        state = trace.new_client_state(0, rng=None)
        turns = [trace.next_transaction(state, None, float(i)) for i in range(7)]
        assert turns[5].reset_session  # wrap point
        assert turns[5].txn.write_set == turns[0].txn.write_set

    def test_session_resets_preserved(self):
        trace = record_trace(self.small_workload(), 1, 20)
        resets = [entry.reset_session for entry in trace.entries_for(0)]
        assert resets[8]  # affinity period of 8 in the source workload

    def test_delegates_scheme_and_placement(self):
        source = self.small_workload()
        trace = record_trace(source, 1, 5)
        assert trace.scheme is source.scheme
        assert trace.fixed_placement(2) == source.fixed_placement(2)
        assert trace.recommended_weights() == source.recommended_weights()

    def test_identical_input_across_systems(self):
        """The headline property: two systems consume the same trace."""
        from repro.bench import run_benchmark

        trace = record_trace(self.small_workload(), 4, 50)
        consumed = {}
        for system in ("dynamast", "partition-store"):
            result = run_benchmark(
                system,
                record_trace(self.small_workload(), 4, 50),
                num_clients=4,
                duration_ms=150.0,
                warmup_ms=0.0,
                cluster_config=ClusterConfig(num_sites=2),
            )
            consumed[system] = result.metrics.commits
        # Both systems processed transactions from identical sequences;
        # commit counts differ only because speed differs.
        assert all(count > 0 for count in consumed.values())

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            WorkloadTrace(self.small_workload(), [[]])
