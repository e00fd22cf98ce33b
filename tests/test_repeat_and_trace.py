"""Tests for repeated-run estimation (confidence intervals over seeds)."""

import pytest

from repro.bench.parallel import WorkloadSpec
from repro.bench.repeat import Estimate, RepeatedResult, run_repeated, t_critical_95
from repro.sim.config import ClusterConfig


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
