"""Arrival curves and the thinned Poisson stream (repro.sim.arrivals).

Pins the open-loop determinism contract: the arrival stream is a pure
function of (curve, duration, rng), so the same seed always yields the
same instants — the property the scale harness's exact-fingerprint
check builds on.
"""

import random

import pytest

from repro.sim.arrivals import (
    ConstantCurve,
    CURVE_REGISTRY,
    DiurnalCurve,
    arrival_times,
    build_curve,
    scale_curve_params,
)


def stream(curve, duration_ms, seed):
    return list(arrival_times(curve, duration_ms, random.Random(seed)))


def mean_rate(curve, duration_ms, steps=512):
    """Trapezoidal mean of ``curve.rate`` over ``[0, duration_ms]``."""
    width = duration_ms / steps
    rates = [curve.rate(index * width) for index in range(steps + 1)]
    return sum((left + right) / 2.0 for left, right in zip(rates, rates[1:])) / steps


class TestDeterminism:
    def test_same_seed_same_stream(self):
        curve = DiurnalCurve(base_tps=500.0, peak_tps=4000.0, period_ms=200.0)
        first = stream(curve, 400.0, seed=7)
        second = stream(curve, 400.0, seed=7)
        assert first == second
        assert len(first) > 50

    def test_different_seed_different_stream(self):
        curve = ConstantCurve(rate_tps=2000.0)
        assert stream(curve, 200.0, seed=1) != stream(curve, 200.0, seed=2)

    def test_instants_sorted_and_bounded(self):
        curve = DiurnalCurve(base_tps=200.0, peak_tps=4000.0, period_ms=100.0)
        times = stream(curve, 300.0, seed=3)
        assert times == sorted(times)
        assert all(0.0 <= t < 300.0 for t in times)

    def test_zero_rate_curve_yields_nothing(self):
        class Silent:
            def rate(self, t_ms):
                return 0.0

            def peak(self):
                return 0.0

        assert stream(Silent(), 1000.0, seed=5) == []


class TestThinning:
    def test_constant_rate_hits_expectation(self):
        # 2000/s over 2s => ~4000 arrivals; Poisson sd ~63.
        times = stream(ConstantCurve(rate_tps=2000.0), 2000.0, seed=11)
        assert 3700 <= len(times) <= 4300

    def test_diurnal_trough_is_quieter_than_crest(self):
        curve = DiurnalCurve(base_tps=100.0, peak_tps=4000.0,
                             period_ms=400.0, phase=0.0)
        times = stream(curve, 400.0, seed=17)
        # Crest at t=100 (quarter period), trough at t=300.
        crest = sum(1 for t in times if 50.0 <= t < 150.0)
        trough = sum(1 for t in times if 250.0 <= t < 350.0)
        assert crest > 3 * trough


class TestCurves:
    def test_diurnal_cycle_shape(self):
        curve = DiurnalCurve(base_tps=200.0, peak_tps=2200.0, period_ms=400.0)
        assert curve.rate(0.0) == pytest.approx(1200.0)  # mid, rising
        assert curve.rate(100.0) == pytest.approx(2200.0)  # crest
        assert curve.rate(300.0) == pytest.approx(200.0)  # trough
        assert curve.peak() == 2200.0

    def test_mean_rate_constant(self):
        assert mean_rate(ConstantCurve(rate_tps=750.0), 500.0) == pytest.approx(750.0)

    def test_validation_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ConstantCurve(rate_tps=0.0)
        with pytest.raises(ValueError):
            DiurnalCurve(base_tps=2000.0, peak_tps=100.0)


class TestRegistry:
    def test_registry_builds_every_curve(self):
        assert set(CURVE_REGISTRY) == {"constant", "diurnal"}
        for name, cls in CURVE_REGISTRY.items():
            assert isinstance(build_curve(name), cls)

    def test_unknown_curve_names_the_known_ones(self):
        with pytest.raises(ValueError, match="constant, diurnal"):
            build_curve("sawtooth")

    def test_bad_params_surface_as_type_error(self):
        with pytest.raises(TypeError):
            build_curve("constant", frequency_hz=3.0)


class TestScaleParams:
    def test_scales_only_tps_keys(self):
        params = (("base_tps", 100.0), ("period_ms", 400.0), ("phase", 0.25))
        scaled = scale_curve_params(params, 2.0)
        assert scaled == (("base_tps", 200.0), ("period_ms", 400.0), ("phase", 0.25))

    def test_multiplier_must_be_positive(self):
        with pytest.raises(ValueError):
            scale_curve_params((("rate_tps", 100.0),), 0.0)
