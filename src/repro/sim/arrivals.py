"""Arrival-rate curves and open-loop arrival streams.

Closed-loop clients (``repro.bench.harness._client_loop``) issue a new
transaction only after the previous one completes, so the offered load
self-throttles as the system slows down — the *coordinated omission*
problem: exactly when the system is saturated, a closed-loop driver
stops measuring the pain. Open-loop traffic decouples offered load from
completion: arrivals follow a rate curve :math:`\\lambda(t)` regardless
of how the system is doing, which is what exposes saturation knees,
admission-queue growth, and goodput collapse (DESIGN.md §9,
docs/SCALE.md).

This module provides the *rate curves* and the *arrival stream*:

* two registered curve shapes — :class:`ConstantCurve` and
  :class:`DiurnalCurve` (sinusoidal day/night cycle), the ones the
  perf and scale harnesses run — frozen picklable dataclasses,
  buildable by name from :data:`CURVE_REGISTRY` so a
  :class:`~repro.workloads.openloop.OpenLoopSpec` can describe one as
  pure data;
* :func:`arrival_times` — a nonhomogeneous Poisson process sampled by
  *thinning*: candidate arrivals are drawn from a homogeneous Poisson
  process at the curve's peak rate and accepted with probability
  ``rate(t) / peak``. The stream is a pure function of the RNG handed
  in, so the same seed always produces the same arrival instants
  (pinned by ``tests/test_arrivals.py``).

Determinism contract: no module-global randomness, no host clock; every
draw comes from the caller's seeded stream (the dedicated
:data:`repro.sim.rand.ARRIVALS_STREAM`, so attaching an open-loop
engine never perturbs the workload, network, or fault streams).
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from typing import Dict, Iterator, Tuple, Type


def _require_positive(name: str, value: float) -> None:
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")


def _require_non_negative(name: str, value: float) -> None:
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class ConstantCurve:
    """A flat offered rate: ``rate_tps`` transactions per second."""

    rate_tps: float = 1000.0

    def __post_init__(self):
        _require_positive("rate_tps", self.rate_tps)

    def rate(self, t_ms: float) -> float:
        return self.rate_tps

    def peak(self) -> float:
        return self.rate_tps


@dataclass(frozen=True)
class DiurnalCurve:
    """A sinusoidal day/night cycle between ``base_tps`` and ``peak_tps``.

    ``rate(t) = base + (peak - base) * (1 + sin(2π(t/period + phase)))/2``

    With the default ``phase = 0`` the run starts at the mid rate on
    the rising edge, crests at a quarter period, and bottoms out at
    three quarters — one full simulated "day" per ``period_ms``.
    """

    base_tps: float = 200.0
    peak_tps: float = 2000.0
    period_ms: float = 1000.0
    phase: float = 0.0

    def __post_init__(self):
        _require_non_negative("base_tps", self.base_tps)
        _require_positive("peak_tps", self.peak_tps)
        _require_positive("period_ms", self.period_ms)
        if self.peak_tps < self.base_tps:
            raise ValueError(
                f"peak_tps ({self.peak_tps}) must be >= base_tps ({self.base_tps})"
            )

    def rate(self, t_ms: float) -> float:
        swing = (1.0 + math.sin(2.0 * math.pi * (t_ms / self.period_ms + self.phase))) / 2.0
        return self.base_tps + (self.peak_tps - self.base_tps) * swing

    def peak(self) -> float:
        return self.peak_tps


#: Registry of buildable arrival curves: name -> curve class. Like
#: :data:`repro.workloads.WORKLOAD_REGISTRY`, this is what lets a spec
#: describe a curve as pure data (name + params) and have a worker
#: process rebuild it — the spawn-safety contract (CONTRIBUTING.md).
CURVE_REGISTRY: Dict[str, Type] = {
    "constant": ConstantCurve,
    "diurnal": DiurnalCurve,
}


def build_curve(name: str, **params):
    """Instantiate a registered curve from plain parameters.

    Raises ``ValueError`` naming the unknown curve (and the known ones)
    so multi-process drivers surface a clean, attributable error.
    """
    try:
        curve_cls = CURVE_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(CURVE_REGISTRY))
        raise ValueError(
            f"unknown arrival curve {name!r}; registered curves: {known}"
        ) from None
    return curve_cls(**params)


def scale_curve_params(
    params: Tuple[Tuple[str, object], ...], multiplier: float
) -> Tuple[Tuple[str, object], ...]:
    """Multiply every rate parameter (``*_tps``) by ``multiplier``.

    The scale harness walks a *rate ladder* over one curve shape; by
    convention every registered curve expresses rates in parameters
    suffixed ``_tps``, so scaling them scales the whole curve without
    changing its shape or timing.
    """
    _require_positive("multiplier", multiplier)
    return tuple(
        (key, value * multiplier if key.endswith("_tps") else value)
        for key, value in params
    )


def arrival_times(curve, duration_ms: float, rng) -> Iterator[float]:
    """Arrival instants (ms) of a nonhomogeneous Poisson process.

    Standard thinning: candidates are drawn from a homogeneous Poisson
    process at the curve's peak rate (exponential gaps), and each
    candidate at time ``t`` is kept with probability
    ``curve.rate(t) / curve.peak()``. Every draw comes from ``rng``, so
    the stream is exactly reproducible from the seed; candidates are
    drawn lazily, so interleaving other draws from *different* streams
    cannot perturb it.
    """
    peak = curve.peak()
    if peak <= 0:
        return
    per_ms = peak / 1000.0
    t = 0.0
    while True:
        t += rng.expovariate(per_ms)
        if t >= duration_ms:
            return
        if rng.random() * peak <= curve.rate(t):
            yield t
