"""Periodic sampling of live simulation state into timelines.

A :class:`TimelineSampler` runs as one simulated process that wakes
every ``interval_ms`` and evaluates a set of named probes — plain
callables reading live state (CPU busy time, lock-table depth,
replication queue depth, version-vector staleness, 2PC in flight).
Each probe's readings form a :class:`Timeline`: an ordered
``(time, value)`` series, the per-site view behind the paper's
utilization and replication-lag figures.

The sampler is only ever started for observed runs; an untraced run
schedules no sampling events, keeping its event stream untouched.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

__all__ = ["Timeline", "TimelineSampler", "attach_cluster_probes"]


class Timeline:
    """One probe's sampled ``(time_ms, value)`` series."""

    __slots__ = ("name", "samples")

    def __init__(self, name: str):
        self.name = name
        self.samples: List[Tuple[float, float]] = []

    def append(self, when: float, value: float) -> None:
        self.samples.append((when, value))

    def __len__(self) -> int:
        return len(self.samples)

    def values(self) -> List[float]:
        return [value for _, value in self.samples]

    def mean(self) -> float:
        if not self.samples:
            return 0.0
        return sum(self.values()) / len(self.samples)

    def maximum(self) -> float:
        return max(self.values(), default=0.0)


class TimelineSampler:
    """Drives registered probes on a fixed simulated-time cadence."""

    def __init__(self, interval_ms: float = 10.0):
        if interval_ms <= 0:
            raise ValueError(f"sample interval must be positive, got {interval_ms}")
        self.interval_ms = interval_ms
        self.probes: Dict[str, Callable[[], float]] = {}
        self.timelines: Dict[str, Timeline] = {}
        self._started = False

    def add_probe(self, name: str, probe: Callable[[], float]) -> None:
        """Register ``probe`` to be read every interval as ``name``."""
        if name in self.probes:
            raise ValueError(f"duplicate probe {name!r}")
        self.probes[name] = probe
        self.timelines[name] = Timeline(name)

    def sample_once(self, now: float) -> None:
        """Read every probe at simulated time ``now``."""
        for name, probe in self.probes.items():
            self.timelines[name].append(now, float(probe()))

    def start(self, env) -> None:
        """Begin periodic sampling on ``env`` (idempotent)."""
        if self._started or not self.probes:
            return
        self._started = True
        env.process(self._run(env))

    def _run(self, env):
        while True:
            yield env.timeout(self.interval_ms)
            self.sample_once(env.now)


def attach_cluster_probes(sampler: TimelineSampler, cluster) -> None:
    """Wire the standard per-site probes of one cluster.

    Installs, per site: windowed CPU utilization, lock-table depth,
    replication inbox depth; per ordered site pair: replication lag
    (how many of the origin's commits the follower has not applied —
    version-vector staleness).
    """
    interval = sampler.interval_ms
    for site in cluster.sites:
        label = f"site{site.index}"
        # Probes hold the *site* and dereference per sample: a crash
        # replaces the site's cpu / database / svv objects, so a probe
        # capturing those directly would silently read dead state after
        # a fault-injected restart.
        sampler.add_probe(
            f"cpu_utilization.{label}", _cpu_probe(site, interval)
        )
        sampler.add_probe(
            f"lock_depth.{label}",
            lambda site=site: site.database.locks.held_count(),
        )
        sampler.add_probe(
            f"replication_queue.{label}",
            lambda site=site: site.replication.queue_depth(),
        )
    for follower in cluster.sites:
        for origin in cluster.sites:
            if origin is follower:
                continue
            sampler.add_probe(
                f"replication_lag.site{follower.index}.from.site{origin.index}",
                lambda f=follower, o=origin: max(
                    0, o.svv[o.index] - f.svv[o.index]
                ),
            )


def _cpu_probe(site, interval_ms: float) -> Callable[[], float]:
    """Windowed utilization: busy fraction over the last interval.

    Reads ``site.cpu`` on every sample (a crash swaps the resource in
    for a fresh one, resetting its busy counter); the delta is clamped
    at zero so the sample spanning a crash reads as idle rather than
    as a negative utilization.
    """
    state = {"busy": site.cpu.busy_time_now()}

    def probe() -> float:
        cpu = site.cpu
        busy = cpu.busy_time_now()
        delta, state["busy"] = max(0.0, busy - state["busy"]), busy
        return delta / (interval_ms * cpu.capacity)

    return probe
