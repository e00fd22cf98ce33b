"""Deterministic fault injection against a live cluster.

The injector interprets a :class:`~repro.faults.plan.FaultPlan`:

* it is the ``faults`` hook the network consults for per-link
  partitions, probabilistic loss, and extra delay + jitter (all draws
  come from the dedicated ``faults`` RNG stream, so an empty plan
  changes no random state anywhere);
* it interprets :class:`~repro.faults.plan.SlowFault` windows by
  installing a service-time multiplier hook on the victim sites' CPU
  resources (fail-slow: the site answers everything, slowly);
* it runs one process per :class:`~repro.faults.plan.CrashFault` that
  fail-stops the site at the scheduled time and, optionally, restarts
  it later via live log-replay rejoin;
* it owns the shared failure detector the routers use for suspicion
  (fixed-strike or phi-accrual, per ``ClusterConfig.defenses``),
  the per-destination :class:`~repro.faults.deadlines.DeadlineTracker`
  behind adaptive RPC deadlines and hedged-read delays, and the
  ground truth (each site's ``alive`` flag, cleared at a crash) that
  gates the destructive failover path — standing in for the
  durable-log service fencing a dead producer.

Every fault transition is recorded in :attr:`events` for reports and
tests, and the detector/hedging counters are folded into ``Metrics``
by the bench harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.faults.deadlines import TIMEOUT_MS, DeadlineTracker
from repro.faults.detector import AdaptiveDetector, FailureDetector
from repro.faults.plan import FaultPlan, LinkFault, SlowFault
from repro.replication.recovery import rejoin_site


@dataclass(frozen=True)
class FaultEvent:
    """One observed fault transition (for timelines and assertions)."""

    at_ms: float
    kind: str  # "crash" | "restart"
    site: int


class FaultInjector:
    """Drives a fault plan against a cluster; the protocol's adversary."""

    def __init__(self, cluster, plan: FaultPlan, rng):
        plan.validate(cluster.config.num_sites)
        self.cluster = cluster
        self.plan = plan
        self.rng = rng
        #: The ``"adaptive"`` preset: phi-accrual detector, adaptive
        #: deadlines and hedged reads (ClusterConfig refuses any preset
        #: but it and ``"fixed"``).
        self.adaptive = cluster.config.defenses == "adaptive"
        if self.adaptive:
            self.detector = AdaptiveDetector(
                clock=lambda: cluster.env.now, ground_truth=self.site_faulted
            )
        else:
            self.detector = FailureDetector(
                ground_truth=self.site_faulted, clock=lambda: cluster.env.now
            )
        self.deadlines = DeadlineTracker()
        self.events: List[FaultEvent] = []
        #: Hedged-read accounting (bumped by the systems' read paths).
        self.hedges_launched = 0
        self.hedge_wins = 0
        self._crashed: Set[int] = set()
        #: partition -> master site at load time, for mastership replay.
        self.initial_mastership: Dict[int, int] = {}
        self._links_by_pair: Dict[Tuple[int, int], List[LinkFault]] = {}
        for link in plan.links:
            self._links_by_pair.setdefault((link.src, link.dst), []).append(link)
        self._slow_by_site: Dict[int, List[SlowFault]] = {}
        for slow in plan.slowdowns:
            self._slow_by_site.setdefault(slow.site, []).append(slow)

    def install(self) -> None:
        """Hook the cluster and schedule the plan's crash processes.

        Must be called before the workload starts (the captured
        mastership map must be the load-time placement the durable
        logs' markers are replayed against).
        """
        self.cluster.faults = self
        self.cluster.hedged_reads = self.adaptive
        self.cluster.network.faults = self
        for site in self.cluster.sites:
            for partition in site.mastered:
                self.initial_mastership[partition] = site.index
        for index in self._slow_by_site:
            self._install_slow_hook(index)
        for crash in self.plan.crashes:
            self.cluster.env.process(self._crash_proc(crash))

    def _install_slow_hook(self, index: int) -> None:
        site = self.cluster.sites[index]
        site.cpu.slow = lambda index=index: self.cpu_multiplier(index)

    # -- ground truth -----------------------------------------------------

    def site_faulted(self, site: int) -> bool:
        """Whether ``site`` is under *any* active fault right now —
        crashed, fail-slow, or with a degraded/cut/lossy link touching
        it. Used only to classify suspicion episodes as true or false
        for the detector counters; protocol code never reads it.
        """
        if site in self._crashed:
            return True
        now = self.cluster.env.now
        if any(slow.active_at(now) for slow in self._slow_by_site.get(site, ())):
            return True
        return any(
            (link.src == site or link.dst == site) and link.active_at(now)
            for link in self.plan.links
        )

    def sites_up(self) -> int:
        return self.cluster.config.num_sites - len(self._crashed)

    # -- fail-slow (consulted by Resource.use via the slow hook) ----------

    def cpu_multiplier(self, site: int) -> float:
        """Service-time multiplier for ``site`` right now; overlapping
        slow windows multiply."""
        now = self.cluster.env.now
        factor = 1.0
        for slow in self._slow_by_site.get(site, ()):
            if slow.active_at(now):
                factor *= slow.factor
        return factor

    # -- adaptive deadlines / hedging -------------------------------------

    def observe_rtt(self, dst: int, rtt_ms: float) -> None:
        """Fold one successful RPC round trip (called by guarded_call)."""
        self.deadlines.observe(dst, rtt_ms)

    def deadline_ms(self, dst: int) -> float:
        """Effective RPC deadline for ``dst``: adaptive under the
        adaptive preset once warmed up, the fixed timeout otherwise."""
        if not self.adaptive:
            return TIMEOUT_MS
        return self.deadlines.deadline_ms(dst)

    def hedge_delay_ms(self, dst: int) -> float:
        return self.deadlines.hedge_delay_ms(dst)

    def detector_counters(self) -> Dict[str, float]:
        """Detector/hedging counters for the run report and exports
        (mirrors the selector_counters fold in the bench harness).

        ``quarantine_ms`` (total simulated time sites spent suspected,
        open episodes counted through "now") and
        ``detection_latency_ms`` (first suspicion at/after the plan's
        first fault onset, minus that onset) are present only when
        they are defined — no episodes, or no fault ever detected,
        omits them so report/CSV schemas stay stable across runs.
        """
        counters: Dict[str, float] = {
            "suspicion_episodes": self.detector.suspicion_episodes,
            "false_suspicions": self.detector.false_suspicions,
            "suspected_sites": len(self.detector.suspected),
            "hedges_launched": self.hedges_launched,
            "hedge_wins": self.hedge_wins,
        }
        if self.detector.suspicion_episodes:
            counters["quarantine_ms"] = round(
                self.detector.suspicion_time_ms(self.cluster.env.now), 6
            )
            latency = self.detection_latency_ms()
            if latency is not None:
                counters["detection_latency_ms"] = round(latency, 6)
        return counters

    def detection_latency_ms(self) -> Optional[float]:
        """Delay from the plan's first fault onset to the first
        suspicion episode at/after it; ``None`` if the plan is empty
        or no episode followed the onset."""
        onsets = [crash.at_ms for crash in self.plan.crashes]
        onsets.extend(slow.start_ms for slow in self.plan.slowdowns)
        onsets.extend(link.start_ms for link in self.plan.links)
        if not onsets:
            return None
        first_onset = min(onsets)
        tripped = [at for at, _ in self.detector.episodes if at >= first_onset]
        if not tripped:
            return None
        return min(tripped) - first_onset

    # -- link state (consulted by Network.leg_lost / leg_delay) -----------

    def link_extra_delay(self, src: int, dst: int) -> float:
        """Injected one-way delay on ``src -> dst`` for one message.

        Active flat delays sum; each active jittery link additionally
        contributes a fresh uniform draw from ``[0, jitter_ms)`` out of
        the faults RNG stream — per message, so a degraded WAN link
        reorders nothing but smears every delivery.
        """
        now = self.cluster.env.now
        extra = 0.0
        for link in self._links_by_pair.get((src, dst), ()):
            if not link.active_at(now):
                continue
            extra += link.extra_delay_ms
            if link.jitter_ms > 0.0:
                extra += link.jitter_ms * self.rng.random()
        return extra

    def message_lost(self, src: int, dst: int) -> bool:
        """Loss verdict for one message on ``src -> dst``, drawn now.

        A cut link loses everything without consuming randomness;
        otherwise the active loss probabilities combine independently
        and a single draw from the faults stream decides.
        """
        faults = self._links_by_pair.get((src, dst))
        if not faults:
            return False
        now = self.cluster.env.now
        survive = 1.0
        cut = False
        for link in faults:
            if not link.active_at(now):
                continue
            if link.drop:
                cut = True
            else:
                survive *= 1.0 - link.loss
        if cut:
            return True
        if survive >= 1.0:
            return False
        return self.rng.random() >= survive

    # -- crash / restart schedule -----------------------------------------

    def _crash_proc(self, crash):
        env = self.cluster.env
        yield env.timeout(crash.at_ms)
        site = self.cluster.sites[crash.site]
        self._crashed.add(crash.site)
        site.crash()
        self.detector.report_down(crash.site)
        self.events.append(FaultEvent(env.now, "crash", crash.site))
        if crash.restart_at_ms is None:
            return
        yield env.timeout(crash.restart_at_ms - crash.at_ms)
        yield from rejoin_site(self.cluster, crash.site, self.initial_mastership)
        self._crashed.discard(crash.site)
        # Restart hook: the rejoined site is a fresh machine. Drop all
        # suspicion evidence (strikes *and* phi/interval history — the
        # stale-suspicion leak) and its learned RTT profile, and
        # reinstall the fail-slow hook (crash() replaced the CPU
        # resource, which discarded it).
        self.detector.clear(crash.site)
        self.deadlines.reset(crash.site)
        if crash.site in self._slow_by_site:
            self._install_slow_hook(crash.site)
        self.events.append(FaultEvent(env.now, "restart", crash.site))
