"""Declarative fault schedules.

A :class:`FaultPlan` is pure data: what fails, when, and for how long.
The :class:`~repro.faults.injector.FaultInjector` interprets it against
a live cluster. Keeping the schedule declarative makes fault scenarios
reproducible (the plan plus the seed fully determine the run) and lets
property tests generate arbitrary plans.

Site indices: data sites are ``0..num_sites-1``; :data:`FRONTEND`
(``-1``) denotes the front-end tier (site selector / router), which
never crashes but whose links to data sites can fail — cutting every
``(FRONTEND, i)`` link isolates site *i* from new work while its
replication feed (the durable-log service) keeps flowing.

Fail-stop crashes and binary link cuts model the classic failure
story; the *gray* failure modes — :class:`SlowFault` (a site that is
slow but alive) and degraded links (inflated, jittery latency instead
of loss) — model the regime where fixed timeouts either fire too early
or too late, which is where the adaptive defenses earn their keep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

#: Pseudo-site index for the front-end tier (selector/router machines).
FRONTEND = -1


@dataclass(frozen=True)
class CrashFault:
    """Crash site ``site`` at ``at_ms``; restart at ``restart_at_ms``.

    ``restart_at_ms=None`` means the site stays down for the rest of
    the run. A restart performs a live rejoin: log replay through the
    recovery machinery, then catch-up refreshes from the subscription
    position the replay established. A site may crash several times in
    one plan as long as the ``[at, restart)`` windows do not overlap;
    note the rejoin's log replay takes simulated CPU time, so leave
    slack between a restart and the next crash.
    """

    site: int
    at_ms: float
    restart_at_ms: Optional[float] = None


@dataclass(frozen=True)
class SlowFault:
    """Fail-slow: multiply site ``site``'s CPU service times by ``factor``
    over ``[start_ms, end_ms)``.

    The site stays alive and correct — every operation just takes
    ``factor`` times longer on its cores (interpreted by the CPU
    :class:`~repro.sim.resources.Resource` at grant time). This is the
    gray-failure mode a connection-refused detector never sees: the
    site answers everything, slowly. Overlapping slow windows on one
    site multiply. ``end_ms`` may be ``inf`` (a permanently sick
    machine is survivable — transactions still terminate).
    """

    site: int
    start_ms: float
    end_ms: float
    factor: float = 4.0

    def active_at(self, now: float) -> bool:
        return self.start_ms <= now < self.end_ms


@dataclass(frozen=True)
class LinkFault:
    """Degrade the directed link ``src -> dst`` over an interval.

    ``drop=True`` blackholes every message; otherwise ``loss`` is the
    probability each message is lost (drawn from the faults RNG
    stream), ``extra_delay_ms`` is added to each delivery, and
    ``jitter_ms`` adds a per-message uniform draw from
    ``[0, jitter_ms)`` (same seeded stream) — the degraded-but-
    connected WAN mode. The interval must be finite: permanent
    partitions would make 2PC decision delivery — and therefore
    transaction termination — impossible, so the plan validator
    rejects them (crashes may be permanent instead).
    """

    src: int
    dst: int
    start_ms: float
    end_ms: float
    drop: bool = False
    loss: float = 0.0
    extra_delay_ms: float = 0.0
    jitter_ms: float = 0.0

    def active_at(self, now: float) -> bool:
        return self.start_ms <= now < self.end_ms


def partition_site(
    site: int,
    start_ms: float,
    end_ms: float,
    num_sites: int,
) -> List[LinkFault]:
    """Sugar: cut both directions of every link touching ``site``,
    the front end's included."""
    peers = [index for index in range(num_sites) if index != site]
    peers.append(FRONTEND)
    faults = []
    for peer in peers:
        faults.append(LinkFault(site, peer, start_ms, end_ms, drop=True))
        faults.append(LinkFault(peer, site, start_ms, end_ms, drop=True))
    return faults


def flapping_site(
    site: int,
    start_ms: float,
    end_ms: float,
    num_sites: int,
    period_ms: float,
    downtime_ms: Optional[float] = None,
) -> List[LinkFault]:
    """Sugar: repeatedly isolate ``site`` — down for ``downtime_ms``
    (default: half the period) at the start of every ``period_ms``
    cycle within ``[start_ms, end_ms)``.

    Built from full link cuts rather than crash/restart cycles so the
    site's state survives each flap — the failure is connectivity, not
    the machine. This is the suspicion-churn scenario: a detector that
    never forgives keeps routing around a recovered site; one that
    forgives too fast never converges.
    """
    if period_ms <= 0:
        raise ValueError(f"flap period must be positive, got {period_ms}")
    down = downtime_ms if downtime_ms is not None else period_ms / 2.0
    if not 0 < down <= period_ms:
        raise ValueError(
            f"flap downtime {down} must be in (0, period {period_ms}]"
        )
    faults: List[LinkFault] = []
    window_start = start_ms
    while window_start < end_ms:
        window_end = min(window_start + down, end_ms)
        faults.extend(partition_site(site, window_start, window_end, num_sites))
        window_start += period_ms
    return faults


@dataclass
class FaultPlan:
    """A complete, declarative fault schedule for one run."""

    crashes: Tuple[CrashFault, ...] = ()
    links: Tuple[LinkFault, ...] = ()
    slowdowns: Tuple[SlowFault, ...] = ()

    def __post_init__(self):
        self.crashes = tuple(self.crashes)
        self.links = tuple(self.links)
        self.slowdowns = tuple(self.slowdowns)

    @property
    def empty(self) -> bool:
        return not self.crashes and not self.links and not self.slowdowns

    def validate(self, num_sites: int) -> None:
        """Reject schedules the protocol stack cannot survive."""
        by_site: dict = {}
        for crash in self.crashes:
            if not 0 <= crash.site < num_sites:
                raise ValueError(f"crash names unknown site {crash.site}")
            if crash.at_ms < 0:
                raise ValueError(f"crash time must be >= 0, got {crash.at_ms}")
            if crash.restart_at_ms is not None and crash.restart_at_ms <= crash.at_ms:
                raise ValueError(
                    f"site {crash.site}: restart at {crash.restart_at_ms} "
                    f"is not after the crash at {crash.at_ms} "
                    "(a crash window must have positive duration)"
                )
            by_site.setdefault(crash.site, []).append(crash)
        for site, crashes in by_site.items():
            crashes.sort(key=lambda crash: crash.at_ms)
            for earlier, later in zip(crashes, crashes[1:]):
                if earlier.restart_at_ms is None:
                    raise ValueError(
                        f"site {site} crashes at {later.at_ms} but its "
                        f"crash at {earlier.at_ms} never restarts; a "
                        "permanently-down site cannot crash again — give "
                        "the earlier fault a restart_at_ms before "
                        f"{later.at_ms}"
                    )
                if later.at_ms < earlier.restart_at_ms:
                    raise ValueError(
                        f"site {site} has overlapping crash windows: "
                        f"[{earlier.at_ms}, {earlier.restart_at_ms}) and "
                        f"[{later.at_ms}, ...) — separate them so the "
                        "site is up between crashes"
                    )
        if len(by_site) >= num_sites:
            raise ValueError("a plan may not crash every site")
        for slow in self.slowdowns:
            if not 0 <= slow.site < num_sites:
                raise ValueError(f"slow fault names unknown site {slow.site}")
            if slow.factor <= 0:
                raise ValueError(
                    f"slow factor must be positive, got {slow.factor} "
                    f"(site {slow.site})"
                )
            if not slow.end_ms > slow.start_ms >= 0:
                raise ValueError(
                    f"slow fault window [{slow.start_ms}, {slow.end_ms}) on "
                    f"site {slow.site} is empty — zero/negative-duration "
                    "faults never fire; give the window positive length"
                )
        for link in self.links:
            for end in (link.src, link.dst):
                if end != FRONTEND and not 0 <= end < num_sites:
                    raise ValueError(f"link fault names unknown site {end}")
            if link.src == link.dst:
                raise ValueError(f"link fault on a self-loop ({link.src})")
            if not 0.0 <= link.loss < 1.0:
                raise ValueError(
                    f"loss must be in [0, 1) (use drop=True for a full cut), "
                    f"got {link.loss}"
                )
            if link.extra_delay_ms < 0:
                raise ValueError(f"negative extra delay: {link.extra_delay_ms}")
            if link.jitter_ms < 0:
                raise ValueError(f"negative jitter: {link.jitter_ms}")
            if not link.end_ms > link.start_ms >= 0:
                raise ValueError(
                    f"link fault interval [{link.start_ms}, {link.end_ms}) "
                    "is empty — zero/negative-duration faults never fire; "
                    "give the window positive length"
                )
            if link.end_ms == float("inf"):
                raise ValueError(
                    "link faults must end (permanent partitions would make "
                    "transaction termination impossible); crash the site instead"
                )


def fault_windows(
    plan: FaultPlan, duration_ms: float
) -> List[Tuple[str, int, float, float]]:
    """Ground-truth ``(kind, site, start_ms, end_ms)`` windows of a plan.

    The run-relative intervals each fault is actually active, clamped
    to the run: a crash without a restart extends to ``duration_ms``,
    and windows starting at/after the end of the run are dropped. Link
    faults are attributed to their data-site end (the front end never
    fails itself). This is the join key the SLO engine's incident
    correlation uses (MTTD/MTTR against injected truth), so it lives
    next to the plan rather than the observer.
    """
    windows: List[Tuple[str, int, float, float]] = []
    for crash in plan.crashes:
        end = crash.restart_at_ms if crash.restart_at_ms is not None else duration_ms
        windows.append(("crash", crash.site, crash.at_ms, min(end, duration_ms)))
    for slow in plan.slowdowns:
        windows.append(
            ("slow", slow.site, slow.start_ms, min(slow.end_ms, duration_ms))
        )
    for link in plan.links:
        site = link.dst if link.src == FRONTEND else link.src
        windows.append(
            ("link", site, link.start_ms, min(link.end_ms, duration_ms))
        )
    windows = [w for w in windows if w[3] > w[2]]
    windows.sort(key=lambda w: (w[2], w[3], w[0], w[1]))
    return windows


#: Named scenarios for ``repro chaos`` / ``make chaos`` /
#: ``make chaos-gray``. The first four are fail-stop/binary; the last
#: four are the gray-failure scenarios (fail-slow, degraded links,
#: connectivity flapping, and the combination).
SCENARIOS = (
    "crash-restart", "crash", "partition", "lossy",
    "fail_slow_master", "degraded_wan_link", "flapping_site", "gray_storm",
)

#: Gray-failure subset of :data:`SCENARIOS` (the `make chaos-gray` matrix).
GRAY_SCENARIOS = (
    "fail_slow_master", "degraded_wan_link", "flapping_site", "gray_storm",
)


def build_scenario(
    name: str,
    num_sites: int,
    duration_ms: float,
) -> FaultPlan:
    """Instantiate a named scenario scaled to the run duration.

    ``crash-restart`` (the paper-style availability experiment) crashes
    one site a third of the way in and restarts it a third of the run
    (at most 20 simulated seconds) later. The
    gray scenarios degrade over the same window: ``fail_slow_master``
    slows the victim's CPU 10x, ``degraded_wan_link`` inflates the
    0<->1 link with seeded jitter, ``flapping_site`` cuts the victim's
    connectivity in four on/off cycles, and ``gray_storm`` combines a
    slow site with a degraded link and a mildly lossy front-end path.
    """
    if num_sites < 2:
        raise ValueError("fault scenarios need at least two sites")
    third = duration_ms / 3.0
    outage = min(20_000.0, third)
    victim = 1
    if name == "crash-restart":
        return FaultPlan(crashes=(
            CrashFault(victim, at_ms=third, restart_at_ms=third + outage),
        ))
    if name == "crash":
        return FaultPlan(crashes=(CrashFault(victim, at_ms=third),))
    if name == "partition":
        return FaultPlan(links=tuple(
            partition_site(victim, third, third + outage, num_sites)
        ))
    if name == "lossy":
        links = []
        for src in range(num_sites):
            for dst in range(num_sites):
                if src != dst:
                    links.append(LinkFault(src, dst, third, third + outage, loss=0.2))
            links.append(LinkFault(FRONTEND, src, third, third + outage, loss=0.2))
            links.append(LinkFault(src, FRONTEND, third, third + outage, loss=0.2))
        return FaultPlan(links=tuple(links))
    if name == "fail_slow_master":
        return FaultPlan(slowdowns=(
            SlowFault(victim, third, third + outage, factor=10.0),
        ))
    if name == "degraded_wan_link":
        links = []
        for src, dst in ((0, victim), (victim, 0)):
            links.append(LinkFault(
                src, dst, third, third + outage,
                extra_delay_ms=6.0, jitter_ms=12.0,
            ))
        return FaultPlan(links=tuple(links))
    if name == "flapping_site":
        period = outage / 4.0
        return FaultPlan(links=tuple(flapping_site(
            victim, third, third + outage, num_sites,
            period_ms=period, downtime_ms=period / 2.0,
        )))
    if name == "gray_storm":
        other = 0 if num_sites == 2 else 2
        links = []
        for src, dst in ((0, other), (other, 0)) if other else ():
            links.append(LinkFault(
                src, dst, third, third + outage,
                extra_delay_ms=3.0, jitter_ms=6.0,
            ))
        links.append(LinkFault(FRONTEND, other, third, third + outage, loss=0.1))
        links.append(LinkFault(other, FRONTEND, third, third + outage, loss=0.1))
        return FaultPlan(
            slowdowns=(SlowFault(victim, third, third + outage, factor=6.0),),
            links=tuple(links),
        )
    raise ValueError(f"unknown scenario {name!r}; expected one of {SCENARIOS}")
