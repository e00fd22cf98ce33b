"""Failure suspicion: fixed-strike and phi-accrual policies.

The site selector and routers must not require ground truth about
which sites are up: they *suspect* a site from RPC evidence, route
around suspected sites, and clear the suspicion on the next successful
exchange. Only the injector's ground truth — standing in for the
durable-log service fencing a dead producer — authorizes the
destructive failover path (forced mastership release).

Two policies share one interface (``report_timeout`` /
``report_down`` / ``report_success`` / ``clear`` / ``is_suspected`` /
``health``):

* :class:`FailureDetector` — the classic fixed-strike detector:
  ``threshold`` consecutive timeouts to a destination mean suspicion.
  Binary, simple, and blind to gray failure (a slow-but-alive site
  that answers within the fixed RPC timeout is never suspected).
* :class:`AdaptiveDetector` — phi-accrual style (Hayashibara et al.):
  per-site EWMA mean/variance of inter-success intervals turn the
  silence since the last success into a suspicion level
  ``phi = -log10 P(silence this long | history)``. Suspicion is the
  threshold ``phi >= phi_threshold``; :meth:`health` exposes the
  *graded* signal ``1 - phi/phi_threshold`` so remastering can steer
  away from a degrading site before the detector commits to suspicion.

Both count suspicion episodes and — when given a ground-truth
predicate (is the site actually faulted right now?) — false
suspicions, surfaced through ``Metrics`` alongside the selector
counters.

Determinism: detectors consume no randomness; the adaptive policy
reads time only through the injected ``clock`` (the sim clock), never
the wall clock.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Set

GroundTruth = Optional[Callable[[int], bool]]


class _SuspicionCounters:
    """Shared episode/false-suspicion accounting for both policies."""

    def __init__(
        self,
        ground_truth: GroundTruth = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        self._ground_truth = ground_truth
        self._clock = clock
        self._suspected: Set[int] = set()
        #: transitions into suspicion (a flapping site counts each flap).
        self.suspicion_episodes = 0
        #: episodes that began while the site was not actually faulted.
        self.false_suspicions = 0
        #: (time, site) per episode — detection-latency measurements
        #: need to know *when* suspicion tripped, not just how often.
        #: Times are 0.0 when no clock was injected.
        self.episodes: list = []
        #: Total duration (ms) of *closed* suspicion episodes; open
        #: episodes are added by :meth:`suspicion_time_ms`.
        self.suspicion_ms = 0.0
        self._episode_started: Dict[int, float] = {}

    def _suspect(self, site: int) -> None:
        if site in self._suspected:
            return
        now = self._clock() if self._clock is not None else 0.0
        self._suspected.add(site)
        self.suspicion_episodes += 1
        self.episodes.append((now, site))
        self._episode_started[site] = now
        if self._ground_truth is not None and not self._ground_truth(site):
            self.false_suspicions += 1

    def _unsuspect(self, site: int) -> None:
        if site in self._suspected:
            started = self._episode_started.pop(site, None)
            if started is not None and self._clock is not None:
                self.suspicion_ms += max(0.0, self._clock() - started)
        self._suspected.discard(site)

    def suspicion_time_ms(self, now: Optional[float] = None) -> float:
        """Total simulated time spent suspected, across all sites.

        Closed episodes always count; passing ``now`` also counts the
        elapsed portion of still-open episodes — the quarantine
        duration a gray-failure sweep reports at end of run.
        """
        total = self.suspicion_ms
        if now is not None:
            for started in self._episode_started.values():
                total += max(0.0, now - started)
        return total

    @property
    def suspected(self) -> Set[int]:
        return set(self._suspected)


class FailureDetector(_SuspicionCounters):
    """Counts consecutive timeouts per site; suspects past a threshold."""

    def __init__(
        self,
        threshold: int = 2,
        ground_truth: GroundTruth = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        if threshold < 1:
            raise ValueError(f"suspicion threshold must be >= 1, got {threshold}")
        super().__init__(ground_truth, clock)
        self.threshold = threshold
        self._strikes: Dict[int, int] = {}

    def report_timeout(self, site: int) -> None:
        strikes = self._strikes.get(site, 0) + 1
        self._strikes[site] = strikes
        if strikes >= self.threshold:
            self._suspect(site)

    def report_down(self, site: int) -> None:
        """Connection refused/reset: suspect immediately."""
        self._strikes[site] = self.threshold
        self._suspect(site)

    def report_success(self, site: int) -> None:
        self._strikes.pop(site, None)
        self._unsuspect(site)

    def clear(self, site: int) -> None:
        """Forget all evidence about ``site`` (it announced a restart)."""
        self.report_success(site)

    def is_suspected(self, site: int) -> bool:
        return site in self._suspected

    def health(self, site: int) -> float:
        """Graded confidence the site is healthy, in [0, 1].

        Strike-fraction for this binary policy: full health with no
        strikes, zero once suspected.
        """
        if site in self._suspected:
            return 0.0
        strikes = self._strikes.get(site, 0)
        return max(0.0, 1.0 - strikes / self.threshold)


#: EWMA weight of a new inter-success interval, and the floor on the
#: modelled interval's standard deviation, of :class:`AdaptiveDetector`.
_ALPHA = 0.1
_MIN_STD_MS = 0.5


class AdaptiveDetector(_SuspicionCounters):
    """Phi-accrual-style adaptive failure detector.

    Per destination, an EWMA of the mean and variance of intervals
    between *successful* RPC exchanges models "how often does this
    site normally answer". The suspicion level is then

        ``phi(site) = -log10 P(X > silence)``  for
        ``X ~ Normal(mean, std)``,

    the improbability of the current silence given history. Two guards
    keep it honest in an RPC (rather than heartbeat) setting:

    * silence only accrues suspicion once at least one timeout has
      been observed since the last success — an idle destination that
      nobody is calling is not thereby suspect;
    * before any interval history exists, the policy degrades to the
      fixed-strike rule, so a site that dies at time zero is still
      caught.

    ``report_down`` (connection refused — the transport *knows*)
    suspects immediately, as in the strike detector.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        phi_threshold: float = 8.0,
        threshold: int = 2,
        ground_truth: GroundTruth = None,
        quarantine_ms: float = 250.0,
    ):
        if phi_threshold <= 0:
            raise ValueError(f"phi threshold must be positive, got {phi_threshold}")
        if threshold < 1:
            raise ValueError(f"suspicion threshold must be >= 1, got {threshold}")
        if quarantine_ms < 0:
            raise ValueError(f"quarantine must be >= 0 ms, got {quarantine_ms}")
        super().__init__(ground_truth, clock)
        self.clock = clock
        self.phi_threshold = phi_threshold
        self.threshold = threshold
        #: Suspicion hysteresis. A fail-slow site keeps *succeeding*
        #: (slowly), and under concurrent traffic some success always
        #: lands shortly after suspicion trips — without a latch the
        #: detector flickers and routing never actually drains the sick
        #: site. Once tripped, suspicion holds for ``quarantine_ms``;
        #: fresh timeout evidence extends the quarantine, an explicit
        #: :meth:`clear` (site restart) bypasses it.
        self.quarantine_ms = quarantine_ms
        self._quarantined_until: Dict[int, float] = {}
        self._mean: Dict[int, float] = {}
        self._var: Dict[int, float] = {}
        self._last_ok: Dict[int, float] = {}
        self._timeouts_since_ok: Dict[int, int] = {}
        self._down: Set[int] = set()

    # -- evidence ----------------------------------------------------------

    def report_success(self, site: int) -> None:
        now = self.clock()
        last = self._last_ok.get(site)
        if last is not None:
            interval = now - last
            mean = self._mean.get(site)
            if mean is None:
                self._mean[site] = interval
                self._var[site] = 0.0
            else:
                delta = interval - mean
                self._mean[site] = mean + _ALPHA * delta
                self._var[site] = (1.0 - _ALPHA) * (
                    self._var[site] + _ALPHA * delta * delta
                )
        self._last_ok[site] = now
        self._timeouts_since_ok[site] = 0
        self._down.discard(site)
        if now >= self._quarantined_until.get(site, 0.0):
            self._unsuspect(site)

    def report_timeout(self, site: int) -> None:
        self._timeouts_since_ok[site] = self._timeouts_since_ok.get(site, 0) + 1
        self._refresh(site)
        if site in self._suspected:
            # Fresh evidence while quarantined: extend the latch.
            self._quarantined_until[site] = self.clock() + self.quarantine_ms

    def report_down(self, site: int) -> None:
        """Connection refused/reset: suspect immediately."""
        self._down.add(site)
        self._suspect(site)

    def clear(self, site: int) -> None:
        """Forget *all* evidence about ``site`` (it announced a restart).

        Drops the interval history too: a rejoined site's service-time
        distribution is a fresh machine's, and carrying pre-crash phi
        state into its second life is exactly the stale-suspicion leak
        this hook exists to prevent.
        """
        self._mean.pop(site, None)
        self._var.pop(site, None)
        self._last_ok.pop(site, None)
        self._timeouts_since_ok.pop(site, None)
        self._quarantined_until.pop(site, None)
        self._down.discard(site)
        self._unsuspect(site)

    # -- suspicion level ---------------------------------------------------

    def phi(self, site: int) -> float:
        """Current suspicion level; 0 means no evidence of trouble."""
        if site in self._down:
            return math.inf
        timeouts = self._timeouts_since_ok.get(site, 0)
        if timeouts == 0:
            return 0.0
        last = self._last_ok.get(site)
        mean = self._mean.get(site)
        if last is None or mean is None:
            # No interval history yet: fixed-strike fallback, mapped
            # onto the phi scale so one threshold governs both regimes.
            return self.phi_threshold * (timeouts / self.threshold)
        elapsed = self.clock() - last
        std = max(_MIN_STD_MS, math.sqrt(self._var.get(site, 0.0)), 0.1 * mean)
        tail = 0.5 * math.erfc((elapsed - mean) / (std * math.sqrt(2.0)))
        if tail <= 0.0:
            return math.inf
        return -math.log10(tail)

    def _suspect(self, site: int) -> None:
        if site not in self._suspected:
            self._quarantined_until[site] = self.clock() + self.quarantine_ms
        super()._suspect(site)

    def _refresh(self, site: int) -> None:
        if self.phi(site) >= self.phi_threshold:
            self._suspect(site)
        elif self.clock() >= self._quarantined_until.get(site, 0.0):
            self._unsuspect(site)

    def is_suspected(self, site: int) -> bool:
        # Phi grows with silence even without new reports; re-evaluate
        # at read time so suspicion does not wait for the next timeout.
        if site not in self._down:
            self._refresh(site)
        return site in self._suspected

    def health(self, site: int) -> float:
        """Graded confidence the site is healthy, in [0, 1].

        ``1 - phi/phi_threshold``: degrades continuously as evidence
        accrues, hitting zero exactly when suspicion trips. This is
        the signal health-aware remastering consumes — a site at
        health 0.4 is not yet routed around, but the strategy already
        pays a soft penalty to master partitions there.
        """
        if self.is_suspected(site):
            return 0.0
        return max(0.0, 1.0 - self.phi(site) / self.phi_threshold)
