"""Per-destination adaptive RPC deadlines from observed RTTs.

A fixed RPC timeout is wrong in both directions under gray failure:
too tight and jittery-but-healthy links cause spurious aborts, too
loose and a fail-slow site drags every caller to the full timeout
before anyone notices. The :class:`DeadlineTracker` learns each
destination's RTT distribution (a compact
:class:`~repro.obs.registry.StreamingHistogram` per site) and derives:

* ``deadline_ms(dst)`` — ``quantile(q) * multiplier``, clamped to
  ``[floor, fixed timeout]``. The fixed timeout stays the ceiling:
  adaptation only ever tightens, so the worst case is the status quo.
* ``hedge_delay_ms(dst)`` — the hedging percentile of the same
  distribution: how long a read waits before launching a backup
  request to another replica ("the tail at scale" recipe).

Until ``min_samples`` RTTs have been observed for a destination, both
fall back to the fixed values — cold-start guesses would be noise.
The tracker is passive and deterministic: it only folds in RTTs the
RPC layer measured anyway, consumes no randomness, and is dropped per
destination by the injector's restart hook (a rejoined site's RTT
profile is a fresh machine's).
"""

from __future__ import annotations

from typing import Dict

from repro.obs.registry import StreamingHistogram


class DeadlineTracker:
    """Quantile-tracked RTTs per destination -> adaptive deadlines."""

    def __init__(
        self,
        timeout_ms: float,
        quantile: float = 0.99,
        multiplier: float = 3.0,
        min_samples: int = 20,
        floor_ms: float = 5.0,
        hedge_quantile: float = 0.95,
    ):
        if not 0 < quantile <= 1 or not 0 < hedge_quantile <= 1:
            raise ValueError(
                f"quantiles must be in (0, 1], got {quantile}/{hedge_quantile}"
            )
        if multiplier < 1.0:
            raise ValueError(f"deadline multiplier must be >= 1, got {multiplier}")
        if min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {min_samples}")
        self.timeout_ms = timeout_ms
        self.quantile = quantile
        self.multiplier = multiplier
        self.min_samples = min_samples
        self.floor_ms = floor_ms
        self.hedge_quantile = hedge_quantile
        self._rtts: Dict[int, StreamingHistogram] = {}

    def observe(self, dst: int, rtt_ms: float) -> None:
        """Fold one successful round-trip time for ``dst``."""
        hist = self._rtts.get(dst)
        if hist is None:
            hist = self._rtts[dst] = StreamingHistogram(f"rtt_site_{dst}")
        hist.record(rtt_ms)

    def samples(self, dst: int) -> int:
        hist = self._rtts.get(dst)
        return hist.count if hist is not None else 0

    def deadline_ms(self, dst: int) -> float:
        """Adaptive deadline for an RPC to ``dst``; never looser than
        the fixed timeout, never tighter than the floor."""
        hist = self._rtts.get(dst)
        if hist is None or hist.count < self.min_samples:
            return self.timeout_ms
        adaptive = hist.quantile(self.quantile) * self.multiplier
        return min(self.timeout_ms, max(self.floor_ms, adaptive))

    def hedge_delay_ms(self, dst: int) -> float:
        """How long a hedged read waits on ``dst`` before launching its
        backup; the fixed timeout until enough history exists."""
        hist = self._rtts.get(dst)
        if hist is None or hist.count < self.min_samples:
            return self.timeout_ms
        return min(self.timeout_ms, max(self.floor_ms, hist.quantile(self.hedge_quantile)))

    def reset(self, dst: int) -> None:
        """Drop ``dst``'s history (the site restarted)."""
        self._rtts.pop(dst, None)
