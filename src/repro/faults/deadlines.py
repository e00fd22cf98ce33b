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

Until ``DEADLINE_MIN_SAMPLES`` RTTs have been observed for a
destination, both fall back to the fixed values — cold-start guesses
would be noise.
The tracker is passive and deterministic: it only folds in RTTs the
RPC layer measured anyway, consumes no randomness, and is dropped per
destination by the injector's restart hook (a rejoined site's RTT
profile is a fresh machine's).
"""

from __future__ import annotations

from typing import Dict

from repro.obs.registry import StreamingHistogram


#: How long a caller waits for an RPC response before giving up. It
#: is deliberately generous relative to typical transaction latencies
#: (a few ms) so that a loaded-but-live site is not mistaken for a
#: dead one; a crashed site is detected fast anyway via
#: connection-refused (:class:`~repro.faults.errors.SiteDown`), so
#: timeouts mostly fire for lost/partitioned messages.
TIMEOUT_MS = 50.0
#: RTT quantile and headroom multiplier for the adaptive deadline.
DEADLINE_QUANTILE = 0.99
DEADLINE_MULTIPLIER = 3.0
#: RTT samples per destination before adapting (cold-start guard).
DEADLINE_MIN_SAMPLES = 20
#: Never tighten a deadline below this.
DEADLINE_FLOOR_MS = 5.0
#: RTT quantile after which a read hedges.
HEDGE_QUANTILE = 0.95


class DeadlineTracker:
    """Quantile-tracked RTTs per destination -> adaptive deadlines."""

    def __init__(self):
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
        if hist is None or hist.count < DEADLINE_MIN_SAMPLES:
            return TIMEOUT_MS
        adaptive = hist.quantile(DEADLINE_QUANTILE) * DEADLINE_MULTIPLIER
        return min(TIMEOUT_MS, max(DEADLINE_FLOOR_MS, adaptive))

    def hedge_delay_ms(self, dst: int) -> float:
        """How long a hedged read waits on ``dst`` before launching its
        backup; the fixed timeout until enough history exists."""
        hist = self._rtts.get(dst)
        if hist is None or hist.count < DEADLINE_MIN_SAMPLES:
            return TIMEOUT_MS
        return min(TIMEOUT_MS, max(DEADLINE_FLOOR_MS, hist.quantile(HEDGE_QUANTILE)))

    def reset(self, dst: int) -> None:
        """Drop ``dst``'s history (the site restarted)."""
        self._rtts.pop(dst, None)
