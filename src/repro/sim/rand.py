"""Seeded random streams and distributions.

Determinism rule for the whole project: no component touches the global
:mod:`random` state. Every stochastic choice draws from a named stream
obtained from :class:`RandomStreams`, so that a run is exactly
reproducible from its seed and adding a new consumer of randomness does
not perturb existing streams.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import Dict

# The builtin SHA-256, as random.py takes its sha512: hashlib maps
# OpenSSL's libcrypto (about 3.5 MB of every run's RSS) to hash a few
# short strings. Also the digest of ``run_fingerprint``.
try:
    from _sha2 import sha256  # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # CPython <= 3.11
    except ImportError:
        from hashlib import sha256

#: Well-known stream names. Streams are derived independently from the
#: seed (SHA-256 of ``seed:name``), so adding or removing a *consumer*
#: of one stream never perturbs draws from any other. Fault injection
#: relies on this: :data:`FAULTS_STREAM` feeds message-loss draws and
#: retry-backoff jitter exclusively, so attaching a fault plan cannot
#: shift the workload or routing streams — and a run without faults
#: never draws from it at all.
WORKLOAD_STREAM = "workload"
FAULTS_STREAM = "faults"
#: Open-loop arrival process (repro.sim.arrivals / repro.workloads
#: .openloop). Isolated for the same reason as faults: attaching an
#: open-loop engine must not shift the draws a closed-loop run makes
#: from the workload stream.
ARRIVALS_STREAM = "arrivals"


class RandomStreams:
    """A family of independent, named PRNG streams derived from one seed."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating on first use) the stream called ``name``."""
        stream = self._streams.get(name)
        if stream is None:
            digest = sha256(f"{self.seed}:{name}".encode()).digest()
            stream = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = stream
        return stream

    def faults(self) -> random.Random:
        """The dedicated fault-injection stream (loss draws, backoff)."""
        return self.stream(FAULTS_STREAM)


class ZipfGenerator:
    """Zipfian integer generator over ``[0, n)`` with exponent ``theta``.

    Uses the standard inverse-CDF method over precomputed cumulative
    weights; ``theta = 0`` degenerates to uniform. The YCSB experiments
    in the paper use a skew of 0.75 (Appendix C).
    """

    def __init__(self, n: int, theta: float, rng: random.Random):
        if n <= 0:
            raise ValueError(f"ZipfGenerator needs n >= 1, got {n}")
        if theta < 0:
            raise ValueError(f"Zipf exponent must be >= 0, got {theta}")
        self.n = n
        self.theta = theta
        self._rng = rng
        weights = [1.0 / (rank + 1) ** theta for rank in range(n)]
        total = 0.0
        self._cumulative = []
        for weight in weights:
            total += weight
            self._cumulative.append(total)
        self._total = total

    def sample(self) -> int:
        """Draw one value; 0 is the most popular rank."""
        point = self._rng.random() * self._total
        return bisect_right(self._cumulative, point)
