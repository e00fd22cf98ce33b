"""Network cost model.

The paper's testbed is a 10 Gbit/s LAN with Apache Thrift RPC. We model
a message as a fixed per-message latency (propagation plus RPC
marshalling) plus a size-dependent serialization term, and account every
byte against a named traffic category so the bench harness can reproduce
the paper's traffic breakdown (Appendix D: ~43 MB/s of stored-procedure
arguments, ~155 MB/s of refresh propagation, ~3 MB/s of remastering).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.sim.config import NetworkConfig
from repro.sim.core import Environment


@dataclass
class TrafficCounters:
    """Bytes and message counts per traffic category."""

    bytes_by_category: Dict[str, int] = field(default_factory=dict)
    messages_by_category: Dict[str, int] = field(default_factory=dict)

    def record(self, category: str, size: int) -> None:
        # One message per call on the RPC hot path; the categories are
        # a handful of fixed names, so the KeyError branch runs once per
        # category per run.
        try:
            self.bytes_by_category[category] += size
        except KeyError:
            self.bytes_by_category[category] = size
        try:
            self.messages_by_category[category] += 1
        except KeyError:
            self.messages_by_category[category] = 1

    def record_many(self, category: str, size: int, count: int) -> None:
        """Record ``count`` same-sized messages with one counter bump.

        Totals are exactly what ``count`` calls to :meth:`record` would
        produce (sizes are integral bytes, so ``size * count`` has no
        rounding concerns).
        """
        self.bytes_by_category[category] = (
            self.bytes_by_category.get(category, 0) + size * count
        )
        self.messages_by_category[category] = (
            self.messages_by_category.get(category, 0) + count
        )

    def total_bytes(self) -> int:
        return sum(self.bytes_by_category.values())


class Network:
    """Creates delay events for messages and accounts traffic.

    By default every message succeeds after a uniform (size-dependent)
    delay. When a fault injector is installed (``self.faults``), the
    network exposes a per-link view — :meth:`leg_lost` and
    :meth:`leg_delay` consult the injector's link-state matrix for
    partitions, probabilistic loss, and extra per-link delay. Without
    an injector they reduce to :meth:`delay_for`, so runs without a
    fault plan are bit-identical.
    """

    def __init__(self, env: Environment, config: NetworkConfig | None = None):
        self.env = env
        self.config = config or NetworkConfig()
        self.traffic = TrafficCounters()
        #: The installed :class:`~repro.faults.injector.FaultInjector`,
        #: or None (the default — no fault can occur).
        self.faults = None

    def delay_for(self, size: int = 0) -> float:
        """Return the one-way delay for a message of ``size`` bytes."""
        cfg = self.config
        return cfg.one_way_latency_ms + size / cfg.bandwidth_bytes_per_ms

    # -- per-link view (fault injection only) -----------------------------

    def leg_lost(self, src: int, dst: int) -> bool:
        """Whether a message on the directed link ``src -> dst`` is lost.

        Always False without an injector. With one, a blackholed link
        loses everything and a lossy link loses each message with its
        configured probability (drawn from the faults RNG stream).
        """
        if self.faults is None:
            return False
        return self.faults.message_lost(src, dst)

    def leg_delay(self, src: int, dst: int, size: int = 0) -> float:
        """One-way delay on a specific link, including injected delay."""
        delay = self.delay_for(size)
        if self.faults is not None:
            delay += self.faults.link_extra_delay(src, dst)
        return delay

    def account(self, category: str, size: int) -> None:
        """Record one message against ``category``."""
        self.traffic.record(category, size)

    def account_many(self, category: str, size: int, count: int) -> None:
        """Record ``count`` same-sized messages against ``category``.

        Used by fan-out paths (log replication) to replace a loop of
        :meth:`account` calls; the totals are identical.
        """
        if count <= 0:
            return
        self.traffic.record_many(category, size, count)
