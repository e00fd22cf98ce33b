"""Cluster-wide simulation configuration.

The cost model is not configuration: every comparator shares one, so
each cost is a module constant next to the code that charges it (the
site's CPU costs in ``repro.sites.data_site``, refresh costs in
``repro.replication.manager``, message costs in ``repro.sim.network``).
The absolute values are a scaled-down stand-in for the paper's 12-core
machines (4 simulated cores by default and proportionally larger
per-operation costs so runs stay small); what matters for reproducing
the paper's *shapes* is the cost structure:

* transactions consume CPU at their execution site (queueing for cores
  is what saturates the single-master site);
* every replicated write later consumes (cheaper) refresh CPU at every
  replica (the multi-master replication overhead);
* 2PC adds whole network round trips and holds locks across them;
* data shipping (LEAP) pays per-record marshalling CPU and bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Iterable, Sequence, Tuple


def check_config(
    config,
    rules: Iterable[Tuple[str, bool, str]],
    mix: Sequence[str] = (),
) -> None:
    """Refuse a config at construction, naming the field.

    Configs arrive from CLI flags and ``RunSpec`` / ``WorkloadSpec``
    params; what is not refused here surfaces mid-run as a stdlib
    ``randrange`` error, a ``ZeroDivisionError``, a negative timeout,
    or a value silently treated as another. ``rules`` are ``(field,
    holds, "what it must be")`` triples; the ``mix`` fields are
    weights, each ``>= 0`` and summing to 1.
    """
    rules = [*rules, *((name, getattr(config, name) >= 0, ">= 0") for name in mix)]
    for name, ok, rule in rules:
        if not ok:
            raise ValueError(
                f"{type(config).__name__}.{name} must be {rule}, "
                f"got {getattr(config, name)!r}"
            )
    total = sum(getattr(config, name) for name in mix)
    if mix and abs(total - 1.0) > 1e-9:
        raise ValueError(
            f"{type(config).__name__}: {' + '.join(mix)} must sum to 1, got {total!r}"
        )


def finite_nonnegative(config) -> Iterable[Tuple[str, bool, str]]:
    """One ``finite and >= 0`` rule per dataclass field of ``config``."""
    for spec in fields(config):
        value = getattr(config, spec.name)
        yield spec.name, 0 <= value < math.inf, "finite and >= 0"


#: The gray-failure defense presets (``ClusterConfig.defenses``). Only a
#: fault plan consults them; unfaulted runs never arm a timeout.
#: ``"fixed"`` is the pre-gray-failure baseline: the fixed-strike
#: detector, one fixed RPC timeout, no hedging, and the paper's
#: Equation-8 weights. ``"adaptive"`` arms phi-accrual detection,
#: per-destination deadlines, hedged reads and a health penalty in the
#: site selector (``repro.faults.injector``, ``repro.core.site_selector``).
DEFENSES = ("fixed", "adaptive")


@dataclass
class ClusterConfig:
    """Everything needed to instantiate a simulated cluster."""

    num_sites: int = 4
    #: Simulated cores per data site (paper: 12; scaled down by default).
    cores_per_site: int = 4
    #: Gray-failure defense preset, one of :data:`DEFENSES`.
    defenses: str = "fixed"
    seed: int = 0

    def __post_init__(self):
        # A version's origin is stored as an unsigned 16-bit site index
        # (storage/table.py); refuse here what would overflow mid-run.
        check_config(self, (
            ("num_sites", 1 <= self.num_sites <= 65_535, "in [1, 65535]"),
            ("cores_per_site", self.cores_per_site >= 1, ">= 1"),
            ("defenses", self.defenses in DEFENSES, f"one of {DEFENSES}"),
        ))

    def scaled(self, **changes) -> "ClusterConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)
