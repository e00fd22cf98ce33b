"""DynaMast's site selector — the paper's primary contribution.

* :class:`~repro.core.partitions.PartitionTable` — per-partition
  master location plus a readers-writer lock (paper §V-B);
* :class:`~repro.core.statistics.AccessStatistics` — sampled write-set
  tracking: partition write frequencies, intra-/inter-transaction
  co-access counts, and sample expiry (paper §V-B);
* :class:`~repro.core.strategy.RemasterStrategy` — the adaptive
  remastering model of §IV-A: load balance (Eqs. 2–4), refresh delay
  (Eq. 5), co-access localization (Eqs. 6–7), combined by the weighted
  linear benefit model (Eq. 8);
* :class:`~repro.core.site_selector.SiteSelector` — transaction
  routing and the remastering protocol driver (Algorithm 1).
"""

from repro.core.partitions import PartitionTable
from repro.core.site_selector import RouteResult, SiteSelector
from repro.core.statistics import AccessStatistics, StatisticsConfig
from repro.core.strategy import RemasterStrategy, StrategyWeights

__all__ = [
    "AccessStatistics",
    "PartitionTable",
    "RemasterStrategy",
    "RouteResult",
    "SiteSelector",
    "StatisticsConfig",
    "StrategyWeights",
]
