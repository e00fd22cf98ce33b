"""The single-master comparator (paper §VI-A.1).

Built exactly as the paper builds it: DynaMast with every partition
mastered at one site. All update transactions route to the master
site; read-only transactions run at lazily maintained replicas. No
write set ever spans masters, so remastering never triggers — the
architecture degenerates to classic primary-copy lazy replication,
bottlenecked on the master's CPU as the update load grows.
"""

from __future__ import annotations

from repro.partitioning.schemes import PartitionScheme
from repro.systems.base import Cluster
from repro.systems.dynamast import DynaMast


class SingleMaster(DynaMast):
    """All master copies pinned to site 0; replicas serve reads."""

    name = "single-master"

    def __init__(self, cluster: Cluster, scheme: PartitionScheme):
        super().__init__(cluster, scheme, placement=scheme.single_site_placement(0))
