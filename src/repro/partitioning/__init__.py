"""Partition mapping.

:class:`~repro.partitioning.schemes.PartitionScheme` maps record keys
to partition ids and provides the initial partition -> site placements
used by the fixed-mastership comparators (range, warehouse,
round-robin). The paper runs Schism (Curino et al., VLDB 2010) only to
confirm that range partitioning (YCSB) and warehouse partitioning
(TPC-C) minimize distributed transactions; the repo ships those
confirmed schemes, not the graph partitioner.
"""

from repro.partitioning.schemes import PartitionScheme

__all__ = ["PartitionScheme"]
