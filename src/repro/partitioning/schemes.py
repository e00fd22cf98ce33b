"""Partition schemes: key -> partition mapping and initial placements.

The site selector tracks mastership at partition granularity (paper
§V-B); the fixed-mastership comparators additionally need an initial
partition -> site placement. A partition id of ``None`` marks keys of
static read-only tables (e.g. TPC-C ``item``), which are replicated
everywhere even in the partitioned comparators and never mastered.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Set

from repro.transactions import Key


class PartitionScheme:
    """Maps record keys to partitions and computes placements."""

    def __init__(
        self,
        partition_of: Callable[[Key], Optional[int]],
        num_partitions: int,
    ):
        if num_partitions < 1:
            raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
        self._partition_of = partition_of
        self.num_partitions = num_partitions
        #: One int object per partition id, handed out by
        #: :meth:`partition` and keyed by the placements, so the
        #: partition table, the selector's statistics and every write
        #: set share it instead of holding a fresh int per sample.
        self._ids = tuple(range(num_partitions))

    def partition(self, key: Key) -> Optional[int]:
        """Partition id of ``key``; None for static replicated tables."""
        partition = self._partition_of(key)
        if partition is None:
            return None
        if not 0 <= partition < self.num_partitions:
            raise ValueError(
                f"key {key!r} mapped to partition {partition}, "
                f"outside [0, {self.num_partitions})"
            )
        return self._ids[partition]

    def partitions_of(self, keys: Iterable[Key]) -> Set[int]:
        """Distinct non-static partitions touched by ``keys``."""
        return {
            partition
            for partition in (self.partition(key) for key in keys)
            if partition is not None
        }

    # -- placements ------------------------------------------------------------

    def range_placement(self, num_sites: int) -> Dict[int, int]:
        """Contiguous blocks of partitions per site.

        Schism reports range partitioning minimizes distributed
        transactions for the paper's YCSB workload (§VI-B1).
        """
        self._check_sites(num_sites)
        block = -(-self.num_partitions // num_sites)  # ceil division
        return {
            partition: min(partition // block, num_sites - 1)
            for partition in self._ids
        }

    def round_robin_placement(self, num_sites: int) -> Dict[int, int]:
        """Partition ``p`` lives at site ``p mod num_sites``."""
        self._check_sites(num_sites)
        return {partition: partition % num_sites for partition in self._ids}

    def single_site_placement(self, site: int = 0) -> Dict[int, int]:
        """Everything mastered at one site (the single-master system)."""
        return {partition: site for partition in self._ids}

    @staticmethod
    def _check_sites(num_sites: int) -> None:
        if num_sites < 1:
            raise ValueError(f"num_sites must be >= 1, got {num_sites}")
