"""Partition metadata maintained by the site selector (paper §V-B).

For each partition group the selector stores the current master
location and a readers-writer lock. Routing takes the locks of the
touched partitions in shared mode; remastering upgrades to exclusive
mode, which serializes concurrent remastering of the same partition
while letting unrelated transactions route in parallel.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set

from repro.sim.core import Environment
from repro.sim.resources import RWLock


class PartitionInfo:
    """Metadata for one partition group."""

    __slots__ = ("partition", "master", "lock")

    def __init__(self, partition: int, master: int, env: Environment):
        self.partition = partition
        self.master = master
        self.lock = RWLock(env)


class PartitionTable:
    """The selector's concurrent map: partition -> (master, lock)."""

    def __init__(self, env: Environment, placement: Dict[int, int]):
        self.env = env
        self._infos: Dict[int, PartitionInfo] = {
            partition: PartitionInfo(partition, master, env)
            for partition, master in placement.items()
        }
        #: Flat partition -> master map mirroring ``_infos``. The
        #: strategy looks masters up per co-access pair and the access
        #: statistics per sampled partition; one dict index here
        #: replaces two method frames through :meth:`info`. Kept in
        #: sync by :meth:`set_master` (the only mutator of
        #: ``PartitionInfo.master``).
        self.masters: Dict[int, int] = dict(placement)
        #: Called as ``(partition, old, new)`` just before a master
        #: changes; the access statistics hang their per-site write
        #: totals here (``AccessStatistics.follow_masters``).
        self.on_master_change: Optional[Callable[[int, int, int], None]] = None

    def __len__(self) -> int:
        return len(self._infos)

    def info(self, partition: int) -> PartitionInfo:
        try:
            return self._infos[partition]
        except KeyError:
            raise KeyError(f"unknown partition {partition}") from None

    def master_of(self, partition: int) -> int:
        return self.info(partition).master

    def set_master(self, partition: int, site: int) -> None:
        info = self.info(partition)
        if self.on_master_change is not None and info.master != site:
            self.on_master_change(partition, info.master, site)
        info.master = site
        self.masters[partition] = site

    def masters_of(self, partitions: Iterable[int]) -> Set[int]:
        """Distinct sites mastering the given partitions."""
        return {self.info(partition).master for partition in partitions}

    def group_by_master(self, partitions: Iterable[int]) -> Dict[int, List[int]]:
        """Partition ids grouped by their current master site."""
        groups: Dict[int, List[int]] = {}
        for partition in partitions:
            groups.setdefault(self.info(partition).master, []).append(partition)
        return groups

    def snapshot(self) -> Dict[int, int]:
        """Current partition -> master map (for recovery tests/tools)."""
        return {partition: info.master for partition, info in self._infos.items()}
