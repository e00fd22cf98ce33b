"""The workload interface driven by simulated clients."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.strategy import StrategyWeights
from repro.partitioning.schemes import PartitionScheme
from repro.transactions import Key, Transaction


@dataclass(slots=True)
class ClientTurn:
    """One step of a client: the transaction to run next.

    ``reset_session`` marks the affinity-period boundary where the
    paper replaces a departing client with a fresh one — the driver
    then starts a new session (fresh client version vector).
    """

    txn: Transaction
    reset_session: bool = False


class Workload(ABC):
    """A transaction mix over a keyed dataset.

    A workload owns the partition scheme (what the site selector tracks
    mastership by) and produces transactions per client through its
    :meth:`client_pool`. Workload objects may keep shared mutable state
    (e.g. TPC-C order counters); the simulation is single-threaded so
    no synchronization is needed.
    """

    name: str = "workload"

    @property
    @abstractmethod
    def scheme(self) -> PartitionScheme:
        """The key -> partition mapping for this workload."""

    @abstractmethod
    def client_pool(self, num_clients: int):
        """The generator state of ``num_clients`` clients, ids 0..n-1.

        Returns an object whose ``turn(client_id, rng, now)`` is that
        client's next :class:`ClientTurn`; a client's first turn draws
        its own state (affinity region, home warehouse) before its
        transaction. Closed-loop clients and the open-loop engine both
        draw from one pool per run, so it keeps O(1) machine words per
        client — ``array('q')`` columns, or nothing at all when a
        client is just its id (CONTRIBUTING.md, "Memory-lean workload
        state").
        """

    def fixed_placement(self, num_sites: int) -> Dict[int, int]:
        """The offline placement used by the fixed-mastership systems.

        Defaults to range partitioning; workloads override where the
        paper prescribes something else (warehouse partitioning for
        TPC-C).
        """
        return self.scheme.range_placement(num_sites)

    def placement_unit_of(self, key: Key) -> Optional[int]:
        """The coordination granule of the partitioned comparators.

        Partition-store and multi-master execute transaction branches
        per *placement unit* — the application-level partition their
        offline partitioner assigns to sites (YCSB's 100-key partition,
        TPC-C's warehouse). A transaction spanning units is distributed
        for them, even if the units happen to live at one site; this is
        what the paper's workload modifications are designed to induce
        (§VI-A.2).

        Unit ids are scheme partition ids (a representative partition
        for multi-partition units, e.g. a TPC-C warehouse's base
        partition), so a unit's site is ``placement[unit]``. ``None``
        marks static replicated tables.
        """
        return self.scheme.partition(key)

    def recommended_weights(self) -> StrategyWeights:
        """DynaMast hyperparameters for this workload (Appendix H)."""
        return StrategyWeights()
