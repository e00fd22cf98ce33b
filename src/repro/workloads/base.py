"""The workload interface driven by simulated clients."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, Optional

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
    mastership by) and produces transactions per client. Workload
    objects may keep shared mutable state (e.g. TPC-C order counters);
    the simulation is single-threaded so no synchronization is needed.
    """

    name: str = "workload"

    @property
    @abstractmethod
    def scheme(self) -> PartitionScheme:
        """The key -> partition mapping for this workload."""

    @abstractmethod
    def new_client_state(self, client_id: int, rng) -> Any:
        """Per-client generator state (affinity region, counters...)."""

    @abstractmethod
    def next_transaction(self, state: Any, rng, now: float) -> ClientTurn:
        """Produce the client's next transaction."""

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

    def client_pool(self, num_clients: int):
        """Aggregated client state for open-loop traffic.

        The default is the always-correct :class:`~repro.workloads.
        openloop.LazyClientPool` (real state objects, created lazily).
        Workloads meant to scale to 100k+ modeled clients override this
        with an array-backed or stateless pool; the override must honor
        the equivalence contract — consume exactly the RNG draws of
        ``new_client_state`` (first touch) + ``next_transaction``.
        """
        from repro.workloads.openloop import LazyClientPool

        return LazyClientPool(self, num_clients)
