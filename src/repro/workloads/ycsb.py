"""The paper's modified YCSB workload (§VI-A.2, Appendix C).

The key space is divided into partitions of 100 contiguous keys.
Partitions are correlated in ranges through a *partition order*: the
neighbourhood of a partition is defined in order space, so shuffling
the order (the adaptivity experiment, §VI-B5) re-randomizes which
partitions are co-accessed without changing the key space.

Transactions:

* **Scan** — a base partition drawn from the access distribution, then
  all keys of the next ``k`` partitions in order space, ``k`` uniform
  in [2, 10] (200-1000 keys, carried as ``k`` shared per-partition
  blocks). Read-only.
* **RMW** — three keys: one from the base partition and two from
  neighbour partitions selected by offsetting the base with
  ``Binomial(5, 0.5) - 3`` (three successes = the base partition, one
  success = two partitions before, five = two after). Reads and writes
  all three keys.

Clients exhibit access locality: a client draws an affinity base
partition and issues ``affinity_txns`` transactions around it before
being replaced by a new client (fresh session, new affinity base).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import List, Optional

from repro.core.strategy import StrategyWeights
from repro.partitioning.schemes import PartitionScheme
from repro.sim.config import check_config
from repro.sim.rand import ZipfGenerator
from repro.transactions import Key, KeyRange, Transaction
from repro.workloads.base import ClientTurn, Workload

TABLE = "usertable"


@dataclass
class YCSBConfig:
    """Knobs for the modified YCSB workload."""

    #: Number of 100-key partitions (2000 -> 200 000 keys, the scaled
    #: stand-in for the paper's 5 GB database; large enough that client
    #: affinity regions cover only a fraction of the key space, as in
    #: the paper's setup).
    num_partitions: int = 2000
    keys_per_partition: int = 100
    #: Fraction of transactions that are RMWs (the rest are scans).
    rmw_fraction: float = 0.5
    #: Zipfian skew over base partitions; 0 = uniform (paper: 0.75).
    zipf_theta: float = 0.0
    #: Bernoulli neighbour-selection trials and success probability.
    neighbour_trials: int = 5
    neighbour_p: float = 0.5
    #: Scan length bounds, in partitions. ``scan_max_partitions`` may
    #: exceed ``num_partitions``: the scan then wraps around the
    #: partition order and revisits partitions (the 3- and 5-partition
    #: workloads of the test suite rely on it), so that is not rejected.
    scan_min_partitions: int = 2
    scan_max_partitions: int = 10
    #: Transactions a client issues against its affinity region before
    #: being replaced. The paper uses 1000 (~1 second of that client's
    #: activity); at this simulation's per-client rate ~300 txns is the
    #: same one second. The adaptivity experiment drops this to 25.
    affinity_txns: int = 300
    #: Offset range for a client's per-transaction base partition
    #: around its affinity base (keeps locality without pinning).
    affinity_spread: int = 2

    def __post_init__(self):
        check_config(self, (
            ("keys_per_partition", self.keys_per_partition >= 1, ">= 1"),
            ("scan_min_partitions", self.scan_min_partitions >= 1, ">= 1"),
            ("scan_min_partitions",
             self.scan_min_partitions <= self.scan_max_partitions,
             f"<= scan_max_partitions ({self.scan_max_partitions})"),
            ("rmw_fraction", 0.0 <= self.rmw_fraction <= 1.0, "in [0, 1]"),
            ("neighbour_p", 0.0 <= self.neighbour_p <= 1.0, "in [0, 1]"),
            ("neighbour_trials", self.neighbour_trials >= 0, ">= 0"),
            ("affinity_txns", self.affinity_txns >= 1, ">= 1"),
            ("zipf_theta", self.zipf_theta >= 0.0, ">= 0"),
        ))


class YCSBWorkload(Workload):
    """The modified YCSB generator."""

    name = "ycsb"

    def __init__(self, config: Optional[YCSBConfig] = None):
        self.config = config or YCSBConfig()
        cfg = self.config
        self._scheme = PartitionScheme(
            lambda key: key[1] // cfg.keys_per_partition, cfg.num_partitions
        )
        #: order[i] = the partition at position i of correlation space.
        self.order: List[int] = list(range(cfg.num_partitions))
        #: position[p] = where partition p sits in correlation space.
        self.position: List[int] = list(range(cfg.num_partitions))
        self._zipf: Optional[ZipfGenerator] = None
        #: Lazily built per-partition scan blocks. A scan touches every
        #: key of each scanned partition and a partition's keys never
        #: change, so every scan transaction references these same
        #: objects (and LEAP, the one per-key consumer, shares the key
        #: tuple a block builds on its first iteration).
        self._scan_blocks: List[Optional[KeyRange]] = [None] * cfg.num_partitions

    @property
    def scheme(self) -> PartitionScheme:
        return self._scheme

    def recommended_weights(self) -> StrategyWeights:
        return StrategyWeights.for_ycsb()

    # -- correlation structure -------------------------------------------------

    def shuffle_correlations(self, rng) -> None:
        """Re-randomize partition neighbourhoods (adaptivity experiment).

        After the shuffle, the same neighbour-offset algorithm produces
        entirely different co-access patterns, so learned statistics
        become stale and DynaMast must re-learn placements.
        """
        rng.shuffle(self.order)
        for index, partition in enumerate(self.order):
            self.position[partition] = index

    def _neighbour(self, base: int, offset: int) -> int:
        """The partition ``offset`` steps from ``base`` in order space."""
        index = (self.position[base] + offset) % self.config.num_partitions
        return self.order[index]

    def _draw_base(self, rng) -> int:
        cfg = self.config
        if cfg.zipf_theta > 0.0:
            if self._zipf is None or self._zipf._rng is not rng:
                self._zipf = ZipfGenerator(cfg.num_partitions, cfg.zipf_theta, rng)
            return self._zipf.sample()
        return rng.randrange(cfg.num_partitions)

    def _key_in(self, partition: int, rng) -> Key:
        cfg = self.config
        start = partition * cfg.keys_per_partition
        return (TABLE, start + rng.randrange(cfg.keys_per_partition))

    def _make_rmw(self, base: int, client_id: int, rng) -> Transaction:
        cfg = self.config
        random = rng.random
        neighbour_p = cfg.neighbour_p
        trials = cfg.neighbour_trials
        centre = (trials + 1) // 2
        partitions = [base]
        for _ in range(2):
            successes = 0
            for _ in range(trials):
                if random() < neighbour_p:
                    successes += 1
            partitions.append(self._neighbour(base, successes - centre))
        keys = tuple(self._key_in(partition, rng) for partition in partitions)
        return Transaction(
            "rmw", client_id, write_set=keys, read_set=keys
        )

    def _scan_block(self, partition: int) -> KeyRange:
        block = self._scan_blocks[partition]
        if block is None:
            size = self.config.keys_per_partition
            block = self._scan_blocks[partition] = KeyRange(
                TABLE, range(partition * size, (partition + 1) * size)
            )
        return block

    def _make_scan(self, base: int, client_id: int, rng) -> Transaction:
        cfg = self.config
        length = rng.randint(cfg.scan_min_partitions, cfg.scan_max_partitions)
        return Transaction(
            "scan",
            client_id,
            scan_set=tuple(
                self._scan_block(self._neighbour(base, step)) for step in range(length)
            ),
        )

    # -- workload interface -----------------------------------------------------

    def client_pool(self, num_clients: int) -> "YCSBClientPool":
        return YCSBClientPool(self, num_clients)


class YCSBClientPool:
    """YCSB client state in two ``array('q')`` columns: 16 bytes per client.

    ``affinity_base`` (-1 = client not seen yet) and ``remaining``, the
    transactions left in the client's affinity period. A client's first
    turn draws its affinity base; a turn with no transactions left
    models the client departing and a new one taking its place (new
    base, ``reset_session``).
    """

    def __init__(self, workload: YCSBWorkload, num_clients: int):
        if num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {num_clients}")
        self.workload = workload
        self._affinity = array("q", [-1]) * num_clients
        self._remaining = array("q", [0]) * num_clients

    def turn(self, client_id: int, rng, now: float) -> ClientTurn:
        w = self.workload
        cfg = w.config
        reset = False
        if self._affinity[client_id] < 0:
            self._affinity[client_id] = w._draw_base(rng)
            self._remaining[client_id] = cfg.affinity_txns
        if self._remaining[client_id] <= 0:
            # The client departs; a new one takes its place.
            self._affinity[client_id] = w._draw_base(rng)
            self._remaining[client_id] = cfg.affinity_txns
            reset = True
        self._remaining[client_id] -= 1

        spread = rng.randint(-cfg.affinity_spread, cfg.affinity_spread)
        base = w._neighbour(self._affinity[client_id], spread)
        if rng.random() < cfg.rmw_fraction:
            txn = w._make_rmw(base, client_id, rng)
        else:
            txn = w._make_scan(base, client_id, rng)
        return ClientTurn(txn, reset_session=reset)
