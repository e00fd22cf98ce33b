"""SmallBank: short banking transactions (paper Appendix F).

Users have a checking and a savings account. The mix stresses the
transaction *protocol* rather than transaction logic:

* 45% single-row updates (DepositChecking, TransactSavings,
  WriteCheck) touching one user's account;
* 40% two-row updates (SendPayment, Amalgamate) atomically moving
  money between two users — the transactions that trigger remastering
  in DynaMast, 2PC in the partitioned systems, and shipping in LEAP;
* 15% Balance — a read-only sum of one user's two accounts.

The second user of a two-row update is drawn from partitions near the
first (the same Bernoulli-neighbour scheme as YCSB), producing
learnable co-access correlations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.strategy import StrategyWeights
from repro.partitioning.schemes import PartitionScheme
from repro.sim.config import check_config
from repro.transactions import Transaction
from repro.workloads.base import ClientTurn, Workload


@dataclass
class SmallBankConfig:
    """Scaled SmallBank parameters."""

    users: int = 10000
    users_per_partition: int = 100
    single_update_weight: float = 0.45
    two_row_update_weight: float = 0.40
    balance_weight: float = 0.15
    #: Bernoulli neighbour selection for the payment counterparty.
    neighbour_trials: int = 5
    neighbour_p: float = 0.5
    #: Fraction of account picks drawn from the hotspot. The paper's
    #: SmallBank experiments do not mention skew, so the default is
    #: uniform; setting this > 0 enables the classic SmallBank hotspot
    #: (used by the ablation benchmarks).
    hotspot_fraction: float = 0.0
    #: Number of hot accounts (the first accounts of the key space).
    hotspot_accounts: int = 100

    def __post_init__(self):
        check_config(self, (
            ("users", self.users >= 1, ">= 1"),
            ("users_per_partition", self.users_per_partition >= 1, ">= 1"),
            ("hotspot_accounts", self.hotspot_accounts >= 1, ">= 1"),
            ("neighbour_trials", self.neighbour_trials >= 0, ">= 0"),
            ("neighbour_p", 0.0 <= self.neighbour_p <= 1.0, "in [0, 1]"),
            ("hotspot_fraction", 0.0 <= self.hotspot_fraction <= 1.0, "in [0, 1]"),
        ), mix=("single_update_weight", "two_row_update_weight", "balance_weight"))

    @property
    def num_partitions(self) -> int:
        return -(-self.users // self.users_per_partition)


class SmallBankWorkload(Workload):
    """Generator for the three SmallBank transaction classes."""

    name = "smallbank"

    #: Both of a user's accounts map to the same partition, so
    #: single-user transactions are always single-partition.
    TABLES = ("checking", "savings")

    def __init__(self, config: Optional[SmallBankConfig] = None):
        self.config = config or SmallBankConfig()
        self._scheme = PartitionScheme(
            lambda key: key[1] // self.config.users_per_partition,
            self.config.num_partitions,
        )

    @property
    def scheme(self) -> PartitionScheme:
        return self._scheme

    def recommended_weights(self) -> StrategyWeights:
        return StrategyWeights.for_smallbank()

    def client_pool(self, num_clients: int) -> "SmallBankWorkload":
        """A SmallBank client is nothing but its id, so the workload
        serves every client's turn itself: zero bytes per client."""
        return self

    def _draw_user(self, rng) -> int:
        """An account: from the hotspot with ``hotspot_fraction``,
        uniform otherwise."""
        cfg = self.config
        if cfg.hotspot_accounts > 0 and rng.random() < cfg.hotspot_fraction:
            return rng.randrange(min(cfg.hotspot_accounts, cfg.users))
        return rng.randrange(cfg.users)

    def _counterparty(self, user: int, rng) -> int:
        """A second user: hot with ``hotspot_fraction``, otherwise from
        a partition near the first user's."""
        cfg = self.config
        if cfg.hotspot_accounts > 0 and rng.random() < cfg.hotspot_fraction:
            other = rng.randrange(min(cfg.hotspot_accounts, cfg.users))
            if other == user:
                other = (other + 1) % cfg.users
            return other
        successes = sum(
            rng.random() < cfg.neighbour_p for _ in range(cfg.neighbour_trials)
        )
        offset = successes - (cfg.neighbour_trials + 1) // 2
        partition = (user // cfg.users_per_partition + offset) % cfg.num_partitions
        start = partition * cfg.users_per_partition
        limit = min(cfg.users_per_partition, cfg.users - start)
        other = start + rng.randrange(max(1, limit))
        if other == user:
            other = (other + 1) % cfg.users
        return other

    def turn(self, client_id: int, rng, now: float) -> ClientTurn:
        cfg = self.config
        user = self._draw_user(rng)
        point = rng.random()
        if point < cfg.single_update_weight:
            table = self.TABLES[rng.randrange(2)]
            txn = Transaction(
                "single_update",
                client_id,
                write_set=((table, user),),
                read_set=((table, user),),
            )
        elif point < cfg.single_update_weight + cfg.two_row_update_weight:
            other = self._counterparty(user, rng)
            keys = (("checking", user), ("checking", other))
            txn = Transaction(
                "two_row_update",
                client_id,
                write_set=keys,
                read_set=keys,
            )
        else:
            keys = (("checking", user), ("savings", user))
            txn = Transaction("balance", client_id, read_set=keys)
        return ClientTurn(txn)
