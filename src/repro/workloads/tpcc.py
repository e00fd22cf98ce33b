"""TPC-C subset: New-Order, Payment, Stock-Level (paper §VI-A.2, App. G).

The three transaction types make up the bulk of TPC-C's workload and of
its distributed transactions; the paper evaluates exactly these, with a
45/45/10 mix. Keys are partitioned as the paper's comparators are:

* per warehouse — the warehouse row itself;
* per (warehouse, district) — district row, customers, history,
  orders, new-orders, order-lines;
* per stock chunk — each warehouse's stock split into fixed-size
  chunks so remastering can move stock at sub-warehouse granularity;
* the ``item`` table is static and read-only: replicated everywhere,
  never mastered (partition ``None``).

Cross-warehouse behaviour: a configurable fraction of New-Order
transactions supply some items from a remote warehouse (writing remote
stock), and a fraction of Payments pay for a customer of a remote
warehouse — these are the workload's distributed transactions.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import count
from typing import Dict, List, Optional, Tuple

from repro.core.strategy import StrategyWeights
from repro.partitioning.schemes import PartitionScheme
from repro.sim.config import check_config
from repro.transactions import Key, ScanBlock, Transaction
from repro.workloads.base import ClientTurn, Workload


@dataclass
class TPCCConfig:
    """Scaled-down TPC-C parameters."""

    warehouses: int = 10
    districts_per_warehouse: int = 10
    customers_per_district: int = 300
    #: Customers per customer partition chunk (fine-grained, so a
    #: cross-warehouse Payment remasters one cold slice of customers
    #: rather than a district's whole customer base).
    customer_chunk: int = 30
    #: Catalogue size (paper: 100 000; scaled with the database).
    items: int = 5000
    #: Stock rows per stock partition chunk. Kept small so that
    #: remastering moves stock at fine granularity: a chunk pulled to a
    #: remote site by a cross-warehouse New-Order disturbs only a small
    #: fraction of the home warehouse's subsequent transactions.
    stock_chunk: int = 50
    #: Order lines per New-Order, uniform in [min, max].
    min_order_lines: int = 5
    max_order_lines: int = 15
    #: Fraction of New-Order transactions that include remote stock.
    neworder_remote_fraction: float = 0.10
    #: Fraction of Payments for a remote warehouse's customer.
    payment_remote_fraction: float = 0.15
    #: Transaction mix (must sum to 1).
    neworder_weight: float = 0.45
    payment_weight: float = 0.45
    stocklevel_weight: float = 0.10
    #: Recent orders examined by Stock-Level.
    stocklevel_orders: int = 20

    def __post_init__(self):
        counts = ("warehouses", "districts_per_warehouse",
                  "customers_per_district", "customer_chunk", "items",
                  "stock_chunk", "min_order_lines", "stocklevel_orders")
        fractions = ("neworder_remote_fraction", "payment_remote_fraction")
        check_config(self, (
            *((name, getattr(self, name) >= 1, ">= 1") for name in counts),
            ("min_order_lines", self.min_order_lines <= self.max_order_lines,
             f"<= max_order_lines ({self.max_order_lines})"),
            *((name, 0.0 <= getattr(self, name) <= 1.0, "in [0, 1]")
              for name in fractions),
        ), mix=("neworder_weight", "payment_weight", "stocklevel_weight"))

    @property
    def stock_chunks_per_warehouse(self) -> int:
        return -(-self.items // self.stock_chunk)  # ceil

    @property
    def customer_chunks_per_district(self) -> int:
        return -(-self.customers_per_district // self.customer_chunk)  # ceil

    @property
    def partitions_per_warehouse(self) -> int:
        # warehouse row | district rows + order tables | customer
        # chunks + history | stock chunks
        return (
            1
            + self.districts_per_warehouse
            + self.districts_per_warehouse * self.customer_chunks_per_district
            + self.stock_chunks_per_warehouse
        )

    @property
    def num_partitions(self) -> int:
        return self.warehouses * self.partitions_per_warehouse


class TPCCWorkload(Workload):
    """Generator for the three-transaction TPC-C subset."""

    name = "tpcc"

    def __init__(self, config: Optional[TPCCConfig] = None):
        self.config = config or TPCCConfig()
        self._scheme = PartitionScheme(self._partition_of, self.config.num_partitions)
        #: Next order id per (warehouse, district).
        self._next_order: Dict[Tuple[int, int], int] = {}
        #: Recent order line counts for Stock-Level, per district.
        self._recent_lines: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        self._history_ids = count()
        #: One key object per warehouse, district, customer and stock
        #: record, shared by every transaction that revisits the record
        #: and by the logs, locks and tables behind it. Keys new in each
        #: transaction (orders, order lines, history) and Stock-Level's
        #: scan keys, which nothing keeps, are not shared.
        self._keys: Dict[Key, Key] = {}

    def _shared(self, key: Key) -> Key:
        """The one shared object equal to ``key``."""
        return self._keys.setdefault(key, key)

    # -- partition mapping ----------------------------------------------------------

    def _base_partition(self, warehouse: int) -> int:
        return warehouse * self.config.partitions_per_warehouse

    def _district_partition(self, warehouse: int, district: int) -> int:
        return self._base_partition(warehouse) + 1 + district

    def _customer_partition(self, warehouse: int, district: int, customer: int) -> int:
        """Customers (and payment history) live apart from the hot
        district row, in small chunks, so remastering a remote customer
        for a Payment never moves the district's New-Order traffic and
        disturbs only a thin slice of its other customers."""
        cfg = self.config
        return (
            self._base_partition(warehouse)
            + 1
            + cfg.districts_per_warehouse
            + district * cfg.customer_chunks_per_district
            + customer // cfg.customer_chunk
        )

    def _stock_partition(self, warehouse: int, item: int) -> int:
        cfg = self.config
        return (
            self._base_partition(warehouse)
            + 1
            + cfg.districts_per_warehouse
            + cfg.districts_per_warehouse * cfg.customer_chunks_per_district
            + item // cfg.stock_chunk
        )

    def _partition_of(self, key: Key) -> Optional[int]:
        table, pk = key
        if table == "item":
            return None  # static read-only: replicated everywhere
        if table == "warehouse":
            return self._base_partition(pk)
        if table == "stock":
            warehouse, item = pk
            return self._stock_partition(warehouse, item)
        if table in ("customer", "history"):
            # history pk carries the paying customer's chunk via pk[2].
            return self._customer_partition(pk[0], pk[1], pk[2])
        # district / orders / new_orders / order_line
        return self._district_partition(pk[0], pk[1])

    @property
    def scheme(self) -> PartitionScheme:
        return self._scheme

    def fixed_placement(self, num_sites: int) -> Dict[int, int]:
        """Warehouse partitioning: every warehouse at one site (the
        placement Schism confirms minimizes distributed txns, §VI-B2)."""
        placement = {}
        for warehouse in range(self.config.warehouses):
            site = warehouse % num_sites
            base = self._base_partition(warehouse)
            for offset in range(self.config.partitions_per_warehouse):
                placement[base + offset] = site
        return placement

    def placement_unit_of(self, key: Key) -> Optional[int]:
        """Warehouses are the coordination granule of the partitioned
        comparators: a transaction touching two warehouses is
        distributed for them, one warehouse is local (§VI-B2)."""
        partition = self._partition_of(key)
        if partition is None:
            return None
        warehouse = partition // self.config.partitions_per_warehouse
        return self._base_partition(warehouse)

    def recommended_weights(self) -> StrategyWeights:
        return StrategyWeights.for_tpcc()

    # -- workload interface -----------------------------------------------------------

    def client_pool(self, num_clients: int) -> "TPCCClientPool":
        return TPCCClientPool(self, num_clients)

    def _turn(self, client_id: int, warehouse: int, rng) -> ClientTurn:
        """The next transaction of a client homed at ``warehouse``."""
        cfg = self.config
        point = rng.random()
        if point < cfg.neworder_weight:
            txn = self._make_neworder(client_id, warehouse, rng)
        elif point < cfg.neworder_weight + cfg.payment_weight:
            txn = self._make_payment(client_id, warehouse, rng)
        else:
            txn = self._make_stocklevel(client_id, warehouse, rng)
        return ClientTurn(txn)

    # -- transactions -------------------------------------------------------------------

    def _order_id(self, warehouse: int, district: int) -> int:
        key = (warehouse, district)
        order = self._next_order.get(key, 0)
        self._next_order[key] = order + 1
        return order

    def _make_neworder(self, client_id: int, warehouse: int, rng) -> Transaction:
        cfg = self.config
        district = rng.randrange(cfg.districts_per_warehouse)
        customer = rng.randrange(cfg.customers_per_district)
        lines = rng.randint(cfg.min_order_lines, cfg.max_order_lines)
        remote = rng.random() < cfg.neworder_remote_fraction
        remote_warehouse = None
        if remote and cfg.warehouses > 1:
            remote_warehouse = rng.randrange(cfg.warehouses - 1)
            if remote_warehouse >= warehouse:
                remote_warehouse += 1

        order = self._order_id(warehouse, district)
        items = rng.sample(range(cfg.items), min(lines, cfg.items))
        shared = self._shared
        district_key = shared(("district", (warehouse, district)))
        reads: List[Key] = [
            shared(("warehouse", warehouse)),
            district_key,
            shared(("customer", (warehouse, district, customer))),
        ]
        writes: List[Key] = [
            district_key,
            ("orders", (warehouse, district, order)),
            ("new_orders", (warehouse, district, order)),
        ]
        supply_warehouses: List[int] = []
        for index, item in enumerate(items):
            reads.append(("item", item))
            supplier = warehouse
            if remote_warehouse is not None and index == 0:
                supplier = remote_warehouse
            supply_warehouses.append(supplier)
            stock_key = shared(("stock", (supplier, item)))
            reads.append(stock_key)
            writes.append(stock_key)
            writes.append(("order_line", (warehouse, district, order, index)))
        self._remember_lines(warehouse, district, items, supply_warehouses)
        return Transaction(
            "new_order",
            client_id,
            write_set=tuple(writes),
            read_set=tuple(reads),
            extra_cpu_ms=0.1,
        )

    def _remember_lines(
        self,
        warehouse: int,
        district: int,
        items: List[int],
        suppliers: List[int],
    ) -> None:
        cfg = self.config
        recent = self._recent_lines.setdefault((warehouse, district), [])
        recent.extend(zip(suppliers, items))
        # Keep only what Stock-Level can look back at.
        limit = cfg.stocklevel_orders * cfg.max_order_lines
        if len(recent) > limit:
            del recent[: len(recent) - limit]

    def _make_payment(self, client_id: int, warehouse: int, rng) -> Transaction:
        cfg = self.config
        district = rng.randrange(cfg.districts_per_warehouse)
        customer_warehouse = warehouse
        customer_district = district
        if rng.random() < cfg.payment_remote_fraction and cfg.warehouses > 1:
            customer_warehouse = rng.randrange(cfg.warehouses - 1)
            if customer_warehouse >= warehouse:
                customer_warehouse += 1
            customer_district = rng.randrange(cfg.districts_per_warehouse)
        customer = rng.randrange(cfg.customers_per_district)
        # The history insert lands in the home customer's chunk (pk[2]).
        history = ("history", (warehouse, district, customer, next(self._history_ids)))
        shared = self._shared
        writes = (
            shared(("warehouse", warehouse)),
            shared(("district", (warehouse, district))),
            shared(("customer", (customer_warehouse, customer_district, customer))),
            history,
        )
        reads = writes[:3]
        return Transaction(
            "payment", client_id, write_set=writes, read_set=reads
        )

    def _make_stocklevel(self, client_id: int, warehouse: int, rng) -> Transaction:
        cfg = self.config
        district = rng.randrange(cfg.districts_per_warehouse)
        recent = self._recent_lines.get((warehouse, district), [])
        # Scan blocks are runs of consecutive keys inside one warehouse
        # (the placement unit). The district and order-line keys are
        # the home warehouse's; a stock key is its supplier's, and it
        # always follows a home order line, so remote stock is a block
        # of one that closes the home run before it.
        blocks: List[ScanBlock] = []
        run: List[Key] = [("district", (warehouse, district))]
        seen = set()
        for supplier, item in recent:
            run.append(("order_line", (warehouse, district, supplier, item)))
            if (supplier, item) not in seen:
                seen.add((supplier, item))
                if supplier == warehouse:
                    run.append(("stock", (supplier, item)))
                else:
                    blocks.append(tuple(run))
                    blocks.append((("stock", (supplier, item)),))
                    run = []
        if run:
            blocks.append(tuple(run))
        return Transaction(
            "stock_level", client_id, scan_set=tuple(blocks)
        )


class TPCCClientPool:
    """TPC-C client state in one ``array('q')``: 8 bytes per client.

    A client's home warehouse, -1 until the client's first turn draws
    it; every transaction the client issues runs from that warehouse.
    """

    def __init__(self, workload: TPCCWorkload, num_clients: int):
        if num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {num_clients}")
        self.workload = workload
        self._home = array("q", [-1]) * num_clients

    def turn(self, client_id: int, rng, now: float) -> ClientTurn:
        warehouse = self._home[client_id]
        if warehouse < 0:
            warehouse = self._home[client_id] = rng.randrange(
                self.workload.config.warehouses
            )
        return self.workload._turn(client_id, warehouse, rng)
