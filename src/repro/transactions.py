"""Transaction descriptions shared by workloads, sites, and systems.

A transaction announces its full write set up front — the paper's
system model assumes write sets are known (via reconnaissance queries
where necessary, §II-B1) so that the site selector can master the whole
write set at a single site before execution begins.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain, count
from typing import Any, Dict, Tuple

#: A fully-qualified record key: (table name, primary key).
Key = Tuple[str, Any]

#: The keys one range scan touches inside a single placement unit: an
#: immutable, non-empty sequence — a key tuple or a :class:`KeyRange`.
ScanBlock = Sequence[Key]

#: Ids of the current run's transactions. :func:`restart_txn_ids`
#: starts every run at 1, so a run's ids (identity keys in the tracer
#: and the decision ledger) never depend on the runs before it in the
#: process.
_txn_ids = count(1)


def restart_txn_ids() -> None:
    """Number the transactions created from now on from 1."""
    global _txn_ids
    _txn_ids = count(1)


class KeyRange(Sequence):
    """The keys ``(table, n)`` for ``n`` in ``numbers``, in that order.

    A scan block over contiguous primary keys that costs the same
    whatever its length: routers and the cost model only ask for
    ``len(block)`` and ``block[0]``, which are answered from the range.
    The first *iteration* builds the key tuple once and keeps it, so a
    per-key consumer (LEAP) walks one shared tuple per block instead of
    allocating a key per lookup; nothing else ever builds it. Two
    ranges over the same run are equal and hash alike.
    """

    __slots__ = ("table", "numbers", "_keys")

    def __init__(self, table: str, numbers: range):
        if not numbers:
            raise ValueError(f"a scan block is non-empty, got {numbers!r}")
        self.table = table
        self.numbers = numbers
        self._keys = None

    def __len__(self) -> int:
        return len(self.numbers)

    def _materialised(self) -> Tuple[Key, ...]:
        keys = self._keys
        if keys is None:
            table = self.table
            keys = self._keys = tuple([(table, number) for number in self.numbers])
        return keys

    def __getitem__(self, index):
        if self._keys is None and not isinstance(index, slice):
            return (self.table, self.numbers[index])
        return self._materialised()[index]

    def __iter__(self) -> Iterator[Key]:
        return iter(self._materialised())

    def __contains__(self, key) -> bool:
        return (
            isinstance(key, tuple)
            and len(key) == 2
            and key[0] == self.table
            and key[1] in self.numbers
        )

    def __eq__(self, other):
        if not isinstance(other, KeyRange):
            return NotImplemented
        return self.table == other.table and self.numbers == other.numbers

    def __hash__(self) -> int:
        return hash((self.table, self.numbers))

    def __reduce__(self):
        return KeyRange, (self.table, self.numbers)

    def __repr__(self) -> str:
        return f"KeyRange({self.table!r}, {self.numbers!r})"


@dataclass(slots=True)
class Transaction:
    """One client request.

    ``write_set`` and ``read_set`` are point accesses. ``scan_set``
    holds the keys touched by range scans (cheaper per record) as
    *blocks*: each block is a non-empty immutable key sequence lying
    inside one placement unit (``Workload.placement_unit_of`` is the
    same for all its keys), so a router resolves ``block[0]`` and
    treats the block as a whole. Generators share blocks between
    transactions instead of copying them. A transaction is read-only
    iff its write set is empty.
    """

    txn_type: str
    client_id: int
    write_set: Tuple[Key, ...] = ()
    read_set: Tuple[Key, ...] = ()
    scan_set: Tuple[ScanBlock, ...] = ()
    #: Extra execution CPU beyond per-operation costs (stored-procedure logic).
    extra_cpu_ms: float = 0.0
    txn_id: int = field(default_factory=lambda: next(_txn_ids))
    #: Phase -> accumulated milliseconds, filled in while the txn runs
    #: by the tracer's ``phase`` calls.
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def is_read_only(self) -> bool:
        return not self.write_set

    @property
    def scan_count(self) -> int:
        """Number of scanned keys (what the cost model charges for)."""
        return sum(map(len, self.scan_set))

    def all_keys(self) -> Tuple[Key, ...]:
        """Every key the transaction touches (writes, reads, then the
        scan blocks flattened in order)."""
        return self.write_set + self.read_set + tuple(chain.from_iterable(self.scan_set))


@dataclass(slots=True)
class Outcome:
    """Result of submitting a transaction to a system."""

    committed: bool
    #: True if the site selector had to remaster (DynaMast) or ship data
    #: (LEAP) before this transaction could execute.
    remastered: bool = False
    #: True if the transaction ran as a distributed (multi-site) txn.
    distributed: bool = False
    #: Number of times the transaction was aborted and retried.
    retries: int = 0
    #: Why a non-committed transaction gave up: "conflict" (the legacy
    #: optimistic-routing abort), "timeout", or "site_crash".
    abort_reason: str = ""
