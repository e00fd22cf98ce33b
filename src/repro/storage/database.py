"""The per-site database: tables, snapshot reads, version installation.

The database is deliberately passive — it owns data and locks, while
the data site (:mod:`repro.sites`) owns timing, version vectors, and
the commit protocol. This mirrors the paper's integration of the site
manager, database system and replication manager into one component
(§V-A) while keeping each concern testable on its own.
"""

from __future__ import annotations

from copy import copy
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.sim.core import Environment
from repro.storage.locks import LockTable
from repro.storage.record import VersionedRecord
from repro.storage.table import Table
from repro.versioning.vectors import VersionVector

#: A fully-qualified record key: (table name, primary key).
Key = Tuple[str, Any]


class Database:
    """An in-memory multi-version store for one data site."""

    def __init__(self, env: Environment, max_versions: int = 4,
                 row_index: Optional[Dict[str, Dict[Any, int]]] = None):
        if max_versions < 1:
            raise ValueError(f"max_versions must be >= 1, got {max_versions}")
        self.env = env
        self.max_versions = max_versions
        #: Table name -> primary key -> row number. The sites of a
        #: replicated cluster share one, so each row is numbered once.
        self.row_index: Dict[str, Dict[Any, int]] = (
            {} if row_index is None else row_index
        )
        self.tables: Dict[str, Table] = {}
        self.locks = LockTable(env)

    def __copy__(self) -> "Database":
        """Another replica of this database (recovery from a checkpoint):
        copies of the tables' columns, the same row index, no locks."""
        replica = Database(self.env, self.max_versions, self.row_index)
        replica.tables = {name: copy(table) for name, table in self.tables.items()}
        return replica

    # -- schema -------------------------------------------------------------

    def table(self, name: str) -> Table:
        """Fetch (creating if needed) the table called ``name``."""
        table = self.tables.get(name)
        if table is None:
            table = self.tables[name] = Table(
                name, self.max_versions, self.row_index.setdefault(name, {})
            )
        return table

    def record(self, key: Key) -> Optional[VersionedRecord]:
        """A view of ``key``'s version chain, or None if it has no row."""
        table_name, primary_key = key
        table = self.tables.get(table_name)
        return table.get(primary_key) if table else None

    # -- transactional access -------------------------------------------------

    def read(self, key: Key, begin: VersionVector) -> Tuple[int, int]:
        """Snapshot read of ``key`` at the ``begin`` vector: the visible
        version's ``(origin, seq)`` stamp."""
        table_name, primary_key = key
        table = self.tables.get(table_name)
        if table is None:
            table = self.table(table_name)
        return table.read(primary_key, begin.counts)

    def install_many(self, keys: Iterable[Key], origin: int, seq: int) -> None:
        """Install a transaction's full write set (local commit or
        refresh), every key stamped ``(origin, seq)``."""
        tables = self.tables
        for table_name, primary_key in keys:
            table = tables.get(table_name)
            if table is None:
                table = self.table(table_name)
            table.install(primary_key, origin, seq)

    # -- introspection ----------------------------------------------------------

    @property
    def stale_reads(self) -> int:
        """Reads whose snapshot predated every retained version."""
        return sum(table.stale_reads for table in self.tables.values())

    def row_count(self) -> int:
        return sum(len(table) for table in self.tables.values())

    def version_count(self) -> int:
        return sum(table.version_count() for table in self.tables.values())
