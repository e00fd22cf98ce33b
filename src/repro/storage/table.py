"""Row-oriented in-memory tables indexed by primary key (paper §V-A1).

A table owns the version chains of all its rows in three columns —
``array('H')`` origins (a site index; ``ClusterConfig`` caps
``num_sites`` at 65 535), 4-byte ``array('I')`` seqs (:meth:`Table.install`
refuses a seq outside 1 … 2³²−1), and one 4-byte install counter per
row — laid out as ``max_versions`` slots per row.

A version *is* its stamp ``(origin, seq)``: the site the update
committed at and that site's commit sequence number. Version ``(j, s)``
is visible to a snapshot with begin vector ``b`` iff ``s <= b[j]``, and
the stamp names the writer, so the table stores no value beside it
(the cost model still charges each written key's payload on the wire;
the simulator does not materialise it).

``_rows`` maps a primary key to its row number. The replicas of a
replicated cluster share one such map per table, so the replica group
numbers each row once, in first-touch order (a standalone table: in
creation order), and a site keeps only its columns. A row is present at
a site iff its install counter is non-zero: a site's columns reach the
highest row number it holds, with blank slots (counter 0) for rows only
other replicas hold so far. A partitioned cluster gives each site its
own map, since its sites hold disjoint rows and blank slots would cost
each one columns for rows it never holds.

Version ``k`` of row ``r`` (``k`` = 0 for the row's first version,
stamped ``(0, 0)``) lives in slot ``r * stride + k % stride``, so each
row is a ring: installing over a full chain overwrites its oldest
version, which *is* the pruning to ``max_versions`` — nothing is
appended, shifted or compacted, and no row allocates after it exists. A
row whose counter reads ``n`` retains versions ``max(0, n - stride) ..
n - 1``.

Versions are installed in local application order, which the update
application rule (Equation 1) keeps consistent with the global
dependency order, so the newest *visible* version in install order is
the correct snapshot read.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.storage.record import VersionedRecord

#: The largest commit sequence a 4-byte seq column holds.
MAX_SEQ = 2**32 - 1


class Table:
    """A named collection of versioned rows, indexed by primary key."""

    def __init__(self, name: str, max_versions: int,
                 rows: Optional[Dict[Any, int]] = None):
        self.name = name
        self.max_versions = max_versions
        #: Primary key -> row number, possibly shared with other replicas.
        self._rows: Dict[Any, int] = {} if rows is None else rows
        self._origins = array("H")
        self._seqs = array("I")
        #: Versions ever installed per row, the first (0, 0) included.
        self._installs = array("I")
        #: Reads whose snapshot predates every retained version.
        self.stale_reads = 0
        # A new row's slots: its first version is stamped (0, 0) —
        # visible to every snapshot, and sequence 0 never collides with
        # a commit (site commit sequences start at 1).
        self._blank_origins = array("H", [0] * max_versions)
        self._blank_seqs = array("I", [0] * max_versions)

    def __copy__(self) -> "Table":
        """Another replica of this table: copies of its columns, the
        same row index."""
        replica = Table(self.name, self.max_versions, self._rows)
        replica._origins = array("H", self._origins)
        replica._seqs = array("I", self._seqs)
        replica._installs = array("I", self._installs)
        return replica

    def __len__(self) -> int:
        installs = self._installs
        return len(installs) - installs.count(0)

    def __contains__(self, primary_key: Any) -> bool:
        return self._held(primary_key) is not None

    def __iter__(self) -> Iterator[VersionedRecord]:
        installs = self._installs
        for primary_key, row in self._rows.items():
            if row < len(installs) and installs[row]:
                yield VersionedRecord(self, primary_key, row)

    def _held(self, primary_key: Any) -> Optional[int]:
        """The row number of ``primary_key`` if this table holds it."""
        row = self._rows.get(primary_key)
        installs = self._installs
        return row if row is not None and row < len(installs) and installs[row] else None

    def insert(self, primary_key: Any) -> int:
        """Create a row at version (0, 0); returns its number, raises on
        a duplicate key."""
        rows = self._rows
        row = rows.get(primary_key)
        if row is None:
            row = rows[primary_key] = len(rows)
        installs = self._installs
        if row < len(installs) and installs[row]:
            raise KeyError(f"duplicate primary key {primary_key!r} in table {self.name!r}")
        while len(installs) <= row:
            self._origins.extend(self._blank_origins)
            self._seqs.extend(self._blank_seqs)
            installs.append(0)
        installs[row] = 1
        return row

    def get(self, primary_key: Any) -> Optional[VersionedRecord]:
        """A view of the row for ``primary_key``, or None."""
        row = self._held(primary_key)
        return None if row is None else VersionedRecord(self, primary_key, row)

    def install(self, primary_key: Any, origin: int, seq: int) -> None:
        """Install one committed version, creating the row if absent."""
        if not 0 < seq <= MAX_SEQ:
            raise ValueError(f"commit sequence must be in 1 .. {MAX_SEQ}, got {seq}")
        row = self._rows.get(primary_key)
        installs = self._installs
        installed = installs[row] if row is not None and row < len(installs) else 0
        if not installed:
            row = self.insert(primary_key)
            installed = 1
        stride = self.max_versions
        slot = row * stride + installed % stride
        self._origins[slot] = origin
        self._seqs[slot] = seq
        installs[row] = installed + 1

    def read(self, primary_key: Any, counts) -> Tuple[int, int]:
        """Stamp ``(origin, seq)`` of the newest version visible to a
        snapshot.

        ``counts`` is the begin vector's raw count list. A missing row
        is created at (0, 0) (an insert's read-before-write). If the
        ring has overwritten every visible version (a snapshot older
        than the retained chain), the read is counted stale and returns
        the oldest retained stamp — the engine trades occasional
        slightly-fresh reads for a bounded chain, as the paper's
        four-version default does.
        """
        row = self._rows.get(primary_key)
        installs = self._installs
        installed = installs[row] if row is not None and row < len(installs) else 0
        if not installed:
            self.insert(primary_key)
            return 0, 0
        stride = self.max_versions
        base = row * stride
        oldest = installed - stride if installed > stride else 0
        seqs = self._seqs
        origins = self._origins
        for version in range(installed - 1, oldest - 1, -1):
            slot = base + version % stride
            seq = seqs[slot]
            origin = origins[slot]
            if seq <= counts[origin]:
                return origin, seq
        self.stale_reads += 1
        slot = base + oldest % stride
        return origins[slot], seqs[slot]

    def chain(self, row: int) -> List[Tuple[int, int]]:
        """Row ``row``'s retained ``(origin, seq)`` stamps, oldest first."""
        stride = self.max_versions
        base = row * stride
        installed = self._installs[row]
        return [
            (self._origins[slot], self._seqs[slot])
            for slot in (
                base + version % stride
                for version in range(max(0, installed - stride), installed)
            )
        ]

    def version_count(self) -> int:
        """Total retained versions across all rows (memory footprint proxy)."""
        stride = self.max_versions
        return sum(min(installed, stride) for installed in self._installs)
