"""Row-oriented views of one record's version chain.

The chains themselves live in their table's columns
(:mod:`repro.storage.table`); no per-record object exists on the hot
path. :class:`VersionedRecord` and :class:`Version` are the inspection
API — built on demand from ``(table, row)`` by ``Table.get``,
``Database.record`` and table iteration, for tests, recovery checks and
examples. A :class:`Version` is its stamp ``(origin, seq)``: two
replicas hold the same version iff they hold the same stamp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

from repro.versioning.vectors import VersionVector


@dataclass(frozen=True, slots=True)
class Version:
    """One committed version of a record, identified by its stamp."""

    origin: int
    seq: int

    def visible_to(self, begin: VersionVector) -> bool:
        """True if a snapshot with begin vector ``begin`` sees this version."""
        return self.seq <= begin[self.origin]


@dataclass(frozen=True, slots=True)
class VersionedRecord:
    """A live view of one row and its bounded chain of committed versions."""

    table: Any
    primary_key: Any
    row: int

    @property
    def key(self) -> Tuple[str, Any]:
        return (self.table.name, self.primary_key)

    def versions(self) -> Tuple[Version, ...]:
        """The retained chain, oldest first."""
        return tuple(Version(*stamped) for stamped in self.table.chain(self.row))

    @property
    def version_count(self) -> int:
        return len(self.table.chain(self.row))

    @property
    def latest(self) -> Version:
        """The most recently applied version (no snapshot filtering)."""
        return self.versions()[-1]

    def read(self, begin: VersionVector) -> Version:
        """The newest version visible to ``begin``, else the oldest
        retained one (the fallback ``Table.read`` counts as stale)."""
        versions = self.versions()
        for version in reversed(versions):
            if version.visible_to(begin):
                return version
        return versions[0]

    def has_visible(self, begin: VersionVector) -> bool:
        """True if some retained version is visible to ``begin``."""
        return any(version.visible_to(begin) for version in self.versions())

    def __repr__(self) -> str:
        return f"<VersionedRecord {self.key!r} x{self.version_count}>"
