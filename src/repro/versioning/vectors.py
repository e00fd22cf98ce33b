"""m-dimensional version vectors (paper §III-A).

In a dynamically mastered system with ``m`` sites:

* each site :math:`S_i` maintains a *site version vector* ``svv_i``
  where ``svv_i[j]`` counts the refresh transactions applied at
  :math:`S_i` for update transactions originating at :math:`S_j`
  (``svv_i[i]`` counts local commits);
* each update transaction ``T`` committing at :math:`S_i` gets a
  *transaction version vector* ``tvv_T`` — its begin vector with
  position ``i`` bumped to the commit sequence number;
* each client session tracks a *client version vector* ``cvv`` used to
  enforce strong-session snapshot isolation.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

#: Interned all-zero tuples by dimension. Every session, recovery pass,
#: and 2PC merge starts from a zero vector; the immutable template is
#: built once per dimension and ``list()``-expanded into each fresh
#: vector, and callers that need an immutable zero snapshot (initial
#: cvv exports, log markers) can share the interned tuple directly.
_ZERO_TUPLES: dict = {}


def zero_tuple(size: int) -> Tuple[int, ...]:
    """The interned all-zero tuple of the given dimension."""
    cached = _ZERO_TUPLES.get(size)
    if cached is None:
        if size < 1:
            raise ValueError(f"version vector dimension must be >= 1, got {size}")
        cached = _ZERO_TUPLES[size] = (0,) * size
    return cached


class VersionVector:
    """A mutable vector of non-negative integers with element-wise ops."""

    __slots__ = ("counts",)

    def __init__(self, values: Iterable[int]):
        self.counts: List[int] = list(values)
        if any(value < 0 for value in self.counts):
            raise ValueError(f"version vector entries must be >= 0: {self.counts}")

    @classmethod
    def zeros(cls, size: int) -> "VersionVector":
        """An all-zero vector of the given dimension.

        Skips ``__init__``'s validation scan — zeros need no checking —
        and expands the interned zero template for the dimension.
        """
        vector = cls.__new__(cls)
        vector.counts = list(zero_tuple(size))
        return vector

    # -- container protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, index: int) -> int:
        return self.counts[index]

    def __setitem__(self, index: int, value: int) -> None:
        if value < 0:
            raise ValueError(f"version vector entries must be >= 0: {value}")
        self.counts[index] = value

    def __iter__(self) -> Iterator[int]:
        return iter(self.counts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, VersionVector):
            return self.counts == other.counts
        return NotImplemented

    def __hash__(self):
        raise TypeError("VersionVector is mutable and unhashable; use to_tuple()")

    def __repr__(self) -> str:
        return f"VersionVector({self.counts})"

    # -- element-wise operations --------------------------------------------

    def copy(self) -> "VersionVector":
        """An independent copy of this vector.

        Skips ``__init__``'s validation scan — the entries were already
        validated when this vector was built (hot path: one copy per
        refresh-delay estimate and per session merge).
        """
        clone = VersionVector.__new__(VersionVector)
        clone.counts = self.counts[:]
        return clone

    def to_tuple(self) -> Tuple[int, ...]:
        """An immutable snapshot of the entries."""
        return tuple(self.counts)

    def dominates(self, other: "VersionVector") -> bool:
        """True if ``self[k] >= other[k]`` for every position ``k``."""
        self._check_dimension(other)
        theirs = other.counts
        index = 0
        for mine in self.counts:
            if mine < theirs[index]:
                return False
            index += 1
        return True

    def element_max(self, other: "VersionVector") -> "VersionVector":
        """New vector holding the per-position maximum.

        Allocates the result; accumulation loops should prefer in-place
        :meth:`merge` into a reused accumulator, which allocates nothing.
        """
        self._check_dimension(other)
        result = VersionVector.__new__(VersionVector)
        result.counts = list(map(max, self.counts, other.counts))
        return result

    def merge(self, other: "VersionVector") -> None:
        """In-place element-wise maximum (advance a session vector)."""
        self._check_dimension(other)
        for index, theirs in enumerate(other.counts):
            if theirs > self.counts[index]:
                self.counts[index] = theirs

    def increment(self, index: int) -> int:
        """Bump position ``index``; returns the new value."""
        self.counts[index] += 1
        return self.counts[index]

    def lag_behind(self, target: "VersionVector") -> int:
        """L1 distance below ``target``: how many updates are missing.

        This is the :math:`\\|\\cdot\\|_1` term of the refresh-delay
        estimate (Equation 5): entries where ``self`` already exceeds
        the target contribute zero.
        """
        self._check_dimension(target)
        lag = 0
        wanted = target.counts
        index = 0
        for have in self.counts:
            missing = wanted[index] - have
            if missing > 0:
                lag += missing
            index += 1
        return lag

    def total(self) -> int:
        """Sum of all entries (total updates reflected)."""
        return sum(self.counts)

    def _check_dimension(self, other: "VersionVector") -> None:
        if len(other.counts) != len(self.counts):
            raise ValueError(
                f"dimension mismatch: {len(self.counts)} vs {len(other.counts)}"
            )


def can_apply_refresh(svv, tvv, origin: int) -> bool:
    """The update application rule (Equation 1).

    A replica with site version vector ``svv`` may apply the refresh
    transaction for an update that committed at site ``origin`` with
    transaction version vector ``tvv`` only when

    * ``svv[k] >= tvv[k]`` for every ``k != origin`` (every transaction
      the update depends on has been applied locally), and
    * ``svv[origin] == tvv[origin] - 1`` (refreshes from the origin are
      applied in exactly their commit order).

    Accepts :class:`VersionVector` or any plain indexable of the same
    dimension (refresh managers pass log records' ``tvv`` tuples
    straight through, avoiding a vector allocation per record).
    """
    have = svv.counts if type(svv) is VersionVector else svv
    want = tvv.counts if type(tvv) is VersionVector else tvv
    if have[origin] != want[origin] - 1:
        return False
    index = 0
    for wanted in want:
        if index != origin and have[index] < wanted:
            return False
        index += 1
    return True


def satisfies_session(svv: VersionVector, cvv: VersionVector) -> bool:
    """Session freshness rule for strong-session SI (paper §III-A).

    A client with session vector ``cvv`` may execute at a site whose
    version vector ``svv`` dominates ``cvv`` — the site reflects every
    update the client has previously observed.
    """
    return svv.dominates(cvv)
