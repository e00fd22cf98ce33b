"""Span-tree tracing over the simulated clock.

A :class:`Tracer` records what happened *inside* every transaction —
routing, release/grant waits, lock waits, execution, 2PC rounds — as
flat span records stamped with simulated time, plus instant events
(remasters, aborts, who a wait was on) and per-transaction envelopes.
Each wait is recorded once: a span times it, and an instant is added
only where it names a party the span cannot (DESIGN.md §6.5).
Span *trees* are reconstructed on demand by interval containment:
spans of one transaction nest strictly (a child runs entirely inside
its parent's interval), so no parent ids need to be threaded through
the protocol code.

The default tracer everywhere is :data:`NULL_TRACER`, whose methods are
all no-ops and which never touches the simulation environment, so an
untraced run is bit-identical to a run before this module existed.

Records are *stored* as parallel columns, one set per record kind
(DESIGN.md §6, "Trace store"): :class:`SpanRecord`,
:class:`InstantRecord` and :class:`TxnRecord` are what a reader gets,
built on access by ``tracer.spans`` / ``.instants`` / ``.txns``.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "NULL_TRACER",
    "InstantRecord",
    "NullTracer",
    "SpanNode",
    "SpanRecord",
    "Tracer",
    "TxnRecord",
]


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One completed span: a named interval on a track."""

    name: str
    start: float
    end: float
    #: Which component the span ran on (e.g. ``site0``, ``selector``).
    track: str
    #: Owning transaction id, or None for site-level work (refreshes).
    txn_id: Optional[int]
    args: Tuple[Tuple[str, Any], ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True, slots=True)
class InstantRecord:
    """A point event: a remaster, an abort, or who a wait was on — the
    lock holder (``lock_wait``), the lagging replication origins
    (``refresh_wait``), how a remote call resolved (``rpc``)."""

    name: str
    ts: float
    track: str
    txn_id: Optional[int]
    args: Tuple[Tuple[str, Any], ...] = ()


@dataclass(slots=True)
class TxnRecord:
    """The envelope of one traced transaction."""

    txn_id: int
    txn_type: str
    client_id: int
    begin: float
    end: Optional[float] = None
    committed: Optional[bool] = None
    remastered: bool = False
    distributed: bool = False
    #: Whether the benchmark harness counted this txn in its Metrics
    #: (committed after warmup) — reconciliation sums only these.
    recorded: bool = False

    @property
    def latency(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.begin


@dataclass(slots=True)
class SpanNode:
    """One node of a reconstructed span tree."""

    span: SpanRecord
    children: List["SpanNode"] = field(default_factory=list)
    #: True for crash-severed spans that outlived (or never fit) the
    #: transaction envelope; such spans are surfaced as flagged roots
    #: and never adopt in-envelope children.
    orphan: bool = False

    @property
    def name(self) -> str:
        return self.span.name

    @property
    def self_time(self) -> float:
        """Span duration not covered by child spans."""
        return self.span.duration - sum(c.span.duration for c in self.children)

    def walk(self, path: str = ""):
        """Yield ``(path, node)`` pairs depth-first."""
        here = f"{path}/{self.span.name}" if path else self.span.name
        yield here, self
        for child in self.children:
            yield from child.walk(here)


class NullTracer:
    """The do-nothing tracer; the default everywhere.

    Every hook is a no-op and the simulation's event stream is
    untouched. Instrumented code tests ``enabled`` and skips the call,
    so an untraced transaction costs attribute tests, not hook calls.
    """

    enabled: bool = False

    def txn_begin(self, txn, now: float) -> None:
        pass

    def txn_end(self, txn, outcome, now: float, recorded: bool = True) -> None:
        pass

    def span(self, name: str, start: float, end: float, *,
             track: str = "", txn=None, **args) -> None:
        pass

    def instant(self, name: str, ts: float, *,
                track: str = "", txn=None, **args) -> None:
        pass


#: Shared no-op tracer instance (stateless, safe to share globally).
NULL_TRACER = NullTracer()

#: Stands for ``None`` in an id column; no transaction id reaches it.
_NO_ID = -1

#: Ids are stored in ``array('i')``: they restart at 1 in every run.
_MAX_ID = (1 << 31) - 1

#: Shape, transaction-type and arg-string codes are stored in ``array('H')``.
_MAX_CODES = 1 << 16


def _intern(codes: Dict[Any, int], values: List[Any], value, what: str) -> int:
    """Give ``value`` the next code of a 2-byte code column."""
    if len(values) == _MAX_CODES:
        raise ValueError(
            f"cannot trace {what} {value!r}: one tracer holds at most "
            f"{_MAX_CODES} distinct {what}s"
        )
    code = codes[value] = len(values)
    values.append(value)
    return code


def _stored_id(txn) -> int:
    """The id column entry of ``txn``: its id, or :data:`_NO_ID` for None."""
    if txn is None:
        return _NO_ID
    txn_id = txn.txn_id
    if not 0 <= txn_id <= _MAX_ID:
        raise ValueError(
            f"cannot trace transaction id {txn_id!r}: ids are stored in "
            f"4 bytes, from 0 to {_MAX_ID}"
        )
    return txn_id


#: The typed column that holds arg values of exactly this type; any
#: other type goes to an object list.
_TYPECODES = {int: "q", float: "d", str: "H"}


class _StringCodes(dict):
    """``string -> 2-byte code`` of one tracer's arg strings: looking a
    string up interns it. ``values[code]`` is the string."""

    __slots__ = ("values",)

    def __init__(self):
        super().__init__()
        self.values: List[str] = []

    def __missing__(self, value: str) -> int:
        return _intern(self, self.values, value, "arg string")


class _Columns(Sequence):
    """One record kind, stored as parallel columns; row ``i`` is record ``i``.

    A read-only sequence of records to everyone outside this module:
    ``len()`` reads a column's length, indexing, slicing and iteration
    build the records they hand out and nothing else. Only the
    :class:`Tracer` hooks append, one entry (or one fixed-size group)
    per column per record (DESIGN.md §6, "Trace store").
    """

    __slots__ = ("_shapes", "_codes", "_strings", "_args", "_shape", "_times",
                 "_ids", "_ranks", "_counts")

    def __init__(self, shapes: List[tuple], codes: Dict[tuple, int],
                 strings: _StringCodes):
        #: ``code -> (name, track, *arg names)`` and its inverse, shared
        #: by both kinds: what a call site passes identically on
        #: every call.
        self._shapes = shapes
        self._codes = codes
        self._strings = strings
        #: ``shape -> (code, kinds, columns)`` of the shapes this kind
        #: recorded: one column per arg name, holding that arg of the
        #: shape's rows in call order. ``kinds[j]`` is the exact type
        #: ``columns[j]`` holds: ``int`` in ``array('q')``, ``float`` in
        #: ``array('d')``, ``str`` as string codes in ``array('H')``, and
        #: ``object`` (any other type, or a mix) in a list.
        self._args: Dict[tuple, Tuple[int, List[type], list]] = {}
        self._shape = array("H")
        #: Timestamps: ``(start, end)`` per span row, ``ts`` otherwise.
        self._times = array("d")
        #: Transaction ids, one per row, :data:`_NO_ID` for None.
        self._ids = array("i")
        #: Where rows ``0 .. len - 1`` sit in their shape's columns, and
        #: how many rows of each shape that covers: kept for read only
        #: and extended on the first read past its end.
        self._ranks = array("I")
        self._counts: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._shape)

    def __getitem__(self, index):
        rows = range(len(self._shape))[index]
        if isinstance(rows, range):
            return [self._record(row) for row in rows]
        return self._record(rows)

    def __iter__(self):
        return map(self._record, range(len(self._shape)))

    def _store(self, shape: tuple, args: dict) -> None:
        """Append a row's shape code and each arg value to its column.

        A value of another exact type than its column holds (a bool
        among ints, an int among floats), or an int wider than 64 bits,
        turns that column into an object list first. A refused shape or
        arg string leaves every column as it was.
        """
        entry = self._args.get(shape)
        if entry is None:
            entry = self._add(shape, args)
        code, kinds, columns = entry
        if kinds:
            strings = self._strings
            try:
                for kind, column, value in zip(kinds, columns, args.values()):
                    if type(value) is not kind:
                        if kind is not object:
                            column = self._widen(entry, column)
                        column.append(value)
                    elif kind is str:
                        column.append(strings[value])
                    else:
                        try:
                            column.append(value)
                        except OverflowError:  # an int wider than 64 bits
                            self._widen(entry, column).append(value)
            except ValueError:  # the 65 537th arg string: take the row back
                rows = min(map(len, columns))
                for column in columns:
                    if len(column) > rows:
                        column.pop()
                raise
        self._shape.append(code)

    def _add(self, shape: tuple, args: dict) -> tuple:
        """The entry of ``shape``, on its first row in this kind: the
        shape's code, interned once per tracer, and its arg columns,
        typed by that row's values."""
        code = self._codes.get(shape)
        if code is None:
            code = _intern(self._codes, self._shapes, shape, "shape")
        kinds = [type(value) if type(value) in _TYPECODES else object
                 for value in args.values()]
        columns = [[] if kind is object else array(_TYPECODES[kind])
                   for kind in kinds]
        entry = self._args[shape] = (code, kinds, columns)
        return entry

    def _widen(self, entry: tuple, column) -> list:
        """Turn ``column`` of a shape's ``entry`` into an object list."""
        _, kinds, columns = entry
        position = next(j for j, held in enumerate(columns) if held is column)
        if kinds[position] is str:
            column = map(self._strings.values.__getitem__, column)
        columns[position], kinds[position] = list(column), object
        return columns[position]

    def _head(self, row: int):
        """``(name, track, args)`` of one row.

        Args are stored in call order and sorted here, once per read,
        so that a record (and every export of it) comes out the same
        whichever way a call site ordered its keywords.
        """
        shape = self._shapes[self._shape[row]]
        name, track, *keys = shape
        if not keys:
            return name, track, ()
        ranks = self._ranks
        if row >= len(ranks):
            counts = self._counts
            for later in self._shape[len(ranks):]:
                rank = counts.get(later, 0)
                ranks.append(rank)
                counts[later] = rank + 1
        rank = ranks[row]
        _, kinds, columns = self._args[shape]
        strings = self._strings.values
        values = [strings[column[rank]] if kind is str else column[rank]
                  for kind, column in zip(kinds, columns)]
        return name, track, tuple(sorted(zip(keys, values)))

    def _record(self, row: int):
        raise NotImplementedError


def _id(stored: int) -> Optional[int]:
    return None if stored == _NO_ID else stored


class _Spans(_Columns):
    __slots__ = ()

    def _record(self, row: int) -> SpanRecord:
        name, track, args = self._head(row)
        return SpanRecord(name, self._times[2 * row], self._times[2 * row + 1],
                          track, _id(self._ids[row]), args)


class _Instants(_Columns):
    __slots__ = ()

    def _record(self, row: int) -> InstantRecord:
        name, track, args = self._head(row)
        return InstantRecord(name, self._times[row], track,
                             _id(self._ids[row]), args)


# The flag bits of an envelope row.
_ENDED, _COMMITTED, _REMASTERED, _DISTRIBUTED, _RECORDED = 1, 2, 4, 8, 16


class _Txns(Mapping):
    """``txn_id -> TxnRecord``, stored as columns; row ``i`` is envelope ``i``.

    A read-only mapping to everyone outside this module, iterated in
    the order the envelopes were opened; lookups build the
    :class:`TxnRecord` they hand out. ``_slot`` finds a row by id
    offset, not by search, because the open-loop dispatcher begins
    transactions out of id order; ids of one run are dense, so the
    offset column is as long as the rows it indexes.
    """

    __slots__ = ("_ids", "_type", "_types", "_type_codes", "_client",
                 "_begin", "_end", "_flags", "_base", "_slot")

    def __init__(self):
        self._ids = array("i")
        #: Interned transaction types: codes in ``_type``, names in
        #: ``_types``, ``name -> code`` in ``_type_codes``.
        self._type = array("H")
        self._types: List[str] = []
        self._type_codes: Dict[str, int] = {}
        self._client = array("i")
        self._begin = array("d")
        #: End time; meaningful only once the row's ``_ENDED`` bit is set.
        self._end = array("d")
        self._flags = array("B")
        #: Row of transaction ``base + i`` at ``_slot[i]``, −1 for none.
        self._base = 0
        self._slot = array("i")

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self):
        return iter(self._ids)

    def __contains__(self, txn_id) -> bool:
        return self._row(txn_id) >= 0

    def __getitem__(self, txn_id) -> TxnRecord:
        row = self._row(txn_id)
        if row < 0:
            raise KeyError(txn_id)
        flags = self._flags[row]
        ended = flags & _ENDED
        return TxnRecord(
            self._ids[row], self._types[self._type[row]], self._client[row],
            self._begin[row],
            self._end[row] if ended else None,
            bool(flags & _COMMITTED) if ended else None,
            bool(flags & _REMASTERED), bool(flags & _DISTRIBUTED),
            bool(flags & _RECORDED),
        )

    def _row(self, txn_id) -> int:
        try:
            offset = txn_id - self._base
        except TypeError:  # None, for records of no transaction
            return -1
        slot = self._slot
        return slot[offset] if 0 <= offset < len(slot) else -1

    def _open(self, txn, now: float) -> int:
        """Begin ``txn``'s envelope at ``now``, in a new row unless it has one."""
        txn_id = _stored_id(txn)
        code = self._type_codes.get(txn.txn_type)
        if code is None:
            code = _intern(self._type_codes, self._types, txn.txn_type,
                           "transaction type")
        slot = self._slot
        if not slot:
            self._base = txn_id
        offset = txn_id - self._base
        if 0 <= offset < len(slot) and slot[offset] >= 0:
            row = slot[offset]  # begun again: start over in place
            self._type[row] = code
            self._client[row] = txn.client_id
            self._begin[row] = now
            self._end[row] = 0.0
            self._flags[row] = 0
            return row
        row = len(self._ids)
        if offset == len(slot):
            slot.append(row)
        elif offset < 0:
            self._slot = array("i", [row]) + array("i", [-1]) * (-offset - 1) + slot
            self._base = txn_id
        else:
            if offset > len(slot):
                slot.extend(array("i", [-1]) * (offset - len(slot) + 1))
            slot[offset] = row
        self._ids.append(txn_id)
        self._type.append(code)
        self._client.append(txn.client_id)
        self._begin.append(now)
        self._end.append(0.0)
        self._flags.append(0)
        return row


class Tracer(NullTracer):
    """Records spans, instants and transaction envelopes."""

    enabled = True

    def __init__(self):
        # Shapes and arg strings: one table each, shared by both kinds.
        shapes, codes, strings = [], {}, _StringCodes()
        #: The recorded spans and instants: read-only sequences of
        #: :class:`SpanRecord` / :class:`InstantRecord`, in recording order.
        self.spans = _Spans(shapes, codes, strings)
        self.instants = _Instants(shapes, codes, strings)
        #: The transaction envelopes: a read-only mapping
        #: ``txn_id -> TxnRecord``, in the order they were opened.
        self.txns = _Txns()
        #: ``txn_id -> rows of spans`` in (start, -end) order, covering
        #: the first ``_indexed`` spans (see :meth:`spans_of`).
        self._rows_by_txn: Dict[Optional[int], List[int]] = {}
        self._indexed = 0

    # -- hooks (called from instrumented protocol code) ---------------------

    def txn_begin(self, txn, now: float) -> None:
        self.txns._open(txn, now)

    def txn_end(self, txn, outcome, now: float, recorded: bool = True) -> None:
        txns = self.txns
        row = txns._row(txn.txn_id)
        if row < 0:  # submitted outside the harness's begin hook
            row = txns._open(txn, now)
        txns._end[row] = now
        txns._flags[row] = (
            _ENDED
            | (_COMMITTED if outcome.committed else 0)
            | (_REMASTERED if outcome.remastered else 0)
            | (_DISTRIBUTED if outcome.distributed else 0)
            | (_RECORDED if recorded and outcome.committed else 0)
        )
        if not outcome.committed:
            self.instant("abort", now, track="client", txn=txn,
                         txn_type=txn.txn_type)

    # The two recording hooks run once per record of a traced run
    # (180 k times on perfbench's chaos-observed). A refused id, shape
    # or arg string leaves every column as it was: ids are checked
    # before anything is appended, and the times go in last.

    def span(self, name: str, start: float, end: float, *,
             track: str = "", txn=None, **args) -> None:
        txn_id = _stored_id(txn)
        spans = self.spans
        spans._store((name, track, *args), args)
        spans._times.append(start)
        spans._times.append(end)
        spans._ids.append(txn_id)

    def instant(self, name: str, ts: float, *,
                track: str = "", txn=None, **args) -> None:
        txn_id = _stored_id(txn)
        instants = self.instants
        instants._store((name, track, *args), args)
        instants._times.append(ts)
        instants._ids.append(txn_id)

    # -- reconstruction ------------------------------------------------------

    def spans_of(self, txn_id: int) -> List[SpanRecord]:
        """All spans of one transaction, in start order.

        Served from a row index built in one pass over the txn-id
        column and rebuilt only when spans were recorded since, so
        folding a whole trace (one call per transaction) is linear in
        the trace, not quadratic.
        """
        spans = self.spans
        if self._indexed != len(spans):
            index: Dict[Optional[int], List[int]] = {}
            for row, txn in enumerate(spans._ids):
                index.setdefault(_id(txn), []).append(row)
            times = spans._times
            for rows in index.values():
                rows.sort(key=lambda row: (times[2 * row], -times[2 * row + 1]))
            self._rows_by_txn = index
            self._indexed = len(spans)
        return [spans[row] for row in self._rows_by_txn.get(txn_id, ())]

    def span_tree(self, txn_id: int) -> List[SpanNode]:
        """Reconstruct the span tree of one transaction by containment.

        Spans are sorted by (start asc, end desc); a span is a child of
        the innermost open span that fully contains it. Returns the
        forest of root nodes (usually one: the txn envelope span).

        Crash handling: a mid-transaction site crash (or an abandoned
        at-least-once RPC attempt) can leave spans that outlive the
        transaction envelope — a severed lock wait whose release only
        ran when the crash interrupted it, a handler that finished
        after the client's timeout fired and the retry committed
        elsewhere. By raw containment such a span could *adopt* the
        retry's genuine spans as children (mis-parenting) or interleave
        with them as an unmarked sibling (dangling). Spans outside the
        ``[begin, end]`` envelope are therefore excluded from the
        containment stack and returned as trailing roots flagged
        ``orphan=True`` instead.
        """
        record = self.txns.get(txn_id)
        nested: List[SpanRecord] = []
        orphans: List[SpanRecord] = []
        if record is not None and record.end is not None:
            eps = 1e-9
            for span in self.spans_of(txn_id):
                if span.start >= record.begin - eps and span.end <= record.end + eps:
                    nested.append(span)
                else:
                    orphans.append(span)
        else:
            nested = self.spans_of(txn_id)
        roots: List[SpanNode] = []
        stack: List[SpanNode] = []
        for span in nested:
            node = SpanNode(span)
            while stack and not _contains(stack[-1].span, span):
                stack.pop()
            if stack:
                stack[-1].children.append(node)
            else:
                roots.append(node)
            stack.append(node)
        roots.extend(SpanNode(span, orphan=True) for span in orphans)
        return roots

    # -- aggregation ---------------------------------------------------------

    def phase_totals(self) -> Dict[str, float]:
        """Total span milliseconds by span name.

        Only spans of transactions the benchmark harness recorded in its
        Metrics are summed — the population whose ``Metrics.breakdown()``
        these totals reconcile against.
        """
        totals: Dict[str, float] = {}
        txns = self.txns
        for span in self.spans:
            if span.txn_id is None:
                continue
            row = txns._row(span.txn_id)
            if row < 0 or not txns._flags[row] & _RECORDED:
                continue
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
        return totals

    def recorded_latency_total(self) -> float:
        """Sum of end-to-end latencies over recorded transactions."""
        txns = self.txns
        return sum(
            txns._end[row] - txns._begin[row]
            for row, flags in enumerate(txns._flags)
            if flags & _RECORDED
        )

    def abort_count(self) -> int:
        return sum(
            1 for flags in self.txns._flags if flags & (_ENDED | _COMMITTED) == _ENDED
        )


def _contains(outer: SpanRecord, inner: SpanRecord) -> bool:
    """True if ``outer``'s interval contains ``inner``'s (with slack)."""
    eps = 1e-9
    return outer.start <= inner.start + eps and inner.end <= outer.end + eps
