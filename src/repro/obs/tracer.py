"""Span-tree tracing over the simulated clock.

A :class:`Tracer` records what happened *inside* every transaction —
routing, release/grant waits, lock waits, execution, 2PC rounds — as
flat span records stamped with simulated time, plus instant events
(remasters, aborts, log deliveries) and per-transaction envelopes.
Span *trees* are reconstructed on demand by interval containment:
spans of one transaction nest strictly (a child runs entirely inside
its parent's interval), so no parent ids need to be threaded through
the protocol code.

The default tracer everywhere is :data:`NULL_TRACER`, whose methods are
all no-ops and which never touches the simulation environment, so an
untraced run is bit-identical to a run before this module existed.

Records are *stored* as parallel columns, one set per record kind
(DESIGN.md §6, "Trace store"): :class:`SpanRecord`,
:class:`InstantRecord`, :class:`EdgeRecord` and :class:`TxnRecord` are
what a reader gets, built on access by ``tracer.spans`` / ``.instants``
/ ``.edges`` / ``.txns``.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "NULL_TRACER",
    "EdgeRecord",
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
    """A point event (remaster, abort, log delivery, ...)."""

    name: str
    ts: float
    track: str
    txn_id: Optional[int]
    args: Tuple[Tuple[str, Any], ...] = ()


@dataclass(frozen=True, slots=True)
class EdgeRecord:
    """One causal edge: *why* a transaction waited at instant ``ts``.

    Edges complement spans: a span says a wait happened, an edge names
    the other party — the holder of the lock we queued on, the lagging
    replication origin a snapshot read waited to apply, the paired RPC,
    the remaster chain, the 2PC round. Kinds in use (DESIGN.md §6.5):
    ``lock_wait``, ``refresh_wait``, ``rpc``, ``remaster``,
    ``2pc_round``, ``cpu_queue``.
    """

    kind: str
    ts: float
    #: The waiting/affected transaction.
    txn_id: Optional[int]
    #: The transaction blamed for the wait (lock holder), or None.
    src_txn_id: Optional[int]
    track: str
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

    def edge(self, kind: str, ts: float, *,
             txn=None, src_txn=None, track: str = "", **args) -> None:
        pass


#: Shared no-op tracer instance (stateless, safe to share globally).
NULL_TRACER = NullTracer()

#: Stands for ``None`` in an id column; no transaction id reaches it.
_NO_ID = -(1 << 63)

#: Shape and transaction-type codes are stored in ``array('H')``.
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


class _Columns(Sequence):
    """One record kind, stored as parallel columns; row ``i`` is record ``i``.

    A read-only sequence of records to everyone outside this module:
    ``len()`` reads a column's length, indexing, slicing and iteration
    build the records they hand out and nothing else. Only the
    :class:`Tracer` hooks append, one entry (or one fixed-size group)
    per column per record (DESIGN.md §6, "Trace store").
    """

    __slots__ = ("_shapes", "_shape", "_times", "_ids", "_vals", "_offsets")

    def __init__(self, shapes: List[tuple]):
        #: ``code -> (name, track, *arg names)``, shared by the three
        #: kinds: what a call site passes identically on every call.
        self._shapes = shapes
        self._shape = array("H")
        #: Timestamps: ``(start, end)`` per span row, ``ts`` otherwise.
        self._times = array("d")
        #: Transaction ids, :data:`_NO_ID` for None: ``txn_id`` per span
        #: and instant row, ``(txn_id, src_txn_id)`` per edge row.
        self._ids = array("q")
        #: Arg values of all rows in call order; a row has as many as
        #: its shape has arg names.
        self._vals: List[Any] = []
        #: Where rows ``0 .. len - 1`` start in ``_vals``: the prefix
        #: sums of their shapes' arg counts, kept for read only and
        #: extended on the first read past its end.
        self._offsets = array("I")

    def __len__(self) -> int:
        return len(self._shape)

    def __getitem__(self, index):
        rows = range(len(self._shape))[index]
        if isinstance(rows, range):
            return [self._record(row) for row in rows]
        return self._record(rows)

    def __iter__(self):
        return map(self._record, range(len(self._shape)))

    def _head(self, row: int):
        """``(name, track, args)`` of one row.

        Args are stored in call order and sorted here, once per read,
        so that a record (and every export of it) comes out the same
        whichever way a call site ordered its keywords.
        """
        name, track, *keys = self._shapes[self._shape[row]]
        offsets = self._offsets
        if row >= len(offsets):
            shapes, shape = self._shapes, self._shape
            done = len(offsets)
            start = offsets[-1] + len(shapes[shape[done - 1]]) - 2 if done else 0
            for code in shape[done:]:
                offsets.append(start)
                start += len(shapes[code]) - 2
        start = offsets[row]
        values = self._vals[start:start + len(keys)]
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


class _Edges(_Columns):
    __slots__ = ()

    def _record(self, row: int) -> EdgeRecord:
        kind, track, args = self._head(row)
        return EdgeRecord(kind, self._times[row], _id(self._ids[2 * row]),
                          _id(self._ids[2 * row + 1]), track, args)


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
        self._ids = array("q")
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
        txn_id = txn.txn_id
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
        self._shapes: List[tuple] = []
        #: ``shape -> code``, the inverse of ``_shapes``.
        self._codes: Dict[tuple, int] = {}
        #: The recorded spans, instants and edges: read-only sequences
        #: of :class:`SpanRecord` / :class:`InstantRecord` /
        #: :class:`EdgeRecord`, in recording order.
        self.spans = _Spans(self._shapes)
        self.instants = _Instants(self._shapes)
        self.edges = _Edges(self._shapes)
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

    def _new_shape(self, shape: tuple) -> int:
        return _intern(self._codes, self._shapes, shape, "shape")

    # The three recording hooks run once per record of a traced run
    # (166 k times on perfbench's chaos-observed); each appends to its
    # columns inline rather than through a shared helper's extra frame.

    def span(self, name: str, start: float, end: float, *,
             track: str = "", txn=None, **args) -> None:
        shape = (name, track, *args)
        code = self._codes.get(shape)
        if code is None:
            code = self._new_shape(shape)
        spans = self.spans
        spans._shape.append(code)
        spans._times.append(start)
        spans._times.append(end)
        spans._ids.append(_NO_ID if txn is None else txn.txn_id)
        if args:
            spans._vals.extend(args.values())

    def instant(self, name: str, ts: float, *,
                track: str = "", txn=None, **args) -> None:
        shape = (name, track, *args)
        code = self._codes.get(shape)
        if code is None:
            code = self._new_shape(shape)
        instants = self.instants
        instants._shape.append(code)
        instants._times.append(ts)
        instants._ids.append(_NO_ID if txn is None else txn.txn_id)
        if args:
            instants._vals.extend(args.values())

    def edge(self, kind: str, ts: float, *,
             txn=None, src_txn=None, track: str = "", **args) -> None:
        shape = (kind, track, *args)
        code = self._codes.get(shape)
        if code is None:
            code = self._new_shape(shape)
        edges = self.edges
        edges._shape.append(code)
        edges._times.append(ts)
        edges._ids.append(_NO_ID if txn is None else txn.txn_id)
        edges._ids.append(_NO_ID if src_txn is None else src_txn.txn_id)
        if args:
            edges._vals.extend(args.values())

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
