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
:class:`InstantRecord` and :class:`EdgeRecord` are what a reader gets,
built on access by ``tracer.spans`` / ``.instants`` / ``.edges``.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
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


class _Columns(Sequence):
    """One record kind, stored as parallel columns; row ``i`` is record ``i``.

    A read-only sequence of records to everyone outside this module:
    ``len()`` reads a column's length, indexing, slicing and iteration
    build the records they hand out and nothing else. Only the
    :class:`Tracer` hooks append, one entry (or one fixed-size group)
    per column per record (DESIGN.md §6, "Trace store").
    """

    __slots__ = ("_shapes", "_shape", "_times", "_ids", "_voff", "_vals")

    def __init__(self, shapes: List[tuple]):
        #: ``code -> (name, track, *arg names)``, shared by the three
        #: kinds: what a call site passes identically on every call.
        self._shapes = shapes
        self._shape = array("I")
        #: Timestamps: ``(start, end)`` per span row, ``ts`` otherwise.
        self._times = array("d")
        #: Transaction ids, :data:`_NO_ID` for None: ``txn_id`` per span
        #: and instant row, ``(txn_id, src_txn_id)`` per edge row.
        self._ids = array("q")
        #: Where each row's arg values start in ``_vals``; how many
        #: there are is the number of arg names in its shape.
        self._voff = array("I")
        self._vals: List[Any] = []

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
        start = self._voff[row]
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
        self.txns: Dict[int, TxnRecord] = {}
        #: ``txn_id -> rows of spans`` in (start, -end) order, covering
        #: the first ``_indexed`` spans (see :meth:`spans_of`).
        self._rows_by_txn: Dict[Optional[int], List[int]] = {}
        self._indexed = 0

    # -- hooks (called from instrumented protocol code) ---------------------

    def txn_begin(self, txn, now: float) -> None:
        self.txns[txn.txn_id] = TxnRecord(
            txn_id=txn.txn_id,
            txn_type=txn.txn_type,
            client_id=txn.client_id,
            begin=now,
        )

    def txn_end(self, txn, outcome, now: float, recorded: bool = True) -> None:
        record = self.txns.get(txn.txn_id)
        if record is None:  # submitted outside the harness's begin hook
            record = TxnRecord(txn.txn_id, txn.txn_type, txn.client_id, now)
            self.txns[txn.txn_id] = record
        record.end = now
        record.committed = outcome.committed
        record.remastered = outcome.remastered
        record.distributed = outcome.distributed
        record.recorded = recorded and outcome.committed
        if not outcome.committed:
            self.instant("abort", now, track="client", txn=txn,
                         txn_type=txn.txn_type)

    def _new_shape(self, shape: tuple) -> int:
        code = self._codes[shape] = len(self._shapes)
        self._shapes.append(shape)
        return code

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
        spans._voff.append(len(spans._vals))
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
        instants._voff.append(len(instants._vals))
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
        edges._voff.append(len(edges._vals))
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
        for span in self.spans:
            if span.txn_id is None:
                continue
            record = self.txns.get(span.txn_id)
            if record is None or not record.recorded:
                continue
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
        return totals

    def recorded_latency_total(self) -> float:
        """Sum of end-to-end latencies over recorded transactions."""
        return sum(
            record.latency or 0.0
            for record in self.txns.values()
            if record.recorded
        )

    def abort_count(self) -> int:
        return sum(
            1 for record in self.txns.values() if record.committed is False
        )


def _contains(outer: SpanRecord, inner: SpanRecord) -> bool:
    """True if ``outer``'s interval contains ``inner``'s (with slack)."""
    eps = 1e-9
    return outer.start <= inner.start + eps and inner.end <= outer.end + eps
