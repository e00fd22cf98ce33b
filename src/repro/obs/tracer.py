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
"""

from __future__ import annotations

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

    Every hook is a no-op so the instrumented protocol code costs a
    single attribute lookup and call per hook and the simulation's
    event stream is untouched.
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


class Tracer(NullTracer):
    """Records spans, instants and transaction envelopes."""

    enabled = True

    def __init__(self):
        self.spans: List[SpanRecord] = []
        self.instants: List[InstantRecord] = []
        self.edges: List[EdgeRecord] = []
        self.txns: Dict[int, TxnRecord] = {}
        #: ``txn_id -> spans`` in (start, -end) order, covering the
        #: first ``_indexed`` entries of ``spans`` (see :meth:`spans_of`).
        self._spans_by_txn: Dict[Optional[int], List[SpanRecord]] = {}
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

    def span(self, name: str, start: float, end: float, *,
             track: str = "", txn=None, **args) -> None:
        self.spans.append(SpanRecord(
            name, start, end, track,
            txn.txn_id if txn is not None else None,
            tuple(sorted(args.items())),
        ))

    def instant(self, name: str, ts: float, *,
                track: str = "", txn=None, **args) -> None:
        self.instants.append(InstantRecord(
            name, ts, track,
            txn.txn_id if txn is not None else None,
            tuple(sorted(args.items())),
        ))

    def edge(self, kind: str, ts: float, *,
             txn=None, src_txn=None, track: str = "", **args) -> None:
        self.edges.append(EdgeRecord(
            kind, ts,
            txn.txn_id if txn is not None else None,
            src_txn.txn_id if src_txn is not None else None,
            track,
            tuple(sorted(args.items())),
        ))

    def edges_of(self, txn_id: int) -> List[EdgeRecord]:
        """All causal edges of one transaction, in timestamp order."""
        mine = [e for e in self.edges if e.txn_id == txn_id]
        mine.sort(key=lambda e: (e.ts, e.kind))
        return mine

    # -- reconstruction ------------------------------------------------------

    def spans_of(self, txn_id: int) -> List[SpanRecord]:
        """All spans of one transaction, in start order.

        Served from an index built in one pass over ``spans`` and
        rebuilt only when spans were recorded since, so folding a whole
        trace (one call per transaction) is linear in the trace, not
        quadratic.
        """
        if self._indexed != len(self.spans):
            index: Dict[Optional[int], List[SpanRecord]] = {}
            for span in self.spans:
                index.setdefault(span.txn_id, []).append(span)
            for mine in index.values():
                mine.sort(key=lambda s: (s.start, -s.end))
            self._spans_by_txn = index
            self._indexed = len(self.spans)
        return list(self._spans_by_txn.get(txn_id, ()))

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

    def phase_totals(self, recorded_only: bool = True) -> Dict[str, float]:
        """Total span milliseconds by span name.

        With ``recorded_only`` (the default), only spans of transactions
        the benchmark harness recorded in its Metrics are summed — the
        population whose ``Metrics.breakdown()`` these totals reconcile
        against.
        """
        totals: Dict[str, float] = {}
        for span in self.spans:
            if recorded_only:
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
