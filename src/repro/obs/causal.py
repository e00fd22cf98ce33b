"""Critical paths over the tracer's spans.

The tracer's spans say *that* a transaction waited, and its
``lock_wait`` / ``refresh_wait`` / ``rpc`` instants say *on whom*
(DESIGN.md §6.5). :func:`critical_path` sweeps a transaction's
``[begin, end]`` interval against its recorded spans and partitions
every simulated millisecond into exactly one attribution category, so
the per-category durations sum to the measured commit latency *by
construction* (the invariant ``repro explain`` and the CI smoke step
assert).

Everything here is pure post-processing over an already-recorded trace:
nothing touches the simulation, so the zero-overhead contract of
:mod:`repro.obs` is unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.obs.tracer import SpanRecord, Tracer

__all__ = [
    "CATEGORIES",
    "SPAN_CATEGORY",
    "PathSegment",
    "critical_path",
    "path_categories",
]

#: Attribution categories, in presentation order. Every instant of a
#: committed transaction's life lands in exactly one of these.
CATEGORIES = (
    "cpu_service",
    "cpu_queue",
    "lock_wait",
    "network",
    "rpc_rounds",
    "refresh_wait",
    "remaster_wait",
    "commit_protocol",
    "other",
)

#: Span name -> attribution category. Innermost-covering-span wins, so
#: e.g. a ``cpu_queue`` sub-span inside ``execute`` takes the queue
#: category while the rest of ``execute`` stays CPU service.
SPAN_CATEGORY: Dict[str, str] = {
    # CPU service: the site actually doing transaction work.
    "begin": "cpu_service",
    "execute": "cpu_service",
    "commit": "cpu_service",
    "branch_execute": "cpu_service",
    "branch_prepare": "cpu_service",
    "branch_commit": "cpu_service",
    "refresh_apply": "cpu_service",
    # Queueing behind a saturated CPU resource.
    "cpu_queue": "cpu_queue",
    # Lock waits: record locks at sites, partition-metadata locks at
    # the selector.
    "lock_wait": "lock_wait",
    "selector_lock": "lock_wait",
    # Wire time.
    "network": "network",
    # The selector's routing round (lookup CPU + decision).
    "route": "rpc_rounds",
    # Remastering: the decision + release/grant protocol.
    "routing": "remaster_wait",
    "release": "remaster_wait",
    "grant": "remaster_wait",
    "release_quiesce": "remaster_wait",
    # Snapshot-freshness blocking on lazy replication.
    "freshness_wait": "refresh_wait",
    # 2PC rounds (coordination, vote collection, uncertainty window).
    "2pc_execute": "commit_protocol",
    "2pc_prepare": "commit_protocol",
    "2pc_decide": "commit_protocol",
}


@dataclass(frozen=True, slots=True)
class PathSegment:
    """One maximal critical-path interval attributed to a category."""

    start: float
    end: float
    category: str
    #: The innermost span covering the interval ("" for gaps).
    span_name: str
    track: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def category_of(span_name: str) -> str:
    return SPAN_CATEGORY.get(span_name, "other")


def critical_path(tracer: Tracer, txn_id: int) -> List[PathSegment]:
    """Partition one transaction's latency into attributed segments.

    The client is closed-loop: from its point of view the transaction
    is a single wait from ``begin`` to ``end``, so the critical path
    *is* that interval — the question is what each slice of it was
    spent on. The sweep walks the union of span boundaries (clamped to
    the envelope) and attributes each elementary slice to the innermost
    covering span's category — latest start wins, earliest end breaks
    ties, which is exactly containment depth for properly nested spans
    and a deterministic pick for the overlapping spans of parallel 2PC
    branches. Slices no span covers become ``other`` (un-instrumented
    queueing, e.g. retry backoff).

    Adjacent same-category/same-span slices are merged. The segment
    durations sum to ``end - begin`` up to float associativity (well
    under the 1e-6 sim-ms bound the tests pin).
    """
    record = tracer.txns.get(txn_id)
    if record is None or record.end is None:
        return []
    begin, end = record.begin, record.end
    if end <= begin:
        return []
    eps = 1e-9
    # Clamp spans to the envelope: crash-severed spans from abandoned
    # attempts may outlive the transaction; the part that overlaps the
    # client's wait still explains that wait.
    spans: List[SpanRecord] = []
    for span in tracer.spans_of(txn_id):
        start = span.start if span.start > begin else begin
        stop = span.end if span.end < end else end
        if stop - start > eps:
            spans.append(SpanRecord(
                span.name, start, stop, span.track, span.txn_id, span.args
            ))
    boundaries = {begin, end}
    for span in spans:
        boundaries.add(span.start)
        boundaries.add(span.end)
    cuts = sorted(boundaries)

    segments: List[PathSegment] = []
    for low, high in zip(cuts, cuts[1:]):
        if high - low <= eps:
            continue
        innermost: Optional[SpanRecord] = None
        for span in spans:
            if span.start <= low + eps and span.end >= high - eps:
                if innermost is None or (span.start, -span.end) > (
                    innermost.start, -innermost.end
                ):
                    innermost = span
        if innermost is None:
            category, name, track = "other", "", ""
        else:
            category = category_of(innermost.name)
            name, track = innermost.name, innermost.track
        previous = segments[-1] if segments else None
        if (
            previous is not None
            and previous.category == category
            and previous.span_name == name
            and previous.track == track
            and abs(previous.end - low) <= eps
        ):
            segments[-1] = PathSegment(previous.start, high, category, name, track)
        else:
            segments.append(PathSegment(low, high, category, name, track))
    return segments


def path_categories(segments: List[PathSegment]) -> Dict[str, float]:
    """Fold a critical path into per-category milliseconds.

    Every category from :data:`CATEGORIES` is present (zero-filled), so
    callers can sum/compare without key checks; the values sum to the
    transaction's latency.
    """
    totals = {category: 0.0 for category in CATEGORIES}
    for segment in segments:
        totals[segment.category] += segment.duration
    return totals
