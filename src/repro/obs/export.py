"""Trace exporters: Chrome trace-event JSON, JSON-lines, flame summary.

``to_chrome_trace`` emits the Trace Event Format understood by both
``chrome://tracing`` and https://ui.perfetto.dev — drop the file into
either and every simulated site becomes a process row with one thread
per transaction, so a run's span trees can be inspected visually.
Timestamps are simulated milliseconds converted to the format's
microseconds.

``to_jsonl`` streams the same records as plain JSON lines for ad-hoc
analysis (one ``span`` / ``instant`` / ``txn`` object per line), and
``flame_summary`` renders a top-N self-time table over the span-tree
paths — a text flamegraph. ``load_jsonl`` reads back the recorders'
schema-tagged JSONL exports (the decision ledger's and the SLO
engine's).
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Tuple

from repro.obs.tracer import Tracer

__all__ = [
    "flame_summary",
    "load_jsonl",
    "to_chrome_trace",
    "to_jsonl",
    "write_chrome_trace",
    "write_jsonl",
]

#: tid used for site-level spans that belong to no transaction.
_BACKGROUND_TID = 0
#: pid hosting counter (timeline) tracks.
_METRICS_PID_NAME = "metrics"


def _track_pids(tracer: Tracer, timelines=None) -> Dict[str, int]:
    """Stable track-name -> pid assignment."""
    tracks = {span.track for span in tracer.spans}
    tracks.update(instant.track for instant in tracer.instants)
    tracks.discard("")
    if timelines:
        tracks.add(_METRICS_PID_NAME)
    return {track: pid for pid, track in enumerate(sorted(tracks), start=1)}


def to_chrome_trace(tracer: Tracer, timelines=None) -> Dict[str, object]:
    """Serialize a trace as a Chrome trace-event JSON object.

    ``timelines`` is an optional mapping of name -> Timeline; each
    becomes a counter track. The result is JSON-serializable.
    """
    pids = _track_pids(tracer, timelines)
    events: List[dict] = []
    for track, pid in pids.items():
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": track},
        })
    for span in tracer.spans:
        pid = pids.get(span.track, 0)
        tid = span.txn_id if span.txn_id is not None else _BACKGROUND_TID
        events.append({
            "ph": "X",
            "name": span.name,
            "cat": "sim",
            "pid": pid,
            "tid": tid,
            "ts": span.start * 1000.0,
            "dur": span.duration * 1000.0,
            "args": dict(span.args),
        })
    for instant in tracer.instants:
        pid = pids.get(instant.track, 0)
        tid = instant.txn_id if instant.txn_id is not None else _BACKGROUND_TID
        events.append({
            "ph": "i",
            "name": instant.name,
            "cat": "sim",
            "pid": pid,
            "tid": tid,
            "ts": instant.ts * 1000.0,
            "s": "t",
            "args": dict(instant.args),
        })
    if timelines:
        metrics_pid = pids[_METRICS_PID_NAME]
        for name, timeline in sorted(timelines.items()):
            for when, value in timeline.samples:
                events.append({
                    "ph": "C",
                    "name": name,
                    "pid": metrics_pid,
                    "tid": 0,
                    "ts": when * 1000.0,
                    "args": {"value": value},
                })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer, path: str, timelines=None) -> None:
    with open(path, "w") as handle:
        json.dump(to_chrome_trace(tracer, timelines), handle)


def to_jsonl(tracer: Tracer) -> Iterator[str]:
    """Yield one JSON line per trace record (txns, spans, instants)."""
    for record in sorted(tracer.txns.values(), key=lambda r: (r.begin, r.txn_id)):
        yield json.dumps({
            "type": "txn",
            "txn_id": record.txn_id,
            "txn_type": record.txn_type,
            "client_id": record.client_id,
            "begin": record.begin,
            "end": record.end,
            "committed": record.committed,
            "remastered": record.remastered,
            "distributed": record.distributed,
            "recorded": record.recorded,
        }, sort_keys=True)
    for span in tracer.spans:
        yield json.dumps({
            "type": "span",
            "name": span.name,
            "start": span.start,
            "end": span.end,
            "track": span.track,
            "txn_id": span.txn_id,
            "args": dict(span.args),
        }, sort_keys=True)
    for instant in tracer.instants:
        yield json.dumps({
            "type": "instant",
            "name": instant.name,
            "ts": instant.ts,
            "track": instant.track,
            "txn_id": instant.txn_id,
            "args": dict(instant.args),
        }, sort_keys=True)


def write_jsonl(tracer: Tracer, path: str) -> None:
    with open(path, "w") as handle:
        for line in to_jsonl(tracer):
            handle.write(line + "\n")


#: ``schema -> (key, dropped, kind -> section)``: the sections of one
#: recorder's JSONL export after its header line, and the key that
#: names each record's kind. The SLO engine wraps a record's dict in a
#: ``type`` the reader drops; a ledger record's ``kind`` is part of its
#: ``to_dict`` and stays.
_SECTIONS = {
    "repro-masters/1": ("kind", False, {
        "decision": "decisions", "ownership": "changes",
    }),
    "repro-slo/1": ("type", True, {
        "incident": "incidents", "violation": "violations",
        "span": "spans", "window": "windows",
    }),
}


def load_jsonl(path: str) -> Dict[str, object]:
    """Read a recorder's JSONL export back into plain dicts.

    The first line is the header, and its ``schema`` decides the rest:
    ``{"header", "decisions", "changes"}`` for a ``repro-masters/1``
    ledger (:meth:`~repro.obs.mastery.DecisionLedger.to_jsonl`),
    ``{"header", "incidents", "violations", "spans", "windows"}`` for a
    ``repro-slo/1`` engine (:meth:`~repro.obs.slo.SloEngine.to_jsonl`).
    An empty file, a first line naming no schema, an unknown schema and
    an unknown record kind raise ``ValueError``.
    """
    with open(path) as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    if not records:
        raise ValueError(f"empty file: {path} has no header line")
    header = records[0]
    if "schema" not in header:
        raise ValueError(f"{path} has no header line naming its schema")
    schema = header["schema"]
    if schema not in _SECTIONS:
        raise ValueError(f"unsupported schema {schema!r} in {path}: " + ", ".join(
            f"not a {known} file" for known in _SECTIONS))
    key, dropped, sections = _SECTIONS[schema]
    loaded: Dict[str, object] = {"header": header}
    loaded.update((section, []) for section in sections.values())
    for record in records[1:]:
        kind = record.pop(key) if dropped else record.get(key)
        if kind not in sections:
            raise ValueError(f"unknown record {key} {kind!r} in {path}")
        loaded[sections[kind]].append(record)
    return loaded


#: Rows of :func:`flame_summary`.
FLAME_ROWS = 20


def flame_summary(tracer: Tracer) -> str:
    """The :data:`FLAME_ROWS` span-tree paths of most total time — a
    text flamegraph.

    Paths are rooted at the transaction type (``rmw/route/routing``),
    aggregated across the recorded transactions.
    """
    totals: Dict[str, Tuple[float, int]] = {}
    txn_time = 0.0
    txn_count = 0
    for record in tracer.txns.values():
        if not record.recorded:
            continue
        latency = record.latency
        if latency is None:
            continue
        txn_time += latency
        txn_count += 1
        for root in tracer.span_tree(record.txn_id):
            for path, node in root.walk(record.txn_type):
                total, count = totals.get(path, (0.0, 0))
                totals[path] = (total + node.span.duration, count + 1)
    lines = [f"top spans by total time ({txn_count} txns, "
             f"{txn_time:,.1f} ms end-to-end)"]
    if not totals:
        return lines[0] + "\n  (no spans recorded)"
    ranked = sorted(totals.items(), key=lambda item: -item[1][0])[:FLAME_ROWS]
    width = max(len(path) for path, _ in ranked)
    for path, (total, count) in ranked:
        share = total / txn_time if txn_time > 0 else 0.0
        lines.append(
            f"  {path.ljust(width)}  {total:>10,.1f} ms  {share:>6.1%}  {count:>6}x"
        )
    return "\n".join(lines)
