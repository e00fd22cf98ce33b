"""Latency attribution: fold critical paths into budgets and blame.

Built on :mod:`repro.obs.causal`: every committed, recorded transaction
of an observed run contributes its critical path, and the report folds
those paths into

* an **aggregate budget** — total milliseconds (and shares) per
  attribution category, summing to the run's end-to-end commit latency;
* **quantile budgets** — what the p50/p95/p99 transaction spent its
  latency on (a small rank window around the nearest-rank transaction,
  so one outlier does not define the tail shape);
* a **blame ranking** — (category, track) pairs ordered by how much of
  the tail they explain ("62% of the p95+ tail is refresh wait at
  site 3");
* **tail exemplars** — the :data:`EXEMPLARS` worst transactions
  rendered as waterfall text;
* **edge summaries** — who the waits were on: lock holders by
  transaction type and lagging refresh origins (read from the
  ``lock_wait`` / ``refresh_wait`` instants), and counts of RPCs,
  CPU-queue waits, remaster chains and 2PC rounds.

Reports serialize to a stable JSON schema (``repro-explain/1``) so two
runs can be diffed offline (``repro explain --diff a.json b.json``);
:func:`diff_reports` refuses malformed or mismatched pairs with a
:class:`AttributionError` rather than a traceback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.causal import CATEGORIES, PathSegment, critical_path, path_categories
from repro.obs.registry import nearest_rank
from repro.obs.tracer import Tracer

__all__ = [
    "SCHEMA",
    "AttributionError",
    "AttributionReport",
    "TxnAttribution",
    "diff_reports",
    "render_waterfall",
]

SCHEMA = "repro-explain/1"

#: Quantiles the budget table reports, besides the overall mean.
BUDGET_QUANTILES = (0.50, 0.95, 0.99)

#: Rank window (each side) averaged around a quantile's nearest rank.
_QUANTILE_WINDOW = 2

#: Worst transactions a report carries as waterfalls.
EXEMPLARS = 3


class AttributionError(ValueError):
    """A malformed or mismatched attribution report."""


@dataclass(slots=True)
class TxnAttribution:
    """One committed transaction's attributed critical path."""

    txn_id: int
    txn_type: str
    begin: float
    latency: float
    categories: Dict[str, float]
    segments: List[PathSegment] = field(repr=False, default_factory=list)

    @property
    def attributed_total(self) -> float:
        return sum(self.categories.values())


@dataclass
class AttributionReport:
    """The latency budget of one observed run."""

    meta: Dict[str, object]
    txns: List[TxnAttribution]
    edge_summary: Dict[str, object] = field(default_factory=dict)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_tracer(cls, tracer: Tracer,
                    meta: Optional[Mapping[str, object]] = None) -> "AttributionReport":
        """Attribute every committed, recorded transaction of a trace."""
        txns: List[TxnAttribution] = []
        for txn_id in sorted(tracer.txns):
            record = tracer.txns[txn_id]
            if not record.recorded or record.latency is None:
                continue
            segments = critical_path(tracer, txn_id)
            txns.append(TxnAttribution(
                txn_id=txn_id,
                txn_type=record.txn_type,
                begin=record.begin,
                latency=record.latency,
                categories=path_categories(segments),
                segments=segments,
            ))
        return cls(
            meta=dict(meta or {}),
            txns=txns,
            edge_summary=summarize_edges(tracer),
        )

    @classmethod
    def from_result(cls, result, seed: Optional[int] = None) -> "AttributionReport":
        """Attribute a :class:`~repro.bench.harness.RunResult`.

        The run must have been observed (``result.obs`` attached and
        enabled); raises :class:`AttributionError` otherwise.
        """
        obs = result.obs
        if obs is None or not obs.enabled:
            raise AttributionError(
                "run was not observed: pass obs=Observability() to run_benchmark"
            )
        meta: Dict[str, object] = {
            "system": result.system_name,
            "workload": result.workload_name,
            "clients": result.num_clients,
            "duration_ms": result.duration_ms,
            "warmup_ms": result.warmup_ms,
        }
        if seed is not None:
            meta["seed"] = seed
        return cls.from_tracer(obs.tracer, meta=meta)

    # -- aggregates ----------------------------------------------------------

    @property
    def total_latency(self) -> float:
        return sum(txn.latency for txn in self.txns)

    def aggregate(self) -> Dict[str, float]:
        """Total milliseconds per category over all attributed txns."""
        totals = {category: 0.0 for category in CATEGORIES}
        for txn in self.txns:
            for category, value in txn.categories.items():
                totals[category] += value
        return totals

    def shares(self) -> Dict[str, float]:
        total = self.total_latency
        if total <= 0:
            return {category: 0.0 for category in CATEGORIES}
        return {
            category: value / total for category, value in self.aggregate().items()
        }

    def coverage(self) -> float:
        """Attributed time over measured latency — ~1.0 by construction."""
        total = self.total_latency
        if total <= 0:
            return 1.0
        return sum(self.aggregate().values()) / total

    def _by_latency(self) -> List[TxnAttribution]:
        return sorted(self.txns, key=lambda txn: (txn.latency, txn.txn_id))

    def quantile_budget(self, q: float) -> Dict[str, object]:
        """Average budget of the txns around the ``q`` latency quantile."""
        ordered = self._by_latency()
        if not ordered:
            return {"latency_ms": 0.0,
                    "categories": {category: 0.0 for category in CATEGORIES}}
        rank = nearest_rank(len(ordered), q)
        lo = max(0, rank - _QUANTILE_WINDOW)
        hi = min(len(ordered), rank + _QUANTILE_WINDOW + 1)
        window = ordered[lo:hi]
        categories = {category: 0.0 for category in CATEGORIES}
        for txn in window:
            for category, value in txn.categories.items():
                categories[category] += value
        size = len(window)
        return {
            "latency_ms": sum(txn.latency for txn in window) / size,
            "categories": {
                category: value / size for category, value in categories.items()
            },
        }

    def budget(self) -> Dict[str, Dict[str, object]]:
        """The attribution table: mean plus the pinned quantiles."""
        count = len(self.txns)
        mean = {
            "latency_ms": self.total_latency / count if count else 0.0,
            "categories": {
                category: value / count if count else 0.0
                for category, value in self.aggregate().items()
            },
        }
        rows = {"mean": mean}
        for q in BUDGET_QUANTILES:
            rows[f"p{int(q * 100)}"] = self.quantile_budget(q)
        return rows

    # -- blame and exemplars -------------------------------------------------

    def blame(self, top: int = 8) -> List[Dict[str, object]]:
        """Rank (category, track) pairs by share of the p95 latency tail."""
        ordered = self._by_latency()
        if not ordered:
            return []
        threshold = ordered[nearest_rank(len(ordered), 0.95)].latency
        tail = [txn for txn in ordered if txn.latency >= threshold]
        totals: Dict[Tuple[str, str], float] = {}
        tail_latency = 0.0
        for txn in tail:
            tail_latency += txn.latency
            for segment in txn.segments:
                key = (segment.category, segment.track)
                totals[key] = totals.get(key, 0.0) + segment.duration
        ranked = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
        return [
            {
                "category": category,
                "track": track or "-",
                "ms": ms,
                "share": ms / tail_latency if tail_latency > 0 else 0.0,
            }
            for (category, track), ms in ranked[:top]
        ]

    def tail_exemplars(self) -> List[TxnAttribution]:
        """The :data:`EXEMPLARS` worst-latency transactions, worst first."""
        return list(reversed(self._by_latency()[-EXEMPLARS:])) if self.txns else []

    def find(self, txn_id: int) -> Optional[TxnAttribution]:
        for txn in self.txns:
            if txn.txn_id == txn_id:
                return txn
        return None

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA,
            "meta": dict(self.meta),
            "txn_count": len(self.txns),
            "total_latency_ms": self.total_latency,
            "coverage": self.coverage(),
            "aggregate": {
                "categories": self.aggregate(),
                "shares": self.shares(),
            },
            "budget": self.budget(),
            "blame": self.blame(),
            "edges": dict(self.edge_summary),
            "exemplars": [
                {
                    "txn_id": txn.txn_id,
                    "txn_type": txn.txn_type,
                    "latency_ms": txn.latency,
                    "waterfall": render_waterfall(txn),
                }
                for txn in self.tail_exemplars()
            ],
        }


#: Span name -> the edge kind it counts as: the span times the whole
#: wait (a CPU queue, the grant closing a remaster chain, a 2PC round).
_SPAN_EDGES = {
    "cpu_queue": "cpu_queue",
    "grant": "remaster",
    "2pc_execute": "2pc_round",
    "2pc_prepare": "2pc_round",
    "2pc_decide": "2pc_round",
}

#: Instants that name who a wait was on; each counts as its own kind.
_INSTANT_EDGES = ("lock_wait", "refresh_wait", "rpc")


def summarize_edges(tracer: Tracer) -> Dict[str, object]:
    """Count a trace's waits by edge kind, and say who they were on.

    Lock blame is keyed by the *holder's* transaction type (who was I
    behind?); refresh blame by the lagging replication origin the
    snapshot waited to apply.
    """
    kinds: Dict[str, int] = {}
    lock_holders: Dict[str, int] = {}
    refresh_origins: Dict[str, int] = {}
    for span in tracer.spans:
        kind = _SPAN_EDGES.get(span.name)
        if kind is not None:
            kinds[kind] = kinds.get(kind, 0) + 1
    for instant in tracer.instants:
        kind = instant.name
        if kind not in _INSTANT_EDGES:
            continue
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind == "lock_wait":
            holder_id = dict(instant.args)["holder"]  # 0: none known
            holder = tracer.txns.get(holder_id) if holder_id else None
            label = holder.txn_type if holder is not None else "(unknown)"
            lock_holders[label] = lock_holders.get(label, 0) + 1
        elif kind == "refresh_wait":
            for origin, _have, _need in dict(instant.args)["lagging"]:
                label = f"site{origin}"
                refresh_origins[label] = refresh_origins.get(label, 0) + 1
    return {
        "kinds": dict(sorted(kinds.items())),
        "lock_blame": dict(sorted(lock_holders.items())),
        "refresh_origins": dict(sorted(refresh_origins.items())),
    }


def render_waterfall(txn: TxnAttribution) -> str:
    """Render one transaction's critical path as waterfall text."""
    header = (
        f"txn {txn.txn_id} ({txn.txn_type})  latency {txn.latency:.3f} ms, "
        f"attributed {txn.attributed_total:.3f} ms"
    )
    if not txn.segments:
        return header + "\n  (no critical path recorded)"
    lines = [header]
    scale = max(segment.duration for segment in txn.segments)
    for segment in txn.segments:
        offset = segment.start - txn.begin
        bar = "#" * max(1, round(24 * segment.duration / scale)) if scale > 0 else ""
        label = segment.span_name or "(unattributed)"
        track = segment.track or "-"
        lines.append(
            f"  {offset:9.3f}  +{segment.duration:8.3f}  "
            f"{segment.category:<15} {track:<9} {label:<15} {bar}"
        )
    return "\n".join(lines)


# -- report diffing (offline, over exported dicts) ---------------------------

#: meta keys two runs must share to be comparable (system may differ —
#: comparing systems on the same workload/seed is the point).
_MATCH_KEYS = ("workload", "seed", "clients", "duration_ms", "warmup_ms")


def validate_report(data: object, label: str = "report") -> Dict[str, object]:
    """Check one exported report dict; raise :class:`AttributionError`."""
    if not isinstance(data, dict):
        raise AttributionError(f"{label}: expected a JSON object, "
                               f"got {type(data).__name__}")
    schema = data.get("schema")
    if schema != SCHEMA:
        raise AttributionError(
            f"{label}: schema {schema!r} is not {SCHEMA!r} "
            f"(re-export with this version's `repro explain --export`)"
        )
    for key in ("meta", "aggregate", "budget", "txn_count"):
        if key not in data:
            raise AttributionError(f"{label}: missing key {key!r}")
    aggregate = data["aggregate"]
    if not isinstance(aggregate, dict) or "categories" not in aggregate:
        raise AttributionError(f"{label}: malformed 'aggregate' section")
    return data


def diff_reports(a: object, b: object) -> Dict[str, object]:
    """Compare two exported budgets; raise on malformed/mismatched pairs.

    Both inputs must validate against ``repro-explain/1`` and agree on
    workload, seed, client count and duration — otherwise the
    comparison would be meaningless and :class:`AttributionError` says
    why. Returns per-category (ms, share) columns and deltas.
    """
    a = validate_report(a, "first report")
    b = validate_report(b, "second report")
    meta_a, meta_b = a["meta"], b["meta"]
    for key in _MATCH_KEYS:
        if meta_a.get(key) != meta_b.get(key):
            raise AttributionError(
                f"mismatched run pair: {key} differs "
                f"({meta_a.get(key)!r} vs {meta_b.get(key)!r}); "
                f"--diff compares two systems on the same workload/seed"
            )
    cats_a = a["aggregate"]["categories"]
    cats_b = b["aggregate"]["categories"]
    shares_a = a["aggregate"].get("shares", {})
    shares_b = b["aggregate"].get("shares", {})
    rows = []
    for category in CATEGORIES:
        ms_a = float(cats_a.get(category, 0.0))
        ms_b = float(cats_b.get(category, 0.0))
        rows.append({
            "category": category,
            "a_ms": ms_a,
            "b_ms": ms_b,
            "delta_ms": ms_b - ms_a,
            "a_share": float(shares_a.get(category, 0.0)),
            "b_share": float(shares_b.get(category, 0.0)),
        })
    return {
        "a": meta_a.get("system", "?"),
        "b": meta_b.get("system", "?"),
        "rows": rows,
        "a_total_ms": float(a.get("total_latency_ms", 0.0)),
        "b_total_ms": float(b.get("total_latency_ms", 0.0)),
        "a_txns": int(a["txn_count"]),
        "b_txns": int(b["txn_count"]),
    }


def budget_rows(report: AttributionReport) -> List[List[object]]:
    """Budget table rows for ``print_table`` (CLI + run report)."""
    budget = report.budget()
    rows: List[List[object]] = []
    for label, entry in budget.items():
        latency = entry["latency_ms"]
        row: List[object] = [label, f"{latency:.3f}"]
        for category in CATEGORIES:
            value = entry["categories"][category]
            share = value / latency if latency > 0 else 0.0
            row.append(f"{share:.1%}")
        rows.append(row)
    return rows


def budget_headers() -> List[str]:
    return ["quantile", "latency ms", *CATEGORIES]


def split_by_windows(
    report: AttributionReport, windows: Sequence[Tuple[float, float]]
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Split the aggregate budget by whether a txn began in a window.

    Used by the chaos driver to attribute availability dips: transactions
    that started while some site was down ("degraded") versus the rest
    ("steady"). Returns two share dicts.
    """
    steady = {category: 0.0 for category in CATEGORIES}
    degraded = {category: 0.0 for category in CATEGORIES}
    steady_total = degraded_total = 0.0
    for txn in report.txns:
        in_window = any(start <= txn.begin < end for start, end in windows)
        bucket = degraded if in_window else steady
        for category, value in txn.categories.items():
            bucket[category] += value
        if in_window:
            degraded_total += txn.latency
        else:
            steady_total += txn.latency
    def _shares(totals, denom):
        if denom <= 0:
            return {category: 0.0 for category in CATEGORIES}
        return {category: value / denom for category, value in totals.items()}
    return _shares(steady, steady_total), _shares(degraded, degraded_total)
