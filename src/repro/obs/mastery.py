"""Mastering observatory: decision ledger, timelines, convergence.

DynaMast's central claim is that adaptive remastering *converges*: the
weighted benefit heuristic (paper §IV-A, Eq. 8) migrates masters toward
workload locality until single-site execution dominates and remastering
becomes rare. The substrate makes those decisions but — before this
module — could not show them: ``repro explain`` attributes latency,
while nothing recorded *why* a write set moved to site S or how
mastership evolved. The :class:`DecisionLedger` closes that gap:

* every remaster decision is recorded with full provenance — the
  triggering transaction, every candidate site's per-feature scores
  (``f_balance``, ``f_refresh_delay``, ``f_intra_txn``,
  ``f_inter_txn``, and ``f_health`` — the health penalty paid under
  health-aware remastering), the active :class:`~repro.core.strategy.
  StrategyWeights`, the per-site health evidence the decision saw,
  the chosen site, the margin over the runner-up, and the partitions
  moved;
* every mastership transfer is an :class:`OwnershipChange`, from which
  :class:`MastershipTimeline` reconstructs per-partition ownership
  intervals;
* every routed update transaction leaves a constant-size route event,
  feeding windowed remaster-rate series, locality share (the paper's
  one-site-execution claim), ping-pong/churn detection, mastership
  entropy, and **convergence time** — how long after run start (or a
  disruption) the windowed remaster rate falls below a steady-state
  threshold and stays there.

The ledger is an inert recorder: it never touches the simulation
environment, schedules no events, and draws no randomness, so a
ledger-observed run is bit-identical in simulated outcome to an
unobserved one (pinned in ``tests/test_mastery.py``). Without one the
selector's ``ledger`` is None and every hook sits behind a single
``ledger is not None`` test (DESIGN.md §6.6). Exports use schema
:data:`SCHEMA`.
"""

from __future__ import annotations

import json
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "SCHEMA",
    "CandidateScore",
    "DecisionLedger",
    "DecisionRecord",
    "MastershipTimeline",
    "OwnershipChange",
    "OwnershipInterval",
    "RateWindow",
    "recompute_decision",
    "render_decision",
]

#: Export schema identifier (DESIGN.md §6.6).
SCHEMA = "repro-masters/1"

#: Steady-state threshold for convergence: the windowed remastered
#: fraction of routed updates must fall to or below this and stay there
#: (the paper reports <3% steady remastering, §VI-B7).
CONVERGENCE_THRESHOLD = 0.05

#: Width of the remaster-rate windows of the summary, the CSV export and
#: ``repro masters``, simulated ms.
WINDOW_MS = 100.0

#: Tie margin used when recomputing a recorded decision offline —
#: identical to :meth:`repro.core.strategy.RemasterStrategy.decide`.
_TIE_EPS = 1e-12
_TIE_REL = 1e-9


@dataclass(frozen=True, slots=True)
class CandidateScore:
    """One candidate site's recorded feature breakdown."""

    site: int
    f_balance: float
    f_refresh_delay: float
    f_intra_txn: float
    f_inter_txn: float
    benefit: float
    #: Health penalty ``1 - health(site)`` the benefit paid (0.0 for
    #: decisions made without health evidence — the common case).
    f_health: float = 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "site": self.site,
            "f_balance": self.f_balance,
            "f_refresh_delay": self.f_refresh_delay,
            "f_intra_txn": self.f_intra_txn,
            "f_inter_txn": self.f_inter_txn,
            "f_health": self.f_health,
            "benefit": self.benefit,
        }


@dataclass(frozen=True, slots=True)
class DecisionRecord:
    """One remaster decision with full provenance."""

    seq: int
    at_ms: float
    txn_id: int
    client_id: int
    #: Write-set partitions the triggering transaction routed on.
    partitions: Tuple[int, ...]
    #: Every candidate's per-feature scores (index-aligned with the
    #: candidate set, increasing site id).
    scores: Tuple[CandidateScore, ...]
    #: Active StrategyWeights as (balance, delay, intra_txn, inter_txn,
    #: health).
    weights: Tuple[float, float, float, float, float]
    chosen: int
    runner_up: Optional[int]
    margin: float
    #: Sites tied with the top score (empty when the win was clear).
    tied: Tuple[int, ...]
    #: "clear" | "rng" | "lowest-site" (see RemasterStrategy.decide).
    tie_break: str
    #: Candidate sites excluded by failure handling (crashed/suspected).
    excluded: Tuple[int, ...]
    #: Planned moves as (source site, partitions) groups.
    moves: Tuple[Tuple[int, Tuple[int, ...]], ...]
    partitions_moved: int
    #: Per-site detector health scores the decision saw, index-aligned
    #: over all sites (empty when health-aware remastering was off).
    health: Tuple[float, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": "decision",
            "seq": self.seq,
            "at_ms": self.at_ms,
            "txn_id": self.txn_id,
            "client_id": self.client_id,
            "partitions": list(self.partitions),
            "scores": [score.to_dict() for score in self.scores],
            "weights": {
                "balance": self.weights[0],
                "delay": self.weights[1],
                "intra_txn": self.weights[2],
                "inter_txn": self.weights[3],
                "health": self.weights[4],
            },
            "chosen": self.chosen,
            "runner_up": self.runner_up,
            "margin": self.margin,
            "tied": list(self.tied),
            "tie_break": self.tie_break,
            "excluded": list(self.excluded),
            "moves": [[source, list(group)] for source, group in self.moves],
            "partitions_moved": self.partitions_moved,
            "health": list(self.health),
        }


@dataclass(frozen=True, slots=True)
class OwnershipChange:
    """One mastership transfer of one partition."""

    at_ms: float
    partition: int
    source: int
    destination: int
    #: The decision that caused the move (None for moves outside a
    #: recorded decision, which does not happen on current code paths).
    decision_seq: Optional[int]

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": "ownership",
            "at_ms": self.at_ms,
            "partition": self.partition,
            "source": self.source,
            "destination": self.destination,
            "decision_seq": self.decision_seq,
        }


@dataclass(frozen=True, slots=True)
class OwnershipInterval:
    """One partition's ownership by one site over ``[start, end)``.

    ``end`` is None for the final (still-open) interval.
    """

    site: int
    start: float
    end: Optional[float]


@dataclass(frozen=True, slots=True)
class RateWindow:
    """One sliding-window slice of remastering activity."""

    start_ms: float
    #: Update transactions routed in the window.
    routed: int
    #: Routed updates that required at least one move.
    remastered: int
    #: Individual partition moves in the window.
    partitions_moved: int

    @property
    def remaster_fraction(self) -> float:
        """Remastered fraction of routed updates (0.0 when idle)."""
        if self.routed == 0:
            return 0.0
        return self.remastered / self.routed


class _Routes(Sequence):
    """One ``(at_ms, site, moved)`` per routed update, stored as columns.

    A read-only sequence of tuples, built on access; the recording hook
    :meth:`DecisionLedger.route` appends one entry to each column, and
    the ledger's totals and series read the columns directly.
    """

    __slots__ = ("at_ms", "site", "moved")

    def __init__(self):
        self.at_ms = array("d")
        #: Routed-to site (``ClusterConfig`` admits at most 65 535).
        self.site = array("H")
        #: Partitions the route moved; 0 for a local route.
        self.moved = array("I")

    def __len__(self) -> int:
        return len(self.at_ms)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(zip(self.at_ms[index], self.site[index], self.moved[index]))
        return self.at_ms[index], self.site[index], self.moved[index]


class DecisionLedger:
    """Records remaster decisions, ownership changes, and route events.

    Attach to a selector with
    :meth:`~repro.core.site_selector.SiteSelector.attach_ledger`; the
    selector snapshots its initial placement into the ledger and then
    feeds it every routed update, every strategy decision, and every
    mastership transfer. All recording is plain list and column appends
    over already-computed values — no simulation interaction.
    """

    def __init__(self):
        self.initial_placement: Dict[int, int] = {}
        self.installed_at: float = 0.0
        #: Simulated end of the observed run; set by the harness so
        #: windowed series cover the whole run, not just the last event.
        self.run_end_ms: Optional[float] = None
        self.num_sites: int = 0
        self.decisions: List[DecisionRecord] = []
        self.changes: List[OwnershipChange] = []
        #: (at_ms, site, partitions_moved) per routed update txn.
        self.routes = _Routes()

    # -- recording hooks (called from the site selector) --------------------

    def record_placement(self, placement: Dict[int, int], now: float) -> None:
        """Snapshot the initial partition -> master map at attach time."""
        self.initial_placement = dict(placement)
        self.installed_at = now
        if placement:
            self.num_sites = max(self.num_sites, max(placement.values()) + 1)

    def route(self, now: float, site: int, moved: int) -> None:
        """One routed update transaction (``moved`` partitions moved)."""
        routes = self.routes
        routes.at_ms.append(now)
        routes.site.append(site)
        routes.moved.append(moved)
        if site >= self.num_sites:
            self.num_sites = site + 1

    def decision(self, now, txn, partitions, decision, weights,
                 moves, excluded=(), health=()) -> int:
        """Record one strategy decision; returns its ledger sequence id.

        ``decision`` is the :class:`~repro.core.strategy.
        StrategyDecision`; ``moves`` the planned ``(source, partitions)``
        groups; ``excluded`` the candidate sites failure handling
        removed; ``health`` the per-site detector scores the decision
        saw (empty when health-aware remastering is off).
        """
        seq = len(self.decisions)
        moves = tuple((source, tuple(group)) for source, group in moves)
        self.decisions.append(DecisionRecord(
            seq=seq,
            at_ms=now,
            txn_id=txn.txn_id,
            client_id=txn.client_id,
            partitions=tuple(partitions),
            scores=tuple(
                CandidateScore(
                    site=score.site,
                    f_balance=score.balance,
                    f_refresh_delay=score.refresh_delay,
                    f_intra_txn=score.intra_txn,
                    f_inter_txn=score.inter_txn,
                    benefit=score.benefit,
                    f_health=score.health_penalty,
                )
                for score in decision.scores
            ),
            weights=(weights.balance, weights.delay,
                     weights.intra_txn, weights.inter_txn,
                     weights.health),
            chosen=decision.site,
            runner_up=decision.runner_up,
            margin=decision.margin,
            tied=decision.tied,
            tie_break=decision.tie_break,
            excluded=tuple(sorted(excluded)),
            moves=moves,
            partitions_moved=sum(len(group) for _, group in moves),
            health=tuple(health),
        ))
        return seq

    def ownership(self, now: float, partition: int, source: int,
                  destination: int, seq: Optional[int] = None) -> None:
        """Record one partition's mastership transfer."""
        self.changes.append(
            OwnershipChange(now, partition, source, destination, seq)
        )
        if destination >= self.num_sites:
            self.num_sites = destination + 1

    # -- derived structures --------------------------------------------------

    def timeline(self) -> "MastershipTimeline":
        """Reconstruct per-partition ownership intervals."""
        return MastershipTimeline.from_ledger(self)

    def final_placement(self) -> Dict[int, int]:
        """Partition -> master map implied by the recorded history."""
        placement = dict(self.initial_placement)
        for change in self.changes:
            placement[change.partition] = change.destination
        return placement

    # -- totals --------------------------------------------------------------

    @property
    def updates_routed(self) -> int:
        return len(self.routes)

    @property
    def updates_remastered(self) -> int:
        moved = self.routes.moved
        return len(moved) - moved.count(0)

    @property
    def partitions_moved(self) -> int:
        return len(self.changes)

    def locality_share(self) -> float:
        """Fraction of routed update txns needing zero moves.

        The paper's one-site-execution claim: near convergence this
        approaches 1.0 (§VI-B7 reports >97%).
        """
        if not self.routes:
            return 0.0
        return 1.0 - self.updates_remastered / len(self.routes)

    # -- windowed series -----------------------------------------------------

    def rate_series(self, window_ms: float, start: float = 0.0,
                    end: Optional[float] = None) -> List[RateWindow]:
        """Windowed routing/remastering activity over ``[start, end)``.

        ``end`` defaults to the last recorded event (route or ownership
        change), rounded up to a whole window.
        """
        if window_ms <= 0:
            raise ValueError(f"window_ms must be positive, got {window_ms}")
        if end is None:
            end = self.run_end_ms
        if end is None:
            last = 0.0
            if self.routes:
                last = max(last, self.routes.at_ms[-1])
            if self.changes:
                last = max(last, self.changes[-1].at_ms)
            end = last + 1e-9
        if end <= start:
            return []
        buckets = max(1, math.ceil((end - start) / window_ms))
        routed = [0] * buckets
        remastered = [0] * buckets
        moved = [0] * buckets
        for at_ms, txn_moved in zip(self.routes.at_ms, self.routes.moved):
            if start <= at_ms < end:
                index = int((at_ms - start) // window_ms)
                routed[index] += 1
                if txn_moved:
                    remastered[index] += 1
                    moved[index] += txn_moved
        return [
            RateWindow(start + index * window_ms, routed[index],
                       remastered[index], moved[index])
            for index in range(buckets)
        ]

    def convergence_time(
        self, after: float = 0.0, window_ms: float = WINDOW_MS
    ) -> Optional[float]:
        """Milliseconds from ``after`` until remastering goes quiet.

        Convergence is reached at the start of the first window at or
        after ``after`` whose remastered fraction of routed updates is
        <= :data:`CONVERGENCE_THRESHOLD` **and stays** <= for every later window
        through the end of the run (steady state, not a lull). Returns the delay
        from ``after`` to that window start — 0.0 when the very first
        window is already steady — or None if the rate never settles.

        Windows with zero routed updates count as steady (an idle
        system remasters nothing); a run that never routes after
        ``after`` therefore converges immediately.
        """
        windows = [
            window for window in self.rate_series(window_ms)
            if window.start_ms + window_ms > after
        ]
        if not windows:
            return 0.0
        converged_from: Optional[float] = None
        for window in windows:
            if window.remaster_fraction <= CONVERGENCE_THRESHOLD:
                if converged_from is None:
                    converged_from = window.start_ms
            else:
                converged_from = None
        if converged_from is None:
            return None
        return max(0.0, converged_from - after)

    # -- churn / entropy -----------------------------------------------------

    def churn(self) -> Dict[int, int]:
        """Ownership changes per partition."""
        counts: Dict[int, int] = {}
        for change in self.changes:
            counts[change.partition] = counts.get(change.partition, 0) + 1
        return counts

    def ping_pongs(self) -> Dict[int, int]:
        """Partitions bouncing back to a previous master (A->B->A).

        Returns partition -> bounce count, counting every change whose
        destination equals the partition's previous-but-one master —
        the signature of two workloads fighting over a partition.
        """
        history: Dict[int, List[int]] = {}
        bounces: Dict[int, int] = {}
        for partition, master in self.initial_placement.items():
            history[partition] = [master]
        for change in self.changes:
            owners = history.setdefault(change.partition, [change.source])
            if len(owners) >= 2 and change.destination == owners[-2]:
                bounces[change.partition] = bounces.get(change.partition, 0) + 1
            owners.append(change.destination)
        return bounces

    def entropy(self) -> float:
        """Normalized Shannon entropy of the final mastership distribution.

        0.0 when one site masters everything, 1.0 when partitions are
        spread evenly over all sites.
        """
        placement = self.final_placement()
        if not placement or self.num_sites <= 1:
            return 0.0
        counts: Dict[int, int] = {}
        for master in placement.values():
            counts[master] = counts.get(master, 0) + 1
        total = len(placement)
        entropy = 0.0
        for count in counts.values():
            share = count / total
            entropy -= share * math.log(share)
        return entropy / math.log(self.num_sites)

    # -- summary -------------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Scalar mastering metrics; values are plain floats."""
        convergence = self.convergence_time()
        ping_pongs = self.ping_pongs()
        return {
            "decisions": float(len(self.decisions)),
            "updates_routed": float(self.updates_routed),
            "updates_remastered": float(self.updates_remastered),
            "partitions_moved": float(self.partitions_moved),
            "locality_share": round(self.locality_share(), 9),
            "entropy": round(self.entropy(), 9),
            "churn_partitions": float(len(self.churn())),
            "ping_pong_partitions": float(len(ping_pongs)),
            "ping_pong_bounces": float(sum(ping_pongs.values())),
            "convergence_ms": -1.0 if convergence is None else round(convergence, 6),
            "convergence_threshold": CONVERGENCE_THRESHOLD,
            "convergence_window_ms": WINDOW_MS,
        }

    # -- export --------------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per line: header, decisions, ownership changes.

        The header pins the schema, initial placement, and totals, so a
        reader can reconstruct the full timeline without the live
        ledger (:func:`repro.obs.export.load_jsonl` round-trips it).
        """
        lines = [json.dumps({
            "kind": "header",
            "schema": SCHEMA,
            "installed_at_ms": self.installed_at,
            "num_sites": self.num_sites,
            "initial_placement": {
                str(partition): master
                for partition, master in sorted(self.initial_placement.items())
            },
            "updates_routed": self.updates_routed,
            "updates_remastered": self.updates_remastered,
            "partitions_moved": self.partitions_moved,
        }, sort_keys=True)]
        for decision in self.decisions:
            lines.append(json.dumps(decision.to_dict(), sort_keys=True))
        for change in self.changes:
            lines.append(json.dumps(change.to_dict(), sort_keys=True))
        return "\n".join(lines) + "\n"

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_jsonl())

    def to_csv(self) -> str:
        """The windowed remaster-rate series as CSV."""
        lines = ["start_ms,routed,remastered,partitions_moved,remaster_fraction"]
        for window in self.rate_series(WINDOW_MS):
            lines.append(
                f"{window.start_ms:g},{window.routed},{window.remastered},"
                f"{window.partitions_moved},{window.remaster_fraction:.6f}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_csv())

    def to_registry(self, registry) -> None:
        """Fold mastering metrics into a MetricsRegistry for Prometheus.

        Counters for decision/route/move volume, gauges for locality
        share, entropy, churn, and convergence time (-1 when the rate
        never settled), exposed through the registry's standard
        ``to_prometheus``.
        """
        summary = self.summary()
        for name in ("decisions", "updates_routed", "updates_remastered",
                     "partitions_moved"):
            registry.counter(f"repro_masters_{name}_total").inc(int(summary[name]))
        for name in ("locality_share", "entropy", "churn_partitions",
                     "ping_pong_partitions", "ping_pong_bounces",
                     "convergence_ms"):
            registry.gauge(f"repro_masters_{name}").set(summary[name])


class MastershipTimeline:
    """Per-partition ownership intervals reconstructed from a ledger."""

    def __init__(self, intervals: Dict[int, List[OwnershipInterval]]):
        self._intervals = intervals

    @classmethod
    def from_ledger(cls, ledger: DecisionLedger) -> "MastershipTimeline":
        intervals: Dict[int, List[OwnershipInterval]] = {
            partition: [OwnershipInterval(master, ledger.installed_at, None)]
            for partition, master in ledger.initial_placement.items()
        }
        for change in ledger.changes:
            history = intervals.setdefault(
                change.partition,
                [OwnershipInterval(change.source, ledger.installed_at, None)],
            )
            last = history[-1]
            history[-1] = OwnershipInterval(last.site, last.start, change.at_ms)
            history.append(OwnershipInterval(change.destination, change.at_ms, None))
        return cls(intervals)

    def partitions(self) -> List[int]:
        return sorted(self._intervals)

    def intervals(self, partition: int) -> List[OwnershipInterval]:
        return list(self._intervals.get(partition, []))

    def moves_of(self, partition: int) -> int:
        return max(0, len(self._intervals.get(partition, [])) - 1)

    def top_movers(self, top: int = 10) -> List[Tuple[int, int]]:
        """(partition, move count) pairs, most-moved first."""
        movers = [
            (partition, self.moves_of(partition))
            for partition in self._intervals
            if self.moves_of(partition) > 0
        ]
        movers.sort(key=lambda item: (-item[1], item[0]))
        return movers[:top]

    def render(self, partition: int, max_intervals: Optional[int] = None) -> str:
        """One partition's ownership history as a text timeline.

        ``max_intervals`` elides the middle of very churny histories
        (first two and last intervals shown, with an elision count).
        """
        history = self._intervals.get(partition)
        if not history:
            return f"partition {partition}: no recorded ownership"

        def fmt(interval: OwnershipInterval) -> str:
            close = "…" if interval.end is None else f"{interval.end:g}"
            return f"site{interval.site}[{interval.start:g}..{close})"

        if max_intervals is not None and len(history) > max_intervals:
            head = max(1, (max_intervals - 1) // 2)
            tail = max(1, max_intervals - 1 - head)
            elided = len(history) - head - tail
            parts = [fmt(interval) for interval in history[:head]]
            parts.append(f"… ({elided} more)")
            parts.extend(fmt(interval) for interval in history[-tail:])
        else:
            parts = [fmt(interval) for interval in history]
        return f"partition {partition}: " + " -> ".join(parts)


# ---------------------------------------------------------------------------
# Offline recomputation and rendering
# ---------------------------------------------------------------------------


def recompute_decision(record) -> Tuple[int, bool]:
    """Replay a recorded decision from its recorded inputs.

    Recomputes every candidate's benefit as the Eq. 8 linear
    combination of the recorded feature scores and weights, applies the
    recorded tie rule, and returns ``(site, consistent)``:

    * with a clear win (no recorded tie), the recomputed argmax must be
      the recorded chosen site and its benefit must match the recorded
      benefit;
    * with a recorded tie, any tied site is a valid winner, so
      consistency means the recorded chosen site is within the
      recomputed tied set (the rng pick itself is a function of the
      run's seed stream, which an offline reader does not have).

    Accepts a :class:`DecisionRecord` or the dict form from
    :func:`repro.obs.export.load_jsonl`.
    """
    if isinstance(record, DecisionRecord):
        record = record.to_dict()
    weights = record["weights"]
    benefits: Dict[int, float] = {}
    for score in record["scores"]:
        recomputed = (
            weights["balance"] * score["f_balance"]
            - weights["delay"] * score["f_refresh_delay"]
            + weights["intra_txn"] * score["f_intra_txn"]
            + weights["inter_txn"] * score["f_inter_txn"]
            # Health-aware extension; .get keeps pre-extension exports
            # (no health key) recomputable.
            - weights.get("health", 0.0) * score.get("f_health", 0.0)
        )
        if not math.isclose(recomputed, score["benefit"],
                            rel_tol=1e-9, abs_tol=1e-12):
            return score["site"], False
        benefits[score["site"]] = recomputed
    top = max(benefits.values())
    margin = _TIE_EPS + _TIE_REL * abs(top)
    tied = sorted(site for site, benefit in benefits.items()
                  if top - benefit <= margin)
    chosen = record["chosen"]
    if len(tied) > 1:
        return chosen, chosen in tied
    return tied[0], tied[0] == chosen


def render_decision(record) -> str:
    """A decision's provenance waterfall as aligned text.

    One row per candidate with the four weighted feature contributions
    and the benefit; the chosen site and runner-up are marked, and the
    margin/tie line explains how close the call was.
    """
    if isinstance(record, DecisionRecord):
        record = record.to_dict()
    weights = record["weights"]
    health_weight = weights.get("health", 0.0)
    weight_line = (
        f"weights: balance={weights['balance']:g} delay={weights['delay']:g} "
        f"intra={weights['intra_txn']:g} inter={weights['inter_txn']:g}"
    )
    if health_weight:
        weight_line += f" health={health_weight:g}"
    lines = [
        f"decision #{record['seq']} at {record['at_ms']:g} ms — "
        f"txn {record['txn_id']} (client {record['client_id']}) "
        f"wrote partitions {tuple(record['partitions'])}",
        weight_line,
    ]
    header = (f"  {'site':>4}  {'w*f_balance':>14}  {'-w*f_delay':>12}  "
              f"{'w*f_intra':>11}  {'w*f_inter':>11}")
    if health_weight:
        header += f"  {'-w*f_health':>12}"
    header += f"  {'benefit':>14}"
    lines.append(header)
    for score in record["scores"]:
        mark = ""
        if score["site"] == record["chosen"]:
            mark = "  <- chosen"
        elif score["site"] == record.get("runner_up"):
            mark = "  (runner-up)"
        row = (
            f"  {score['site']:>4}"
            f"  {weights['balance'] * score['f_balance']:>14.6g}"
            f"  {-weights['delay'] * score['f_refresh_delay']:>12.6g}"
            f"  {weights['intra_txn'] * score['f_intra_txn']:>11.6g}"
            f"  {weights['inter_txn'] * score['f_inter_txn']:>11.6g}"
        )
        if health_weight:
            row += f"  {-health_weight * score.get('f_health', 0.0):>12.6g}"
        row += f"  {score['benefit']:>14.6g}{mark}"
        lines.append(row)
    tie = record.get("tie_break", "clear")
    if tie == "clear":
        lines.append(f"margin over runner-up: {record['margin']:.6g}")
    else:
        lines.append(
            f"tie between sites {tuple(record['tied'])} resolved by "
            f"{tie} (margin {record['margin']:.6g})"
        )
    if record.get("excluded"):
        lines.append(f"excluded (crashed/suspected): {tuple(record['excluded'])}")
    if record.get("health"):
        lines.append("site health: " + " ".join(
            f"site{index}={value:.3g}"
            for index, value in enumerate(record["health"])
        ))
    moves = ", ".join(
        f"site{source}->{{{', '.join(str(p) for p in group)}}}"
        for source, group in record["moves"]
    )
    lines.append(
        f"moves: {moves or 'none'} ({record['partitions_moved']} partitions)"
    )
    return "\n".join(lines)
