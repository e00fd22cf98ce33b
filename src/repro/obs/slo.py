"""Streaming SLO engine, runtime invariant monitors, incident ledger.

`repro slo` turns eight PRs of instrumentation into a verdict: *was the
run healthy, and if not, when did it break, who broke it, and how fast
did it recover?* Three cooperating pieces, all evaluated online in
**simulated** time:

* **Windowed SLO monitors.** Declarative :class:`SloSpec` objectives
  (availability, p99 commit latency, abort rate, goodput/offered
  ratio, remaster rate, admission-shed rate) are evaluated over
  tumbling event-time windows. An alert needs a *burn*: both the
  current window and the aggregate of the last ``long_windows``
  windows must breach (multi-window burn-rate alerting), and an open
  incident only clears after ``clear_windows`` consecutive clean data
  windows (hysteresis). Breaches become :class:`Incident` records with
  onset, clear, peak severity, and blamed sites.

* **Runtime invariant monitors** (Derecho runtime-checking style).
  Properties the test suite only checks post-hoc are re-checked at
  every window boundary against live cluster state: the selector's
  table names real sites, admission-queue conservation
  (``offered == admitted + shed``), epoch-fenced replay monotonicity
  of the site version vectors, and detector/quarantine sanity.
  Single mastership is not sampled here: a site refuses, at the
  instant of the gain, a partition that a live peer still masters.
  Violations become first-class ``kind="invariant"`` incidents —
  never asserts — so a production-style run keeps going and the
  dashboard shows exactly when the protocol misbehaved.

* **Fault correlation.** At :meth:`SloEngine.finalize` the incident
  stream is joined against the injector's ground-truth fault windows
  (:func:`repro.faults.plan.fault_windows`), coalesced into spans:
  per-span detection latency (MTTD), recovery time (MTTR), and run
  totals for true positives / false positives / missed faults.

Determinism contract: the engine is a *passive recorder*, exactly like
the tracer and the mastery ledger. It schedules no simulation events,
consumes no randomness, and mutates no simulated state — it reads the
cluster only through pure accessors (``site.alive``, ``len(queue)``,
``detector.suspected`` — never ``is_suspected``, which re-evaluates
phi and may mutate suspicion state). Unobserved runs pay one
``slo_engine is None`` check per recorded transaction, and an
SLO-observed run's simulated results are bit-identical to an
unobserved one (pinned by tests and the ``slo-smoke`` CI job).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.obs.registry import nearest_rank

SCHEMA = "repro-slo/1"

#: Metric keys an :class:`SloSpec` may evaluate.
METRICS = (
    "availability", "abort_rate", "p99_latency_ms",
    "goodput_ratio", "shed_rate", "remaster_rate", "site_liveness",
)

#: Incidents with onset within this long after a fault span ends are
#: still attributed to it (recovery tail), not counted false positive.
GRACE_MS = 2000.0

#: Ground-truth fault windows closer together than this merge into one
#: span — a flapping site is one outage, not eight.
MERGE_GAP_MS = 1000.0


@dataclass(frozen=True)
class SloSpec:
    """One declarative service-level objective.

    Exactly one of ``target`` (absolute threshold) or
    ``baseline_factor`` (relative: threshold = ``max(floor, factor *
    median of the first ``baseline_windows`` healthy data windows)``)
    must be given. ``bound`` says which side of the threshold is bad.
    A window only counts as evidence when it holds at least
    ``min_samples`` samples of the metric's denominator — small
    windows neither breach nor clear.
    """

    name: str
    metric: str
    bound: str = "upper"
    target: Optional[float] = None
    baseline_factor: Optional[float] = None
    floor: float = 0.0
    baseline_windows: int = 4
    long_windows: int = 4
    clear_windows: int = 2
    min_samples: int = 5
    description: str = ""

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ValueError(
                f"unknown SLO metric {self.metric!r}; expected one of {METRICS}"
            )
        if self.bound not in ("upper", "lower"):
            raise ValueError(f"bound must be 'upper' or 'lower', got {self.bound!r}")
        if (self.target is None) == (self.baseline_factor is None):
            raise ValueError(
                f"SLO {self.name!r} needs exactly one of target / baseline_factor"
            )
        if self.long_windows < 1 or self.clear_windows < 1 or self.min_samples < 1:
            raise ValueError(
                f"SLO {self.name!r}: window counts and min_samples must be >= 1"
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name, "metric": self.metric, "bound": self.bound,
            "target": self.target, "baseline_factor": self.baseline_factor,
            "floor": self.floor, "baseline_windows": self.baseline_windows,
            "long_windows": self.long_windows, "clear_windows": self.clear_windows,
            "min_samples": self.min_samples,
        }


#: The stock objectives `repro slo` / `repro chaos --slo` evaluate.
#: Absolute targets guard the objectives with natural scales;
#: latency/remaster objectives self-calibrate against the run's own
#: healthy baseline (first ``baseline_windows`` data windows), with a
#: floor so a sub-millisecond baseline cannot make noise alertable.
#: The goodput/shed objectives only produce data on open-loop runs
#: (closed-loop runs have no offered-load denominator).
DEFAULT_SLOS: Tuple[SloSpec, ...] = (
    SloSpec("availability", metric="availability", bound="lower", target=0.75,
            description="committed / (committed + aborted) per window"),
    SloSpec("abort_rate", metric="abort_rate", bound="upper", target=0.25,
            description="aborted / (committed + aborted) per window"),
    SloSpec("p99_commit_latency", metric="p99_latency_ms", bound="upper",
            baseline_factor=3.0, floor=5.0,
            description="p99 commit latency (ms) vs 3x healthy baseline"),
    SloSpec("goodput_ratio", metric="goodput_ratio", bound="lower", target=0.5,
            description="commits / offered arrivals per window (open loop)"),
    SloSpec("shed_rate", metric="shed_rate", bound="upper", target=0.1,
            description="shed / offered arrivals per window (open loop)"),
    SloSpec("remaster_rate", metric="remaster_rate", bound="upper",
            baseline_factor=4.0, floor=0.25,
            description="remastered / committed per window vs 4x baseline"),
    # A crashed replica is an incident even when failover is so fast
    # the service-level objectives never blip (the paper's fast-
    # failover story): full replica liveness is itself an objective.
    # min_samples=1 (the sample count is the site count) and single-
    # window burn/clear — site death is not noise.
    SloSpec("site_liveness", metric="site_liveness", bound="lower", target=1.0,
            long_windows=1, clear_windows=1, min_samples=1,
            description="fraction of data sites alive at window close"),
)


@dataclass
class Incident:
    """One contiguous objective breach or invariant violation."""

    objective: str
    kind: str = "slo"  # "slo" | "invariant"
    onset_ms: float = 0.0
    #: ``None`` means still open at end of run.
    clear_ms: Optional[float] = None
    threshold: float = 0.0
    peak_value: float = 0.0
    #: Breach magnitude at the worst window: value/threshold for upper
    #: bounds, threshold/value for lower bounds (capped at 1000).
    peak_severity: float = 0.0
    blamed_sites: Tuple[int, ...] = ()
    detail: str = ""

    def duration_ms(self, run_end_ms: float) -> float:
        end = self.clear_ms if self.clear_ms is not None else run_end_ms
        return max(0.0, end - self.onset_ms)

    def to_dict(self) -> Dict[str, object]:
        return {
            "objective": self.objective, "kind": self.kind,
            "onset_ms": round(self.onset_ms, 6),
            "clear_ms": None if self.clear_ms is None else round(self.clear_ms, 6),
            "threshold": round(self.threshold, 9),
            "peak_value": round(self.peak_value, 9),
            "peak_severity": round(self.peak_severity, 6),
            "blamed_sites": list(self.blamed_sites),
            "detail": self.detail,
        }


class _Window:
    """Accumulator for one event-time tumbling window."""

    __slots__ = ("start", "end", "commits", "aborts", "remastered",
                 "latencies", "offered", "shed", "sites_alive", "sites_total")

    def __init__(self, start: float, end: float):
        self.start = start
        self.end = end
        self.commits = 0
        self.aborts = 0
        self.remastered = 0
        self.latencies: List[float] = []
        self.offered = 0
        self.shed = 0
        self.sites_alive = 0
        self.sites_total = 0


def _evaluate(metric: str, windows: Sequence[_Window]) -> Tuple[Optional[float], int]:
    """(value, sample count) of ``metric`` over ``windows``.

    ``None`` value means the windows hold no data for this metric
    (e.g. a goodput ratio on a closed-loop run, or a p99 with zero
    commits) — such windows neither breach nor clear.
    """
    commits = sum(w.commits for w in windows)
    aborts = sum(w.aborts for w in windows)
    if metric == "availability" or metric == "abort_rate":
        total = commits + aborts
        if total == 0:
            return None, 0
        value = commits / total if metric == "availability" else aborts / total
        return value, total
    if metric == "p99_latency_ms":
        samples: List[float] = []
        for w in windows:
            samples.extend(w.latencies)
        if not samples:
            return None, 0
        samples.sort()
        return samples[nearest_rank(len(samples), 0.99)], len(samples)
    if metric == "remaster_rate":
        if commits == 0:
            return None, 0
        return sum(w.remastered for w in windows) / commits, commits
    if metric == "site_liveness":
        total = sum(w.sites_total for w in windows)
        if total == 0:
            return None, 0
        return sum(w.sites_alive for w in windows) / total, total
    offered = sum(w.offered for w in windows)
    if offered <= 0:
        return None, 0
    if metric == "goodput_ratio":
        return commits / offered, offered
    if metric == "shed_rate":
        return sum(w.shed for w in windows) / offered, offered
    raise ValueError(f"unknown SLO metric {metric!r}")


class _SloState:
    """Evaluation state of one :class:`SloSpec` across the run."""

    def __init__(self, spec: SloSpec):
        self.spec = spec
        #: Armed threshold; ``None`` until the baseline is calibrated.
        self.threshold: Optional[float] = spec.target
        self._baseline: List[float] = []
        self.open: Optional[Incident] = None
        self.clean_streak = 0
        self.windows_evaluated = 0
        self.breached_windows = 0
        self.incident_count = 0
        #: (window start, value, threshold, samples, breached) per
        #: closed window — the dashboard/JSONL timeline.
        self.series: List[Tuple[float, Optional[float], Optional[float], int, bool]] = []

    def _breaches(self, value: float) -> bool:
        if self.spec.bound == "upper":
            return value > self.threshold
        return value < self.threshold

    def _severity(self, value: float) -> float:
        if self.spec.bound == "upper":
            severity = value / self.threshold if self.threshold > 0 else 1000.0
        else:
            severity = self.threshold / value if value > 0 else 1000.0
        return min(1000.0, severity)

    def close(
        self,
        window: _Window,
        recent: Sequence[_Window],
        blame: Callable[[], Tuple[int, ...]],
    ) -> Optional[Incident]:
        """Fold one closed window; returns a newly opened incident."""
        spec = self.spec
        value, samples = _evaluate(spec.metric, (window,))
        has_data = value is not None and samples >= spec.min_samples
        if self.threshold is None:
            # Calibration phase: collect healthy-baseline windows.
            if has_data:
                self._baseline.append(value)
                if len(self._baseline) >= spec.baseline_windows:
                    ordered = sorted(self._baseline)
                    median = ordered[nearest_rank(len(ordered), 0.5)]
                    self.threshold = max(spec.floor, median * spec.baseline_factor)
            self.series.append((window.start, value, None, samples, False))
            return None
        short_breach = has_data and self._breaches(value)
        self.windows_evaluated += 1
        if short_breach:
            self.breached_windows += 1
        self.series.append((window.start, value, self.threshold, samples, short_breach))
        opened: Optional[Incident] = None
        if self.open is not None:
            if short_breach:
                self.clean_streak = 0
                severity = self._severity(value)
                if severity > self.open.peak_severity:
                    self.open.peak_severity = severity
                    self.open.peak_value = value
            elif has_data:
                self.clean_streak += 1
                if self.clean_streak >= spec.clear_windows:
                    self.open.clear_ms = window.end
                    self.open = None
                    self.clean_streak = 0
        elif short_breach:
            # Burn-rate gate: the long horizon must breach too, so a
            # single noisy window cannot open an incident.
            long_value, long_samples = _evaluate(
                spec.metric, recent[-spec.long_windows:]
            )
            long_breach = (
                long_value is not None
                and long_samples >= spec.min_samples
                and self._breaches(long_value)
            )
            if long_breach:
                severity = self._severity(value)
                opened = Incident(
                    objective=spec.name, kind="slo", onset_ms=window.end,
                    threshold=self.threshold, peak_value=value,
                    peak_severity=severity, blamed_sites=blame(),
                    detail=(
                        f"{spec.metric}={value:.6g} "
                        f"{'>' if spec.bound == 'upper' else '<'} "
                        f"{self.threshold:.6g} over {spec.long_windows}-window burn"
                    ),
                )
                self.open = opened
                self.incident_count += 1
                self.clean_streak = 0
        return opened


def _coalesce(
    windows: Sequence[Tuple[str, int, float, float]], gap_ms: float
) -> List[Dict[str, object]]:
    """Merge (kind, site, start, end) fault windows into spans."""
    spans: List[Dict[str, object]] = []
    for kind, site, start, end in windows:
        if spans and start <= spans[-1]["end_ms"] + gap_ms:
            last = spans[-1]
            last["end_ms"] = max(last["end_ms"], end)
            last["kinds"].add(kind)
            last["sites"].add(site)
        else:
            spans.append({
                "start_ms": start, "end_ms": end,
                "kinds": {kind}, "sites": {site},
            })
    return spans


class SloEngine:
    """The streaming SLO/invariant engine for one run; plain data once
    finalized."""

    def __init__(
        self,
        specs: Sequence[SloSpec] = DEFAULT_SLOS,
        window_ms: float = 250.0,
    ):
        if window_ms <= 0:
            raise ValueError(f"window_ms must be positive, got {window_ms}")
        self.specs = tuple(specs)
        self.window_ms = float(window_ms)
        self._states = [_SloState(spec) for spec in self.specs]
        self._incidents: List[Incident] = []
        self._violations: List[Incident] = []
        self._false_positives: List[Incident] = []
        self._open_violations: Dict[str, Incident] = {}
        self._recent: List[_Window] = []
        self._recent_cap = max(
            [spec.long_windows for spec in self.specs], default=1
        )
        self._window: Optional[_Window] = None
        self.windows_closed = 0
        self.run_end_ms: Optional[float] = None
        self.correlation: List[Dict[str, object]] = []
        # Live-cluster handles (pure-read only; set by install(),
        # dropped by finalize()).
        self.sites: Sequence = ()
        self.selector = None
        self.injector = None
        self.queues: Sequence = ()
        self.duration_ms = 0.0
        self.warmup_ms = 0.0
        self._offered_seen = 0
        self._shed_seen = 0
        self._svv_marks: Dict[int, Tuple[int, List[int]]] = {}
        self._episodes_seen = 0
        self._finalized = False

    # -- wiring ------------------------------------------------------------

    def install(self, system, *, injector=None, queues=(),
                duration_ms: float = 0.0, warmup_ms: float = 0.0) -> None:
        """Point the engine at a built system before the run starts.

        Holds references only — nothing is scheduled, registered, or
        mutated. The harness drives observations through
        ``metrics.slo_engine`` and calls :meth:`finalize` after
        ``env.run`` returns.
        """
        self.sites = list(system.sites)
        self.selector = getattr(system, "selector", None)
        self.injector = injector
        self.queues = list(queues)
        self.duration_ms = float(duration_ms)
        self.warmup_ms = float(warmup_ms)
        self._window = _Window(self.warmup_ms, self.warmup_ms + self.window_ms)

    # -- observation stream ------------------------------------------------

    def observe_txn(self, txn, outcome, latency_ms: float, now: float) -> None:
        """Fold one recorded transaction completion (committed or not)."""
        window = self._window
        if window is None:
            return
        while now >= window.end:
            self._close_window(window)
            window = self._window
        if outcome.committed:
            window.commits += 1
            window.latencies.append(latency_ms)
            if outcome.remastered:
                window.remastered += 1
        else:
            window.aborts += 1

    def finalize(self, duration_ms: float) -> None:
        """Close trailing windows, correlate against ground truth, then
        let go of the cluster: a finalized engine is plain data."""
        if self._finalized:
            return
        window = self._window
        if window is not None:
            while window.end <= duration_ms:
                self._close_window(window)
                window = self._window
            if window.start < duration_ms:
                window.end = duration_ms
                self._close_window(window)
            self._window = None
        self.run_end_ms = duration_ms
        self._correlate(duration_ms)
        self.sites = self.queues = ()
        self.selector = self.injector = None
        self._finalized = True

    def _close_window(self, window: _Window) -> None:
        # Stamp cluster liveness as of the close (pure reads).
        window.sites_total = len(self.sites)
        window.sites_alive = sum(1 for site in self.sites if site.alive)
        # Attribute admission-counter deltas to the closing window.
        if self.queues:
            offered = sum(q.offered for q in self.queues)
            shed = sum(q.shed for q in self.queues)
            window.offered = offered - self._offered_seen
            window.shed = shed - self._shed_seen
            self._offered_seen, self._shed_seen = offered, shed
        self._recent.append(window)
        if len(self._recent) > self._recent_cap:
            del self._recent[0]
        self._check_invariants(window.end)
        for state in self._states:
            opened = state.close(window, self._recent, self._blame)
            if opened is not None:
                self._incidents.append(opened)
        self.windows_closed += 1
        self._window = _Window(window.end, window.end + self.window_ms)

    # -- blame -------------------------------------------------------------

    def _blame(self) -> Tuple[int, ...]:
        """Best-effort culprit sites at incident onset: dead sites,
        else detector-suspected sites, else the deepest admission
        queue's site."""
        down = tuple(site.index for site in self.sites if not site.alive)
        if down:
            return down
        if self.injector is not None:
            limit = len(self.sites)
            # .suspected (a copy) — never is_suspected(), which
            # re-evaluates phi and can change detector state.
            suspected = tuple(sorted(
                s for s in self.injector.detector.suspected if 0 <= s < limit
            ))
            if suspected:
                return suspected
        if self.queues:
            depths = [len(q) for q in self.queues]
            deepest = max(depths)
            if deepest > 0:
                return (depths.index(deepest),)
        return ()

    # -- runtime invariants ------------------------------------------------

    def _check_invariants(self, now: float) -> None:
        self._report_invariant("single_master", self._single_master_detail(), now)
        self._report_invariant(
            "admission_conservation", self._admission_detail(), now
        )
        self._report_invariant("replay_monotonic", self._replay_detail(), now)
        self._report_invariant("detector_sanity", self._detector_detail(), now)

    def _report_invariant(
        self,
        name: str,
        finding: Optional[Tuple[str, Tuple[int, ...]]],
        now: float,
    ) -> None:
        open_incident = self._open_violations.get(name)
        if finding is None:
            if open_incident is not None:
                open_incident.clear_ms = now
                del self._open_violations[name]
            return
        if open_incident is not None:
            return  # still violated; one incident spans the episode
        detail, sites = finding
        incident = Incident(
            objective=f"invariant:{name}", kind="invariant", onset_ms=now,
            threshold=0.0, peak_value=1.0, peak_severity=1000.0,
            blamed_sites=sites, detail=detail,
        )
        self._violations.append(incident)
        self._open_violations[name] = incident

    def _single_master_detail(self) -> Optional[Tuple[str, Tuple[int, ...]]]:
        # A site refuses to gain a partition a live peer masters
        # (``DataSite._check_gain``); what is left to watch is that the
        # selector's table names real sites.
        if self.selector is not None:
            limit = len(self.sites)
            for partition, master in sorted(self.selector.table.snapshot().items()):
                if not 0 <= master < limit:
                    return (
                        f"selector maps partition {partition} to "
                        f"invalid site {master}",
                        (),
                    )
        return None

    def _admission_detail(self) -> Optional[Tuple[str, Tuple[int, ...]]]:
        for index, queue in enumerate(self.queues):
            backlog = len(queue)
            if queue.offered != queue.admitted + queue.shed:
                return (
                    f"queue {index}: offered {queue.offered} != admitted "
                    f"{queue.admitted} + shed {queue.shed}",
                    (index,),
                )
            if queue.admitted != queue.taken + backlog:
                return (
                    f"queue {index}: admitted {queue.admitted} != taken "
                    f"{queue.taken} + backlog {backlog}",
                    (index,),
                )
        return None

    def _replay_detail(self) -> Optional[Tuple[str, Tuple[int, ...]]]:
        finding = None
        for site in self.sites:
            if not site.alive:
                # A dead site's vector is meaningless; its epoch bumps
                # on crash, so the next mark starts a fresh baseline.
                self._svv_marks.pop(site.index, None)
                continue
            snapshot = [site.svv[origin] for origin in range(site.num_sites)]
            mark = self._svv_marks.get(site.index)
            if finding is None and mark is not None and mark[0] == site.epoch:
                for origin, (previous, seen) in enumerate(zip(mark[1], snapshot)):
                    if seen < previous:
                        finding = (
                            f"site {site.index} svv[{origin}] regressed "
                            f"{previous} -> {seen} within epoch {site.epoch}",
                            (site.index,),
                        )
                        break
            self._svv_marks[site.index] = (site.epoch, snapshot)
        return finding

    def _detector_detail(self) -> Optional[Tuple[str, Tuple[int, ...]]]:
        if self.injector is None:
            return None
        detector = self.injector.detector
        episodes = detector.suspicion_episodes
        if detector.false_suspicions > episodes:
            return (
                f"false_suspicions {detector.false_suspicions} > "
                f"suspicion_episodes {episodes}",
                (),
            )
        if episodes < self._episodes_seen:
            return (
                f"suspicion_episodes regressed {self._episodes_seen} -> {episodes}",
                (),
            )
        self._episodes_seen = episodes
        limit = len(self.sites)
        unknown = sorted(
            s for s in detector.suspected if not 0 <= s < limit
        )
        if unknown:
            return (f"detector suspects unknown site {unknown[0]}", ())
        return None

    # -- ground-truth correlation ------------------------------------------

    def _correlate(self, duration_ms: float) -> None:
        # Imported lazily: repro.faults pulls in the simulation core,
        # which imports repro.obs — a module-level import would cycle.
        from repro.faults.plan import fault_windows

        plan = self.injector.plan if self.injector is not None else None
        spans: List[Dict[str, object]] = []
        if plan is not None and not plan.empty:
            spans = _coalesce(fault_windows(plan, duration_ms), MERGE_GAP_MS)
        self.correlation = []
        matched: Set[int] = set()
        for span in spans:
            hits: List[int] = []
            for index, incident in enumerate(self._incidents):
                incident_end = (
                    incident.clear_ms if incident.clear_ms is not None
                    else duration_ms
                )
                if (incident.onset_ms <= span["end_ms"] + GRACE_MS
                        and incident_end >= span["start_ms"]):
                    hits.append(index)
            detection = None
            recovery = None
            if hits:
                matched.update(hits)
                onset = min(self._incidents[i].onset_ms for i in hits)
                detection = max(0.0, onset - span["start_ms"])
                clears = [self._incidents[i].clear_ms for i in hits]
                if all(clear is not None for clear in clears):
                    recovery = max(0.0, max(clears) - span["start_ms"])
            self.correlation.append({
                "kinds": sorted(span["kinds"]),
                "sites": sorted(span["sites"]),
                "start_ms": round(span["start_ms"], 6),
                "end_ms": round(span["end_ms"], 6),
                "detected": bool(hits),
                "detection_ms": None if detection is None else round(detection, 6),
                "recovery_ms": None if recovery is None else round(recovery, 6),
                "incidents": [self._incidents[i].objective for i in hits],
            })
        if spans:
            self._false_positives = [
                incident for index, incident in enumerate(self._incidents)
                if index not in matched
            ]
        else:
            # No injected faults: any SLO incident is by definition a
            # false positive.
            self._false_positives = list(self._incidents)

    # -- results -----------------------------------------------------------

    @property
    def incidents(self) -> List[Incident]:
        """SLO-objective incidents, in onset order."""
        return list(self._incidents)

    @property
    def violations(self) -> List[Incident]:
        """Runtime-invariant incidents, in onset order."""
        return list(self._violations)

    @property
    def false_positives(self) -> List[Incident]:
        """SLO incidents unexplained by any ground-truth fault span."""
        return list(self._false_positives)

    def objective_rows(self) -> List[Dict[str, object]]:
        """Per-objective evaluation summary (for reports/dashboard)."""
        rows = []
        for state in self._states:
            rows.append({
                "objective": state.spec.name,
                "metric": state.spec.metric,
                "bound": state.spec.bound,
                "threshold": state.threshold,
                "windows": state.windows_evaluated,
                "breached_windows": state.breached_windows,
                "incidents": state.incident_count,
            })
        return rows

    def window_series(self) -> Dict[str, List[Tuple[float, Optional[float],
                                                    Optional[float], int, bool]]]:
        """objective -> (start, value, threshold, samples, breached) series."""
        return {state.spec.name: list(state.series) for state in self._states}

    def summary(self) -> Dict[str, float]:
        """Scalar verdict; values are plain floats. ``-1.0`` means "not
        applicable" (no detected/recovered fault spans), mirroring the
        mastery ledger's ``convergence_ms`` convention.
        """
        detected = [span for span in self.correlation if span["detected"]]
        mttd = [span["detection_ms"] for span in detected]
        mttr = [
            span["recovery_ms"] for span in detected
            if span["recovery_ms"] is not None
        ]
        true_positives = len(self._incidents) - len(self._false_positives)
        return {
            "incidents": float(len(self._incidents)),
            "violations": float(len(self._violations)),
            "true_positives": float(true_positives),
            "false_positives": float(len(self._false_positives)),
            "fault_spans": float(len(self.correlation)),
            "detected_spans": float(len(detected)),
            "missed_faults": float(len(self.correlation) - len(detected)),
            "mttd_mean_ms": -1.0 if not mttd else round(sum(mttd) / len(mttd), 6),
            "mttr_mean_ms": -1.0 if not mttr else round(sum(mttr) / len(mttr), 6),
            "windows_evaluated": float(self.windows_closed),
        }

    # -- export ------------------------------------------------------------

    def to_jsonl(self) -> str:
        """The ``repro-slo/1`` JSONL document: header, incidents,
        violations, fault spans, then per-objective window series."""
        header = {"schema": SCHEMA, "window_ms": self.window_ms,
                  "run_end_ms": self.run_end_ms,
                  "specs": [spec.to_dict() for spec in self.specs]}
        header.update(self.summary())
        lines = [json.dumps(header, sort_keys=True)]
        for incident in self._incidents:
            record = {"type": "incident"}
            record.update(incident.to_dict())
            lines.append(json.dumps(record, sort_keys=True))
        for violation in self._violations:
            record = {"type": "violation"}
            record.update(violation.to_dict())
            lines.append(json.dumps(record, sort_keys=True))
        for span in self.correlation:
            record = {"type": "span"}
            record.update(span)
            lines.append(json.dumps(record, sort_keys=True))
        for state in self._states:
            for start, value, threshold, samples, breached in state.series:
                lines.append(json.dumps({
                    "type": "window", "objective": state.spec.name,
                    "start_ms": round(start, 6),
                    "value": None if value is None else round(value, 9),
                    "threshold": None if threshold is None else round(threshold, 9),
                    "samples": samples, "breach": breached,
                }, sort_keys=True))
        return "\n".join(lines) + "\n"

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_jsonl())

    def to_csv(self) -> str:
        """Incidents + violations as CSV (one row per incident)."""
        lines = ["kind,objective,onset_ms,clear_ms,duration_ms,threshold,"
                 "peak_value,peak_severity,blamed_sites,detail"]
        run_end = self.run_end_ms if self.run_end_ms is not None else 0.0
        for incident in list(self._incidents) + list(self._violations):
            clear = "" if incident.clear_ms is None else f"{incident.clear_ms:.6f}"
            detail = incident.detail.replace('"', "'")
            lines.append(
                f"{incident.kind},{incident.objective},"
                f"{incident.onset_ms:.6f},{clear},"
                f"{incident.duration_ms(run_end):.6f},"
                f"{incident.threshold:.9g},{incident.peak_value:.9g},"
                f"{incident.peak_severity:.6g},"
                f"{'|'.join(str(s) for s in incident.blamed_sites)},"
                f"\"{detail}\""
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_csv())

    def to_registry(self, registry) -> None:
        """Fold the verdict into a MetricsRegistry for Prometheus.

        Incident counts labelled by objective and violation counts by
        invariant (one unlabelled zero sample when there are none), plus
        the :meth:`summary` gauges.
        """
        for family, label, incidents in (
            ("repro_slo_incidents_total", "objective", self._incidents),
            ("repro_slo_violations_total", "invariant", self._violations),
        ):
            if not incidents:
                registry.counter(family)
            for incident in incidents:
                registry.counter(family, {label: incident.objective}).inc()
        summary = self.summary()
        for key in ("true_positives", "false_positives", "fault_spans",
                    "detected_spans", "missed_faults", "mttd_mean_ms",
                    "mttr_mean_ms", "windows_evaluated"):
            registry.gauge(f"repro_slo_{key}").set(summary[key])


def quick_slos() -> "SloEngine":
    """An engine tuned for short smoke runs: 2-window baselines so the
    relative thresholds arm before a scenario fault lands a third of
    the way into a 2-4 s run."""
    specs = tuple(
        replace(spec, baseline_windows=2)
        if spec.baseline_factor is not None else spec
        for spec in DEFAULT_SLOS
    )
    return SloEngine(specs=specs)


__all__ = [
    "SCHEMA", "METRICS", "DEFAULT_SLOS", "GRACE_MS",
    "MERGE_GAP_MS", "SloSpec", "Incident", "SloEngine",
    "quick_slos",
]
