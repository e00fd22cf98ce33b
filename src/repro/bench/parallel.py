"""Deterministic multi-process experiment engine.

The paper's evaluation is a large matrix of *independent* runs — five
systems x three workloads x seed repeats x fault scenarios — and every
run here is a sealed deterministic simulation: its observable outcome
is a pure function of the spec that describes it. That makes the
matrix embarrassingly parallel across worker *processes* (the GIL rules
out threads), and determinism makes the parallelism trivially safe to
verify: a parallel sweep must produce fingerprints bit-identical to the
serial sweep, and the tests in ``tests/test_parallel_parity.py`` pin
exactly that.

Three pieces:

* :class:`RunSpec` — a declarative, picklable description of one run
  (system, :class:`WorkloadSpec` naming a registered workload plus its
  config params, seed, durations, cluster config, named fault
  scenario, recorder flags), checked at construction. Everything a
  spec references must be module-level and picklable — no lambdas, no
  closures, no live handles (CONTRIBUTING.md, "Spawn safety").
* :class:`RunSummary` — the portable form of a live
  :class:`~repro.bench.harness.RunResult`: the measurement fields both
  share (declared once, on ``RunMeasurements``), what the recorders
  folded, a canonical :func:`run_fingerprint`, per-worker wall clock
  and peak RSS, with the live ``system`` / ``obs`` / ``injector``
  handles dropped so results can cross a process boundary and a sweep
  keeps one cluster alive at a time.
* :class:`ParallelExecutor` — fans callables over a spawn-context
  ``ProcessPoolExecutor``, returns results in deterministic submission
  order regardless of completion order, surfaces worker crashes as
  :class:`SpecExecutionError` with the offending item attached (never a
  bare ``BrokenProcessPool``), and runs the same callable in-process
  at ``jobs=1``.

:func:`execute_specs` is the one way to run a list of rows: every
driver (``run_suite``, ``run_repeated``, the figure drivers, ``repro
bench|compare|perf|chaos --jobs``) builds ``RunSpec`` rows and calls
it, at every ``jobs``. :func:`execute_spec` is its single in-process
step and returns the live result. The committed matrix reports the
perf and scale harnesses build from those summaries share one envelope
(:func:`host_stanza`, :func:`load_report`, :func:`write_report`).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import traceback
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import (
    RunMeasurements,
    RunResult,
    check_run_params,
    run_benchmark,
)
from repro.core.strategy import StrategyWeights
from repro.faults.plan import build_scenario
from repro.sim.config import ClusterConfig
from repro.sim.rand import sha256
from repro.workloads.openloop import OpenLoopSpec

__all__ = [
    "ParallelExecutor",
    "RunSpec",
    "RunSummary",
    "SpecExecutionError",
    "WorkloadSpec",
    "execute_spec",
    "execute_specs",
    "host_stanza",
    "load_report",
    "run_fingerprint",
    "summarize",
    "write_report",
]


# ---------------------------------------------------------------------------
# Canonical run fingerprint
# ---------------------------------------------------------------------------


def run_fingerprint(result) -> str:
    """Digest the *simulated* outcome of a run (RunResult or RunSummary).

    Covers every observable simulated quantity — commit count and the
    sum of commit times, mean latency, per-category traffic bytes,
    aborts by reason, routing fractions, site utilization, and the
    fault timeline — while excluding host-side measurements
    (``wall_clock_s``, ``events_processed``, RSS), which legitimately
    vary across machines and process placement. Two runs of the same
    :class:`RunSpec` must produce the same fingerprint whether they ran
    serially, in another process, or on another host.
    """
    metrics = result.metrics
    payload = {
        "system": result.system_name,
        "workload": result.workload_name,
        "commits": metrics.commits,
        "commit_time_sum": round(sum(metrics.commit_times), 6),
        "latency_mean": round(result.latency().mean, 6),
        "traffic": sorted(result.traffic_bytes.items()),
        "aborts_by_reason": sorted(metrics.aborts_by_reason.items()),
        "remaster_rate": round(result.remaster_rate, 9),
        "route_fractions": [round(f, 9) for f in result.route_fractions],
        "site_utilization": [round(u, 9) for u in result.site_utilization],
        "fault_events": [
            (round(event.at_ms, 6), event.kind, event.site)
            for event in result.fault_events
        ],
    }
    # Open-loop observables join the digest only when present, so every
    # closed-loop fingerprint pinned before this subsystem existed is
    # unchanged (getattr: summaries pickled by older builds lack the
    # attribute entirely).
    open_loop = getattr(metrics, "open_loop_counters", None)
    if open_loop:
        payload["open_loop"] = sorted(
            (key, round(float(value), 6)) for key, value in open_loop.items()
        )
        payload["admission_wait_sum"] = round(metrics.admission_wait_total(), 6)
    return sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Declarative specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadSpec:
    """A workload by registry name plus config parameters.

    ``build()`` instantiates a *fresh* workload (generators hold
    mutable state, so every run needs its own). Validation is
    deliberately lazy — an unknown name fails at build time, inside
    the worker, so the executor's failure path can attribute it to the
    spec that caused it.
    """

    name: str
    params: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def of(cls, name: str, **params) -> "WorkloadSpec":
        return cls(name, tuple(sorted(params.items())))

    def build(self):
        from repro.workloads import build_workload

        return build_workload(self.name, **dict(self.params))


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reproduce one benchmark run, as pure data.

    Spawn-safety contract: every field must pickle, and anything it
    references (workload names, fault scenarios) must resolve through
    module-level registries in the worker process. Live objects —
    recorders, workload instances, lambdas — are excluded by
    construction; a recorder is requested with its flag and rebuilt
    worker-side.
    """

    system: str
    workload: WorkloadSpec
    num_clients: int = 50
    duration_ms: float = 2000.0
    warmup_ms: float = 500.0
    cluster: Optional[ClusterConfig] = None
    weights: Optional[StrategyWeights] = None
    seed: int = 0
    streaming_metrics: bool = False
    #: Attach a fresh DecisionLedger in the worker (mastering metrics
    #: come back folded on ``RunSummary.mastery``; the ledger does not).
    mastery: bool = False
    #: Attach a fresh SloEngine in the worker (the scalar verdict comes
    #: back folded on ``RunSummary.slo_verdict``; the engine does not).
    slo: bool = False
    #: Named fault scenario, instantiated in the worker via
    #: :func:`repro.faults.plan.build_scenario` against this spec's
    #: cluster size and duration.
    fault_scenario: Optional[str] = None
    #: Open-loop traffic description; when set, the worker drives the
    #: run with an OpenLoopEngine instead of ``num_clients`` closed-loop
    #: clients (``num_clients`` is then ignored). Pure data like every
    #: other field — the curve resolves through CURVE_REGISTRY.
    open_loop: Optional[OpenLoopSpec] = None
    #: Display / bookkeeping label (defaults to system + workload).
    label: Optional[str] = None

    def __post_init__(self):
        check_run_params(
            self.system, num_clients=self.num_clients,
            duration_ms=self.duration_ms, warmup_ms=self.warmup_ms,
            open_loop=self.open_loop, fault_scenario=self.fault_scenario,
        )


def execute_spec(spec: RunSpec) -> RunResult:
    """Run one spec in-process and return the live ``RunResult``.

    This is the single execution path shared by the ``jobs=1`` serial
    mode and the worker processes: both funnel through the same
    :func:`~repro.bench.harness.run_benchmark` call, which is what
    makes serial/parallel bit-identity hold by construction. It is also
    the one place in ``bench/`` that builds recorders from flags.
    """
    # Imported only where a flag builds one: a run that attaches no
    # recorder loads neither module.
    ledger = slo = None
    if spec.mastery:
        from repro.obs.mastery import DecisionLedger

        ledger = DecisionLedger()
    if spec.slo:
        from repro.obs.slo import SloEngine

        slo = SloEngine()
    plan = None
    if spec.fault_scenario is not None:
        cluster = spec.cluster or ClusterConfig()
        plan = build_scenario(
            spec.fault_scenario,
            num_sites=cluster.num_sites,
            duration_ms=spec.duration_ms,
        )
    return run_benchmark(
        spec.system,
        spec.workload.build(),
        num_clients=spec.num_clients,
        duration_ms=spec.duration_ms,
        warmup_ms=spec.warmup_ms,
        cluster_config=spec.cluster,
        weights=spec.weights,
        seed=spec.seed,
        streaming_metrics=spec.streaming_metrics,
        fault_plan=plan,
        ledger=ledger,
        open_loop=spec.open_loop,
        slo=slo,
    )


# ---------------------------------------------------------------------------
# Portable results
# ---------------------------------------------------------------------------


@dataclass
class RunSummary(RunMeasurements):
    """The portable form of a :class:`~repro.bench.harness.RunResult`.

    Carries every folded measurement across a process boundary; the
    live ``system`` / ``obs`` / ``injector`` handles are deliberately
    dropped, so a summary pickles cheaply and keeps no cluster alive.
    What the recorders knew comes along folded, under the names a live
    result answers to as well.
    """

    #: Folded ledger scalars (mastery runs only): locality share,
    #: entropy, churn, convergence — see DecisionLedger.summary().
    mastery: Dict[str, float] = field(default_factory=dict)
    #: Folded SLO verdict (SLO-monitored runs only): incident /
    #: violation / true-positive counts, MTTD/MTTR — see
    #: SloEngine.summary().
    slo_verdict: Dict[str, float] = field(default_factory=dict)
    #: Canonical digest of the simulated outcome (:func:`run_fingerprint`).
    fingerprint: str = ""
    #: ``ru_maxrss`` of the producing process, in KB (0 if unknown).
    peak_rss_kb: int = 0

    def portable(self) -> "RunSummary":
        """Already portable; returns self (mirrors RunResult.portable)."""
        return self


def summarize(result: RunResult) -> RunSummary:
    """Build the portable :class:`RunSummary` of a live run."""
    return RunSummary(
        **{f.name: getattr(result, f.name) for f in fields(RunMeasurements)},
        mastery=result.mastery,
        slo_verdict=result.slo_verdict,
        fingerprint=run_fingerprint(result),
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


class SpecExecutionError(RuntimeError):
    """One work item failed; carries the item and the worker traceback.

    Raised parent-side only (never pickled across the pool), so it can
    reference the original spec object directly.
    """

    def __init__(self, item, message: str, worker_traceback: str = ""):
        described = getattr(item, "describe", lambda: repr(item))()
        super().__init__(f"worker failed for {described}: {message}")
        self.item = item
        self.worker_traceback = worker_traceback


def _invoke(fn, item):
    """Worker-side wrapper: never lets an exception cross the pipe raw.

    Exceptions are folded to plain strings because arbitrary exception
    objects may not survive pickling (a failure to unpickle a failure
    would surface as an opaque ``BrokenProcessPool``).
    """
    try:
        return ("ok", fn(item))
    except BaseException as exc:  # noqa: BLE001 — reported, not swallowed
        return ("err", f"{type(exc).__name__}: {exc}", traceback.format_exc())


class ParallelExecutor:
    """Deterministic fan-out of picklable callables over processes.

    ``jobs=1`` never touches multiprocessing: items run in-process, in
    order. With ``jobs>1`` a spawn-context pool executes items
    concurrently, and results are returned **in submission order**
    regardless of completion order — determinism of the output list is
    part of the contract, not a scheduling accident.

    A failing item raises :class:`SpecExecutionError` for the first
    failure *after* letting every other item finish, so one bad spec
    cannot poison the rest of a matrix mid-flight.
    """

    def __init__(self, jobs: int = 1):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    def map(self, fn: Callable, items: Sequence) -> List:
        if self.jobs == 1 or len(items) <= 1:
            outcomes = [self._run_serial(fn, item) for item in items]
        else:
            outcomes = self._run_pool(fn, items)
        for outcome in outcomes:
            if isinstance(outcome, SpecExecutionError):
                raise outcome
        return outcomes

    def _run_serial(self, fn, item):
        try:
            return fn(item)
        except Exception as exc:  # noqa: BLE001
            return SpecExecutionError(item, f"{type(exc).__name__}: {exc}",
                                      traceback.format_exc())

    def _run_pool(self, fn, items) -> List:
        # Spawn (not fork): workers import a pristine interpreter, so
        # results cannot depend on parent-process state — the same
        # isolation property the determinism contract relies on — and
        # the engine behaves identically on macOS/Windows.
        #
        # Imported here, not at module scope: the pool machinery costs
        # 20-35 ms of ``import repro.bench``, which every serial run
        # pays inside its set-up and only this method uses.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        from multiprocessing import get_context

        context = get_context("spawn")
        workers = min(self.jobs, len(items))
        outcomes: List = []
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            futures = [pool.submit(_invoke, fn, item) for item in items]
            for item, future in zip(items, futures):
                try:
                    status = future.result()
                except BrokenProcessPool:
                    outcomes.append(SpecExecutionError(
                        item,
                        "worker process died abruptly (BrokenProcessPool); "
                        "the spec may have exhausted memory or crashed the "
                        "interpreter",
                    ))
                    continue
                except Exception as exc:  # noqa: BLE001
                    outcomes.append(SpecExecutionError(
                        item, f"{type(exc).__name__}: {exc}"))
                    continue
                if status[0] == "ok":
                    outcomes.append(status[1])
                else:
                    outcomes.append(SpecExecutionError(item, status[1], status[2]))
        return outcomes


def _spec_worker(spec: RunSpec) -> RunSummary:
    """Module-level worker entrypoint (must be picklable by name)."""
    return summarize(execute_spec(spec))


def execute_specs(specs: Sequence[RunSpec], jobs: int = 1) -> List[RunSummary]:
    """Execute ``specs`` and return portable summaries in spec order.

    The one run path of every driver: in-process at ``jobs=1`` (one
    cluster alive at a time), over worker processes above it.
    """
    return ParallelExecutor(jobs).map(_spec_worker, specs)


# ---------------------------------------------------------------------------
# Committed matrix reports (BENCH_perf.json, BENCH_scale.json)
# ---------------------------------------------------------------------------


def host_stanza() -> Dict[str, object]:
    """The host a report's machine-dependent numbers were measured on."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
    }


def load_report(path: str, schema: str) -> Dict:
    """Read a matrix report, insisting on exactly ``schema``."""
    with open(path) as handle:
        payload = json.load(handle)
    found = payload.get("schema")
    if found != schema:
        raise ValueError(
            f"{path}: schema {found!r} != {schema!r}; "
            "regenerate the report with this tree"
        )
    return payload


def write_report(payload: Dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
