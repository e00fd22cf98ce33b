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
* :meth:`RunResult.portable() <repro.bench.harness.RunResult.portable>`
  — a finished run without its live ``system`` / ``obs`` handles: the
  measurements, the canonical :func:`run_fingerprint`, wall clock, peak
  RSS and the finalized recorders (ledger, SLO engine), so results can
  cross a process boundary and a sweep keeps one cluster alive at a
  time.
* :class:`ParallelExecutor` — fans callables over a spawn-context
  ``ProcessPoolExecutor``, returns results in deterministic submission
  order regardless of completion order, surfaces worker crashes as
  :class:`SpecExecutionError` with the offending item attached (never a
  bare ``BrokenProcessPool``), and runs the same callable in-process
  at ``jobs=1``.

:func:`execute_specs` is the one way to run a list of rows: every
driver (``run_suite``, the figure drivers, ``repro
bench|compare|perf|chaos --jobs``) builds ``RunSpec`` rows and calls
it, at every ``jobs``. :func:`execute_spec` is its single in-process
step and returns the live result. The committed matrix reports the
perf and scale harnesses build from those results share one envelope
(:func:`host_stanza`, :func:`load_report`, :func:`write_report`).
"""

from __future__ import annotations

import json
import os
import platform
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import (
    RunResult,
    check_run_params,
    run_benchmark,
    run_fingerprint,
)
from repro.core.strategy import StrategyWeights
from repro.sim.config import ClusterConfig
from repro.workloads.openloop import OpenLoopSpec

__all__ = [
    "ParallelExecutor",
    "RunSpec",
    "SpecExecutionError",
    "WorkloadSpec",
    "execute_spec",
    "execute_specs",
    "host_stanza",
    "load_report",
    "run_fingerprint",
    "write_report",
]


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
    #: Attach a fresh DecisionLedger in the worker; it comes back on
    #: ``RunResult.ledger``.
    mastery: bool = False
    #: Attach a fresh SloEngine in the worker; it comes back finalized
    #: on ``RunResult.slo``.
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
        from repro.faults.plan import build_scenario

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


def _spec_worker(spec: RunSpec) -> RunResult:
    """Module-level worker entrypoint (must be picklable by name)."""
    return execute_spec(spec).portable()


def execute_specs(specs: Sequence[RunSpec], jobs: int = 1) -> List[RunResult]:
    """Execute ``specs`` and return portable results in spec order.

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
