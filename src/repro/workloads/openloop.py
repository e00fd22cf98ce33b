"""Open-loop traffic: a modeled client population behind admission queues.

The closed-loop harness (`repro.bench.harness._client_loop`) runs one
generator process per client, each issuing its next transaction only
after the previous one completes. That shape cannot reach the regime
the north star cares about — heavy traffic from very large user
populations — for two reasons:

1. **Coordinated omission.** A closed-loop client under a slow system
   simply offers less load, so saturation never shows up as queueing or
   goodput collapse, only as mysteriously-lower throughput.
2. **Memory.** One generator process and one session per client caps
   the modeled population at thousands, not hundreds of thousands.

This module replaces both halves:

* **Arrival side** — one arrival process per run samples a
  nonhomogeneous Poisson stream from a rate curve
  (:mod:`repro.sim.arrivals`) on the dedicated ``arrivals`` RNG stream,
  assigns each arrival to a modeled client, generates the transaction
  *immediately* (so the workload stream's draw sequence is independent
  of queue state), and offers it to the client's home-site
  :class:`~repro.sim.resources.AdmissionQueue`.
* **Client side** — the workload's client pool
  (:meth:`~repro.workloads.base.Workload.client_pool`, the one the
  closed-loop clients draw from too) keeps O(1) machine words per
  modeled client, so 100k+ clients cost a few arrays.
* **Service side** — ``admission_concurrency`` dispatcher slots per
  site drain the queue FIFO and run transactions through the system
  under test. Latency is measured from *arrival* (enqueue), not from
  dispatch, so admission-queue wait is inside the reported latency —
  the open-loop answer to coordinated omission.

Sessions: a dispatcher slot models a server-side worker from a
connection pool. It keeps a live :class:`~repro.systems.base.Session`
only across consecutive turns of the same modeled client (and drops it
on ``reset_session``); any client switch starts a fresh session. This
is a deliberate modeling choice — with 100k clients multiplexed over a
few slots per site, per-client session continuity would require
per-client version vectors again, exactly the memory shape the pool
exists to avoid. docs/SCALE.md discusses the consequence (slightly
more conservative freshness waits than per-client sessions).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.arrivals import arrival_times, build_curve, scale_curve_params
from repro.sim.rand import ARRIVALS_STREAM, WORKLOAD_STREAM
from repro.sim.resources import AdmissionQueue


@dataclass(frozen=True)
class OpenLoopSpec:
    """Picklable description of an open-loop traffic configuration.

    Pure data, like :class:`~repro.bench.parallel.WorkloadSpec`: the
    curve is named (resolved through
    :data:`repro.sim.arrivals.CURVE_REGISTRY`) and its parameters are a
    sorted tuple of pairs, so the spec is hashable, picklable, and
    rebuilds identically in a spawn worker.
    """

    #: Registered curve name (constant / diurnal).
    curve: str = "constant"
    #: Curve constructor kwargs as a sorted tuple of (name, value).
    curve_params: Tuple[Tuple[str, Any], ...] = ()
    #: Size of the modeled user population. Arrivals are attributed to
    #: clients uniformly; each client's home site is ``cid % sites``.
    modeled_clients: int = 1000
    #: Dispatcher slots per site draining the admission queue.
    admission_concurrency: int = 4
    #: Admission-queue bound per site; 0 = unbounded (no shedding).
    queue_capacity: int = 0

    def __post_init__(self):
        if self.modeled_clients < 1:
            raise ValueError(
                f"modeled_clients must be >= 1, got {self.modeled_clients}"
            )
        if self.admission_concurrency < 1:
            raise ValueError(
                f"admission_concurrency must be >= 1, got {self.admission_concurrency}"
            )
        if self.queue_capacity < 0:
            raise ValueError(
                f"queue_capacity must be >= 0, got {self.queue_capacity}"
            )

    @classmethod
    def of(
        cls,
        curve: str = "constant",
        *,
        modeled_clients: int = 1000,
        admission_concurrency: int = 4,
        queue_capacity: int = 0,
        **curve_params,
    ) -> "OpenLoopSpec":
        """Build a spec with curve parameters given as plain kwargs."""
        return cls(
            curve=curve,
            curve_params=tuple(sorted(curve_params.items())),
            modeled_clients=modeled_clients,
            admission_concurrency=admission_concurrency,
            queue_capacity=queue_capacity,
        )

    def build_curve(self):
        """Instantiate the named arrival curve (validates parameters)."""
        return build_curve(self.curve, **dict(self.curve_params))

    def scaled(self, multiplier: float) -> "OpenLoopSpec":
        """The same spec with every ``*_tps`` rate scaled — one rung of
        a rate ladder (see :mod:`repro.bench.scale`)."""
        return replace(
            self, curve_params=scale_curve_params(self.curve_params, multiplier)
        )


class OpenLoopEngine:
    """Wires arrivals → admission queues → dispatcher slots for one run.

    Built and installed by :func:`repro.bench.harness.run_benchmark`
    when a :class:`OpenLoopSpec` is passed; owns all open-loop state so
    the harness only has to fold :meth:`counters` into the metrics at
    run end.
    """

    def __init__(self, system, workload, spec: OpenLoopSpec, metrics,
                 warmup_ms: float, obs):
        self.system = system
        self.workload = workload
        self.spec = spec
        self.metrics = metrics
        self.warmup_ms = warmup_ms
        self.obs = obs
        self.env = system.env
        self.num_sites = system.config.num_sites
        self.queues: List[AdmissionQueue] = [
            AdmissionQueue(self.env, spec.queue_capacity)
            for _ in range(self.num_sites)
        ]
        self.pool = workload.client_pool(spec.modeled_clients)
        #: Arrivals whose arrival instant fell after warmup (the
        #: denominator of the recorded offered rate).
        self.offered_recorded = 0
        #: Transactions finished by a dispatcher (any outcome).
        self.completed = 0
        #: Finished transactions that arrived after warmup.
        self.completed_recorded = 0
        #: Transactions currently inside ``system.submit``.
        self.in_flight = 0

    def install(self, duration_ms: float) -> None:
        """Spawn the arrival process and all dispatcher slots."""
        self.env.process(self._arrival_loop(duration_ms))
        for site in range(self.num_sites):
            for _slot in range(self.spec.admission_concurrency):
                self.env.process(self._dispatcher(site))

    def attach_probes(self, sampler) -> None:
        """Register per-site admission depth/shed timeline probes.

        Observed runs sample these alongside the standard cluster
        probes, turning the end-of-run aggregate counters into the
        *time series* the SLO dashboard and saturation analyses need.
        Probes close over the queue objects and read pure state, so an
        observed run's simulated outcome is unchanged.
        """
        for index, queue in enumerate(self.queues):
            sampler.add_probe(
                f"admission_depth.site{index}", lambda q=queue: float(len(q))
            )
            sampler.add_probe(
                f"admission_shed.site{index}", lambda q=queue: float(q.shed)
            )

    def _arrival_loop(self, duration_ms: float):
        env = self.env
        spec = self.spec
        arrivals_rng = self.system.streams.stream(ARRIVALS_STREAM)
        workload_rng = self.system.streams.stream(WORKLOAD_STREAM)
        curve = spec.build_curve()
        warmup = self.warmup_ms
        last = 0.0
        for when in arrival_times(curve, duration_ms, arrivals_rng):
            yield env.timeout(when - last)
            last = when
            client = arrivals_rng.randrange(spec.modeled_clients)
            # Generate before offering: the workload stream's draw
            # sequence depends only on the arrival stream, never on
            # queue occupancy, so shedding cannot ripple into the
            # transactions other clients generate.
            turn = self.pool.turn(client, workload_rng, env.now)
            if env.now >= warmup:
                self.offered_recorded += 1
            site = client % self.num_sites
            self.queues[site].offer((turn, client, env.now))

    def _dispatcher(self, site: int):
        env = self.env
        system = self.system
        metrics = self.metrics
        tracer = self.obs.tracer
        traced = tracer.enabled
        queue = self.queues[site]
        warmup = self.warmup_ms
        session = None
        session_client = -1
        while True:
            turn, client, arrived = yield queue.take()
            if session is None or session_client != client or turn.reset_session:
                session = system.new_session(client)
                session_client = client
            recorded = arrived >= warmup
            if recorded:
                metrics.record_admission_wait(env.now - arrived)
            self.in_flight += 1
            if traced:
                tracer.txn_begin(turn.txn, env.now)
            outcome = yield from system.submit(turn.txn, session)
            self.in_flight -= 1
            self.completed += 1
            if recorded:
                self.completed_recorded += 1
                # Latency from *arrival*, queue wait included — the
                # coordinated-omission-free measurement (docs/SCALE.md).
                metrics.record(turn.txn, outcome, env.now - arrived, env.now)
            if traced:
                tracer.txn_end(turn.txn, outcome, env.now, recorded=recorded)

    def counters(self) -> Dict[str, float]:
        """Fold every open-loop observable into one flat dict.

        Attached to :attr:`Metrics.open_loop_counters` by the harness
        so it transports through pickled summaries, the report table,
        CSV export, and Prometheus exposition.
        """
        now = self.env.now
        queues = self.queues
        return {
            "offered": float(sum(q.offered for q in queues)),
            "offered_recorded": float(self.offered_recorded),
            "admitted": float(sum(q.admitted for q in queues)),
            "shed": float(sum(q.shed for q in queues)),
            "taken": float(sum(q.taken for q in queues)),
            "completed": float(self.completed),
            "completed_recorded": float(self.completed_recorded),
            "in_flight": float(self.in_flight),
            "queued_end": float(sum(len(q) for q in queues)),
            "peak_depth": float(max(q.peak_depth for q in queues)),
            "mean_depth": (
                sum(q.mean_depth(now) for q in queues) / len(queues)
            ),
            "modeled_clients": float(self.spec.modeled_clients),
        }


def offered_rate_tps(counters: Dict[str, float], window_ms: float) -> float:
    """Recorded offered rate (arrivals/s) from folded counters."""
    if window_ms <= 0:
        return 0.0
    return counters.get("offered_recorded", 0.0) / window_ms * 1000.0


def goodput_ratio(counters: Dict[str, float], commits: int) -> Optional[float]:
    """Committed-to-offered ratio over the recorded window.

    The saturation signal: ~1.0 while the system keeps up, collapsing
    once arrivals outpace service. ``None`` when nothing was offered.
    """
    offered = counters.get("offered_recorded", 0.0)
    if offered <= 0:
        return None
    return commits / offered
