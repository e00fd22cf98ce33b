"""Cluster-wide simulation configuration and CPU cost model.

The absolute values are a scaled-down stand-in for the paper's 12-core
machines (we default to 4 simulated cores and proportionally larger
per-operation costs so runs stay small); what matters for reproducing
the paper's *shapes* is the cost structure:

* transactions consume CPU at their execution site (queueing for cores
  is what saturates the single-master site);
* every replicated write later consumes (cheaper) refresh CPU at every
  replica (the multi-master replication overhead);
* 2PC adds whole network round trips and holds locks across them;
* data shipping (LEAP) pays per-record marshalling CPU and bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Iterable, Sequence, Tuple


def check_config(
    config,
    rules: Iterable[Tuple[str, bool, str]],
    mix: Sequence[str] = (),
) -> None:
    """Refuse a config at construction, naming the field.

    Configs arrive from CLI flags and ``RunSpec`` / ``WorkloadSpec``
    params; what is not refused here surfaces mid-run as a stdlib
    ``randrange`` error, a ``ZeroDivisionError``, a negative timeout,
    or a value silently treated as another. ``rules`` are ``(field,
    holds, "what it must be")`` triples; the ``mix`` fields are
    weights, each ``>= 0`` and summing to 1.
    """
    rules = [*rules, *((name, getattr(config, name) >= 0, ">= 0") for name in mix)]
    for name, ok, rule in rules:
        if not ok:
            raise ValueError(
                f"{type(config).__name__}.{name} must be {rule}, "
                f"got {getattr(config, name)!r}"
            )
    total = sum(getattr(config, name) for name in mix)
    if mix and abs(total - 1.0) > 1e-9:
        raise ValueError(
            f"{type(config).__name__}: {' + '.join(mix)} must sum to 1, got {total!r}"
        )


def finite_nonnegative(config) -> Iterable[Tuple[str, bool, str]]:
    """One ``finite and >= 0`` rule per dataclass field of ``config``."""
    for spec in fields(config):
        value = getattr(config, spec.name)
        yield spec.name, 0 <= value < math.inf, "finite and >= 0"


@dataclass
class NetworkConfig:
    """Knobs for the message cost model (times in ms, sizes in bytes)."""

    #: One-way per-message latency: propagation + RPC framing overhead.
    one_way_latency_ms: float = 0.25
    #: Usable bandwidth for the size-dependent term, bytes per ms.
    #: 1e6 bytes/ms = 1 GB/s, roughly the goodput of a 10 Gbit link.
    bandwidth_bytes_per_ms: float = 1.0e6

    def __post_init__(self):
        check_config(self, (
            ("one_way_latency_ms", self.one_way_latency_ms >= 0, ">= 0"),
            ("bandwidth_bytes_per_ms", self.bandwidth_bytes_per_ms > 0, "> 0"),
        ))


@dataclass
class CostModel:
    """Per-operation CPU costs in simulated milliseconds."""

    #: Fixed cost to begin one transaction branch at a site: request
    #: dispatch/unmarshalling, snapshot setup, lock bookkeeping. Charged
    #: per participating site, so scatter-gather reads and multi-branch
    #: 2PC writes pay it once per shard.
    txn_begin_ms: float = 0.15
    #: Fixed cost to commit (log record construction, version stamping).
    txn_commit_ms: float = 0.05
    #: Point read of one record.
    read_op_ms: float = 0.02
    #: Write of one record (new version creation).
    write_op_ms: float = 0.05
    #: Per-record cost inside a range scan (in-memory sequential read).
    scan_op_ms: float = 0.001
    #: Per-record cost to apply a refresh transaction at a replica
    #: (version installation only - no transaction logic, locks, or
    #: index lookups, so far cheaper than an original write).
    refresh_op_ms: float = 0.004
    #: Fixed cost to apply a refresh transaction (dequeue, rule check).
    refresh_base_ms: float = 0.01
    #: 2PC prepare work at a participant (force-log the prepare record).
    prepare_ms: float = 0.4
    #: 2PC commit/abort record processing at a participant.
    decide_ms: float = 0.1
    #: Coordinator-side work per branch and per round of 2PC (request
    #: marshalling, vote collection, decision logging).
    coordinate_ms: float = 0.1
    #: Site-selector work to look up and lock partition metadata.
    route_lookup_ms: float = 0.005
    #: Site-selector work to score candidate sites for remastering.
    remaster_decision_ms: float = 0.02
    #: Site-manager work to release mastership of one partition.
    release_ms: float = 0.01
    #: Site-manager work to take mastership of one partition.
    grant_ms: float = 0.01
    #: Per-record cost to migrate a record between owners (LEAP data
    #: shipping): index removal + packing at the source, unpacking +
    #: index insertion at the destination.
    marshal_op_ms: float = 0.025

    def __post_init__(self):
        check_config(self, finite_nonnegative(self))

    def execution_ms(self, reads: int, writes: int, scanned: int) -> float:
        """CPU time for the execution phase of a transaction."""
        return (
            reads * self.read_op_ms
            + writes * self.write_op_ms
            + scanned * self.scan_op_ms
        )

    def refresh_ms(self, writes: int) -> float:
        """CPU time to apply a refresh transaction with ``writes`` records."""
        return self.refresh_base_ms + writes * self.refresh_op_ms


@dataclass
class SizeModel:
    """Wire sizes in bytes for the traffic accounting."""

    #: Payload bytes per record shipped or replicated.
    record_bytes: int = 100
    #: Bytes per key in a request (write-set announcements etc.).
    key_bytes: int = 16
    #: Fixed bytes per RPC request/response.
    rpc_overhead_bytes: int = 64
    #: Bytes of a version vector entry.
    vector_entry_bytes: int = 8

    def update_record_bytes(self, writes: int, sites: int) -> int:
        """Size of one replicated update record."""
        return self.rpc_overhead_bytes + writes * self.record_bytes + sites * self.vector_entry_bytes


@dataclass
class RpcConfig:
    """Timeout/retry/suspicion knobs for the hardened RPC layer.

    Only consulted when a fault plan is active; unfaulted runs never
    arm a timeout or take a retry branch, so these values cannot
    perturb them. The timeout is deliberately generous relative to
    typical transaction latencies (a few ms) so that a loaded-but-live
    site is not mistaken for a dead one; a crashed site is detected
    fast anyway via connection-refused (:class:`~repro.faults.errors.
    SiteDown`), so timeouts mostly fire for lost/partitioned messages.
    """

    #: How long a caller waits for an RPC response before giving up.
    timeout_ms: float = 50.0
    #: Remastering RPCs (release/grant) legitimately block on quiesce
    #: and replication catch-up; they get a longer leash.
    remaster_timeout_ms: float = 400.0
    #: Retries after the first attempt of a protocol-level operation.
    max_retries: int = 3
    #: Exponential backoff: min(cap, base * 2**attempt), jittered
    #: +-50% from the faults RNG stream.
    backoff_base_ms: float = 1.0
    backoff_cap_ms: float = 16.0
    #: Consecutive timeouts before a site is suspected dead.
    suspicion_threshold: int = 2
    #: Failure-detector policy: "adaptive" (phi-accrual over per-site
    #: inter-success intervals; see repro.faults.detector) or
    #: "threshold" (the classic fixed-strike detector, kept as a
    #: selectable baseline — chaos --defenses fixed uses it).
    detector_policy: str = "adaptive"
    #: Phi level at which the adaptive detector suspects a site.
    phi_threshold: float = 8.0
    #: Suspicion hysteresis of the adaptive detector: once tripped,
    #: suspicion latches for this long (extended by fresh timeout
    #: evidence) so a fail-slow site that keeps slowly succeeding is
    #: actually drained rather than flickering in and out of routing.
    suspicion_quarantine_ms: float = 250.0
    #: When True, guarded RPCs use per-destination deadlines derived
    #: from observed RTT quantiles (clamped to [deadline_floor_ms,
    #: timeout_ms]) instead of the fixed timeout — a fail-slow site is
    #: then noticed in milliseconds rather than at the full timeout.
    adaptive_deadlines: bool = False
    #: RTT quantile and headroom multiplier for the adaptive deadline.
    deadline_quantile: float = 0.99
    deadline_multiplier: float = 3.0
    #: RTT samples per destination before adapting (cold-start guard).
    deadline_min_samples: int = 20
    #: Never tighten a deadline below this.
    deadline_floor_ms: float = 5.0
    #: When True, reads launch a backup request to another replica
    #: after the hedge-quantile RTT has elapsed without a response;
    #: first response wins, the loser is absorbed.
    hedged_reads: bool = False
    #: RTT quantile after which a read hedges.
    hedge_quantile: float = 0.95

    def __post_init__(self):
        check_config(self, (
            ("timeout_ms", self.timeout_ms > 0, "> 0"),
            ("remaster_timeout_ms", self.remaster_timeout_ms > 0, "> 0"),
            ("max_retries", self.max_retries >= 0, ">= 0"),
            ("backoff_base_ms", self.backoff_base_ms >= 0, ">= 0"),
            ("backoff_cap_ms", self.backoff_cap_ms > 0, "> 0"),
            ("suspicion_threshold", self.suspicion_threshold >= 1, ">= 1"),
            ("detector_policy", self.detector_policy in ("adaptive", "threshold"),
             "a known detector policy ('adaptive' or 'threshold')"),
            ("phi_threshold", self.phi_threshold > 0, "> 0"),
            ("suspicion_quarantine_ms", self.suspicion_quarantine_ms >= 0, ">= 0"),
            ("deadline_quantile", 0 < self.deadline_quantile <= 1, "in (0, 1]"),
            ("deadline_multiplier", self.deadline_multiplier >= 1, ">= 1"),
            ("deadline_min_samples", self.deadline_min_samples >= 1, ">= 1"),
            ("deadline_floor_ms", self.deadline_floor_ms >= 0, ">= 0"),
            ("hedge_quantile", 0 < self.hedge_quantile <= 1, "in (0, 1]"),
        ))


@dataclass
class ClusterConfig:
    """Everything needed to instantiate a simulated cluster."""

    num_sites: int = 4
    #: Simulated cores per data site (paper: 12; scaled down by default).
    cores_per_site: int = 4
    #: Simulated cores for the site-selector machine.
    selector_cores: int = 8
    #: Delay between a commit and its update record reaching subscribers
    #: (the Kafka hop, paper §V-A2). Kept below a client's reply+request
    #: round trip so replicas are usually session-fresh by the time the
    #: writing client's next transaction arrives (§VI-B2).
    log_delivery_ms: float = 0.3
    #: Maximum record versions retained by MVCC (paper: 4, §V-A1).
    max_versions: int = 4
    costs: CostModel = field(default_factory=CostModel)
    sizes: SizeModel = field(default_factory=SizeModel)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    rpc: RpcConfig = field(default_factory=RpcConfig)
    seed: int = 0

    def __post_init__(self):
        # A version's origin is stored as an unsigned 16-bit site index
        # (storage/table.py); refuse here what would overflow mid-run.
        check_config(self, (
            ("num_sites", 1 <= self.num_sites <= 65_535, "in [1, 65535]"),
            ("log_delivery_ms", self.log_delivery_ms >= 0, ">= 0"),
            ("max_versions", self.max_versions >= 1, ">= 1"),
        ))

    def scaled(self, **changes) -> "ClusterConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)
