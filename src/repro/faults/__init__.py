"""Deterministic fault injection (crashes, partitions, loss, gray
failures) and the failure-handling vocabulary the protocol stack
shares.

The package is inert unless a :class:`FaultInjector` is installed on a
cluster. Each protocol step is written once: without an injector
``guarded_call`` is ``remote_call``, ``site_process`` is the handler
itself and ``with_retries`` makes a single try, so runs without a plan
are bit-identical to the pre-fault codebase, and DynaMast's
remastering, the comparators' 2PC, scatter-gather reads and record
shipping run one schedule with or without faults. The two remaining
``faults is None`` tests read injector state; they are listed in
``tests/test_fault_gates.py``.

The fault model — crash/restart semantics, the hardened RPC layer
(timeouts, seeded-jitter retries, suspicion), gray failures (fail-slow
sites, degraded links) and their adaptive defenses (phi-accrual
detection, adaptive deadlines, hedged reads, health-aware
remastering), presumed-abort 2PC termination, and the abort taxonomy —
is specified in DESIGN.md §7; the bit-identity gate is pinned by the
fingerprint tests in ``tests/test_faults_injection.py`` (see also
DESIGN.md §8 on what substrate optimizations must preserve).
"""

from repro.faults.deadlines import DeadlineTracker
from repro.faults.detector import AdaptiveDetector, FailureDetector
from repro.faults.errors import (
    REASON_CONFLICT,
    REASON_SITE_CRASH,
    REASON_TIMEOUT,
    FaultError,
    RpcTimeout,
    SiteDown,
    TransactionAborted,
)
from repro.faults.injector import FaultEvent, FaultInjector
from repro.faults.plan import (
    FRONTEND,
    GRAY_SCENARIOS,
    SCENARIOS,
    CrashFault,
    FaultPlan,
    LinkFault,
    SlowFault,
    build_scenario,
    flapping_site,
    partition_site,
)

__all__ = [
    "AdaptiveDetector",
    "DeadlineTracker",
    "FailureDetector",
    "FaultError",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "CrashFault",
    "LinkFault",
    "SlowFault",
    "RpcTimeout",
    "SiteDown",
    "TransactionAborted",
    "FRONTEND",
    "GRAY_SCENARIOS",
    "SCENARIOS",
    "REASON_CONFLICT",
    "REASON_SITE_CRASH",
    "REASON_TIMEOUT",
    "build_scenario",
    "flapping_site",
    "partition_site",
]
