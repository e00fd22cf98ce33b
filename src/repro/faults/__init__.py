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

This facade re-exports only that vocabulary (``repro.faults.errors``):
import plans, the injector, detectors and deadlines from their own
modules, so that an unfaulted run loads none of them.
"""

from repro.faults.errors import (
    FRONTEND,
    REASON_CONFLICT,
    REASON_SITE_CRASH,
    REASON_TIMEOUT,
    FaultError,
    RpcTimeout,
    SiteDown,
    TransactionAborted,
)

__all__ = [
    "FRONTEND",
    "REASON_CONFLICT",
    "REASON_SITE_CRASH",
    "REASON_TIMEOUT",
    "FaultError",
    "RpcTimeout",
    "SiteDown",
    "TransactionAborted",
]
