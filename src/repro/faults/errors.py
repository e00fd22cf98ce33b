"""Failure exceptions raised by the hardened protocol stack.

Kept dependency-free so the message layer (and the kernel-adjacent
code it guards) can import them without cycles. All of them derive
from :class:`FaultError`, so protocol code can catch "any injected
failure" in one clause while letting genuine bugs propagate.
"""

from __future__ import annotations

#: Canonical abort reasons surfaced on transaction outcomes and split
#: out in the metrics (conflict = non-fault aborts, e.g. stale
#: optimistic routing).
REASON_CONFLICT = "conflict"
REASON_TIMEOUT = "timeout"
REASON_SITE_CRASH = "site_crash"

#: Pseudo-site index for the front-end tier (selector/router machines).
FRONTEND = -1


class FaultError(Exception):
    """Base class for injected-failure conditions."""

    reason = REASON_TIMEOUT


class RpcTimeout(FaultError):
    """An RPC got no response within the timeout.

    ``dispatched`` records whether the request reached the destination
    and a handler actually started there — the caller uses it to decide
    who cleans up in-flight registrations (the handler's own ``finally``
    if it ran, the caller otherwise).
    """

    reason = REASON_TIMEOUT

    def __init__(self, message: str, dispatched: bool = False):
        super().__init__(message)
        self.dispatched = dispatched


class SiteDown(FaultError):
    """The destination site is crashed (connection refused / reset)."""

    reason = REASON_SITE_CRASH

    def __init__(self, site: int):
        super().__init__(f"site {site} is down")
        self.site = site


class TransactionAborted(FaultError):
    """A protocol layer gave up on the transaction for ``reason``."""

    def __init__(self, reason: str, message: str = ""):
        super().__init__(message or f"transaction aborted: {reason}")
        self.reason = reason
