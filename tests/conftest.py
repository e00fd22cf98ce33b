"""Shared test configuration: a per-test hang watchdog, and the
``retained_bytes`` fixture the bytes-budget tests measure with.

The chaos/property suites drive fault schedules against the protocol
stack, where the characteristic failure mode is non-termination (a
leaked lock or an undelivered 2PC decision wedges the simulation), so
every test runs under a wall-clock timeout. With ``pytest-timeout``
installed, that plugin enforces it; otherwise a SIGALRM fallback
provides the same guarantee on POSIX. Individual tests can override
the budget with ``@pytest.mark.timeout(seconds)``.
"""

from __future__ import annotations

import gc
import importlib.util
import signal
import tracemalloc

import pytest

DEFAULT_TIMEOUT_S = 300

_HAVE_PYTEST_TIMEOUT = importlib.util.find_spec("pytest_timeout") is not None
_HAVE_SIGALRM = hasattr(signal, "SIGALRM")


@pytest.fixture
def retained_bytes():
    """``retained_bytes(build)`` runs ``build()`` under tracemalloc and
    returns ``(what it built, the bytes still allocated for it)``."""

    def measure(build):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            built = build()
            return built, tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    return measure


def pytest_configure(config):
    if _HAVE_PYTEST_TIMEOUT:
        # Give the plugin a default without requiring ini configuration
        # (which would warn when the plugin is absent).
        if not getattr(config.option, "timeout", None):
            config.option.timeout = DEFAULT_TIMEOUT_S
    else:
        config.addinivalue_line(
            "markers",
            "timeout(seconds): per-test wall-clock budget "
            "(SIGALRM fallback; pytest-timeout not installed)",
        )


if not _HAVE_PYTEST_TIMEOUT and _HAVE_SIGALRM:

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(item):
        marker = item.get_closest_marker("timeout")
        seconds = DEFAULT_TIMEOUT_S
        if marker is not None and marker.args:
            seconds = int(marker.args[0])

        def _expired(signum, frame):
            raise TimeoutError(
                f"{item.nodeid} exceeded the {seconds}s watchdog "
                "(likely a non-terminating simulation)"
            )

        previous = signal.signal(signal.SIGALRM, _expired)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
