"""Deterministic discrete-event simulation substrate.

Everything in this reproduction — clients, data sites, RPCs, the
replication stream, 2PC rounds, lock waits — runs as simulated processes
against a virtual clock provided by this package. The engine is a small,
self-contained SimPy-style kernel: generator-based processes yield
:class:`~repro.sim.core.Event` objects and are resumed when those events
trigger. Runs are fully deterministic for a given seed.
"""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.network import Network
from repro.sim.rand import RandomStreams, ZipfGenerator
from repro.sim.resources import Resource, RWLock, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Network",
    "Process",
    "RandomStreams",
    "Resource",
    "RWLock",
    "SimulationError",
    "Store",
    "Timeout",
    "ZipfGenerator",
]
