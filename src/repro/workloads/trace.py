"""Workload trace recording and replay.

The live generators draw from a random stream shared by all simulated
clients, so the exact per-client transaction sequence depends on how
the systems under test interleave them — statistically identical, but
not transaction-for-transaction identical across systems. For
experiments that want *exactly* the same input everywhere (the
strictest apples-to-apples), a trace can be pre-generated once per
client and replayed against every system.

Transactions are re-instantiated on each replay (fresh txn ids and
timing buckets); the key sets, types and session boundaries are
preserved bit-for-bit, and scan blocks are passed through by reference
(the replayed transaction shares the recorded block objects).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.strategy import StrategyWeights
from repro.partitioning.schemes import PartitionScheme
from repro.transactions import Key, ScanBlock, Transaction
from repro.workloads.base import ClientTurn, Workload


@dataclass(frozen=True)
class TraceEntry:
    """One recorded client step."""

    txn_type: str
    write_set: Tuple[Key, ...]
    read_set: Tuple[Key, ...]
    scan_set: Tuple[ScanBlock, ...]
    extra_cpu_ms: float
    reset_session: bool


def record_trace(
    workload: Workload,
    num_clients: int,
    txns_per_client: int,
    seed: int = 0,
    time_step_ms: float = 1.0,
) -> "WorkloadTrace":
    """Pre-generate ``txns_per_client`` steps for each client.

    Each client gets its own derived random stream, so the recorded
    sequences are independent of any interleaving.
    """
    per_client: List[List[TraceEntry]] = []
    for client_id in range(num_clients):
        rng = random.Random((seed << 16) ^ client_id)
        state = workload.new_client_state(client_id, rng)
        entries: List[TraceEntry] = []
        now = 0.0
        for _ in range(txns_per_client):
            turn = workload.next_transaction(state, rng, now)
            txn = turn.txn
            entries.append(
                TraceEntry(
                    txn_type=txn.txn_type,
                    write_set=txn.write_set,
                    read_set=txn.read_set,
                    scan_set=txn.scan_set,
                    extra_cpu_ms=txn.extra_cpu_ms,
                    reset_session=turn.reset_session,
                )
            )
            now += time_step_ms
        per_client.append(entries)
    return WorkloadTrace(workload, per_client)


@dataclass
class _ReplayState:
    client_id: int
    position: int = 0


class WorkloadTrace(Workload):
    """A recorded trace, replayable as a workload.

    Each client replays its recorded sequence in order; when a client
    exhausts its trace, the sequence wraps around (with a session reset
    at the wrap, mimicking client replacement).
    """

    name = "trace"

    def __init__(self, source: Workload, per_client: List[List[TraceEntry]]):
        if not per_client or not all(per_client):
            raise ValueError("a trace needs at least one entry per client")
        self._source = source
        self._per_client = per_client
        self.name = f"trace({source.name})"

    @property
    def scheme(self) -> PartitionScheme:
        return self._source.scheme

    def fixed_placement(self, num_sites: int) -> Dict[int, int]:
        return self._source.fixed_placement(num_sites)

    def placement_unit_of(self, key: Key) -> Optional[int]:
        return self._source.placement_unit_of(key)

    def recommended_weights(self) -> StrategyWeights:
        return self._source.recommended_weights()

    def initial_records(self):
        return self._source.initial_records()

    @property
    def num_clients(self) -> int:
        return len(self._per_client)

    def entries_for(self, client_id: int) -> List[TraceEntry]:
        return self._per_client[client_id % len(self._per_client)]

    def new_client_state(self, client_id: int, rng) -> _ReplayState:
        return _ReplayState(client_id=client_id)

    def next_transaction(self, state: _ReplayState, rng, now: float) -> ClientTurn:
        entries = self.entries_for(state.client_id)
        wrapped = state.position >= len(entries)
        if wrapped:
            state.position = 0
        entry = entries[state.position]
        state.position += 1
        txn = Transaction(
            entry.txn_type,
            state.client_id,
            write_set=entry.write_set,
            read_set=entry.read_set,
            scan_set=entry.scan_set,
            extra_cpu_ms=entry.extra_cpu_ms,
        )
        return ClientTurn(txn, reset_session=entry.reset_session or wrapped)
