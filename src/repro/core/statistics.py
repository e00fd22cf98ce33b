"""Workload access statistics (paper §V-B).

The site selector records every update transaction's write set (the
paper's sampling at rate one) and maintains, per partition:

* a write access count (the load-balance feature's ``freq``);
* intra-transaction co-access counts — partitions written together in
  one transaction (Equation 6's :math:`P(d_2 | d_1)`);
* inter-transaction co-access counts — partitions written by the same
  client within a time window :math:`\\Delta t` of each other
  (Equation 7's :math:`P(d_2 | d_1; T \\le \\Delta t)`).

Samples are recorded in a bounded history queue; expiring a sample
decrements every count it contributed, so the statistics track a
sliding window of the workload and adapt when access patterns change
(§VI-B5).

Ingestion is **lazy**: :meth:`AccessStatistics.observe` is on the hot
routing path of every update transaction, while the counts are only
read on the (rare, <3% in the paper) remastering path. ``observe``
therefore just timestamps the write set into a pending buffer, and
every query first *folds* the buffer by replaying the
eager algorithm sample by sample, each with its own observe-time
expiry horizon. A folded state is bit-identical to what per-observe
ingestion would have produced (pinned by the golden statistics test),
and queries remain side-effect-free in the observable sense: folding
only materializes state that was already determined at observe time.

Per-site write loads, read on every remastering decision, are kept
**incrementally** once a partition table is attached
(:meth:`AccessStatistics.follow_masters`): a per-site total moves when a
sample is ingested, expired or evicted, and when a master changes. Every
count is an integer-valued float (each mutation is ±1.0), so the sums
are exact and order-independent below 2**53 and the totals equal a
rescan of the window bit for bit (DESIGN.md §8).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Mapping, Tuple

from repro.sim.config import check_config


@dataclass
class StatisticsConfig:
    """Retention knobs."""

    #: The inter-transaction window Delta-t, in simulated ms.
    inter_txn_window_ms: float = 20.0
    #: Sample lifetime; expired samples decrement their counts.
    expiry_ms: float = 4000.0
    #: Hard cap on retained samples (memory bound).
    max_samples: int = 20000
    #: Cap on inter-transaction pairs contributed by one sample.
    max_inter_pairs: int = 64

    def __post_init__(self):
        check_config(self, (
            ("inter_txn_window_ms", self.inter_txn_window_ms > 0, "> 0"),
            ("expiry_ms", self.expiry_ms > 0, "> 0"),
            ("max_samples", self.max_samples >= 1, ">= 1"),
            ("max_inter_pairs", self.max_inter_pairs >= 1, ">= 1"),
        ))


@dataclass(slots=True)
class _Sample:
    """One sampled write set and what it takes to undo its counts."""

    time: float
    client_id: int
    partitions: Tuple[int, ...]
    #: The client's earlier write sets inside Δt when this one was
    #: ingested — shared references, not copies. Its inter-transaction
    #: pairs are :meth:`AccessStatistics._pairs` of these and
    #: ``partitions``, derived again when the sample is removed.
    earlier: Tuple[Tuple[int, ...], ...]


class AccessStatistics:
    """Sliding-window partition access and co-access statistics."""

    def __init__(self, config: StatisticsConfig, track_inter: bool = True):
        self.config = config
        #: Whether inter-transaction pairs are recorded; the selector
        #: derives it from its weights (a zero ``inter_txn`` weight
        #: never reads the table).
        self.track_inter = track_inter
        self._writes: Dict[int, float] = {}
        self._total: float = 0.0
        #: Incremental ``sum(self._writes.values())``; exact because
        #: every mutation is +-1.0 per partition.
        self._mass: float = 0.0
        self._intra: Dict[int, Dict[int, float]] = {}
        self._inter: Dict[int, Dict[int, float]] = {}
        self._retained: Deque[_Sample] = deque()
        #: Per-client recent write sets for the inter-txn window.
        self._recent: Dict[int, Deque[Tuple[float, Tuple[int, ...]]]] = {}
        #: Sampled write sets awaiting ingestion, in observe order.
        self._pending: List[Tuple[float, int, Tuple[int, ...]]] = []
        #: Live partition -> master map and the retained write count
        #: mastered at each site (see :meth:`follow_masters`).
        self._masters: Mapping[int, int] = {}
        self._site_writes: List[float] = []

    # -- folded views ------------------------------------------------------

    @property
    def partition_writes(self) -> Dict[int, float]:
        """Per-partition write counts (folds pending samples)."""
        if self._pending:
            self._fold()
        return self._writes

    @property
    def total_writes(self) -> float:
        """Retained sampled-transaction count (folds pending samples)."""
        if self._pending:
            self._fold()
        return self._total

    @property
    def co_intra(self) -> Dict[int, Dict[int, float]]:
        if self._pending:
            self._fold()
        return self._intra

    @property
    def co_inter(self) -> Dict[int, Dict[int, float]]:
        if self._pending:
            self._fold()
        return self._inter

    @property
    def _samples(self) -> Deque[_Sample]:
        if self._pending:
            self._fold()
        return self._retained

    # -- recording ---------------------------------------------------------

    def observe(self, now: float, client_id: int, partitions: Iterable[int]) -> None:
        """Record one write transaction's partition set."""
        partitions = tuple(sorted(set(partitions)))
        if not partitions:
            return
        self._pending.append((now, client_id, partitions))

    def _fold(self) -> None:
        """Ingest every pending sample exactly as eager observe did."""
        pending = self._pending
        self._pending = []
        for now, client_id, partitions in pending:
            self._ingest(now, client_id, partitions)

    def _ingest(self, now: float, client_id: int, partitions: Tuple[int, ...]) -> None:
        self._expire(now)

        writes = self._writes
        for partition in partitions:
            if partition in writes:
                writes[partition] += 1.0
            else:
                writes[partition] = 1.0
        self._total += 1.0
        self._mass += float(len(partitions))
        if self._site_writes:
            self._shift_site_writes(partitions, 1.0)

        # Rows are created in the order a per-pair bump would create
        # them and filled in the same order, so every co-access row
        # iterates exactly as the golden statistics trace pins.
        intra = self._intra
        for index in range(len(partitions) - 1):
            left = partitions[index]
            left_row = intra.get(left)
            if left_row is None:
                left_row = intra[left] = {}
            for right in partitions[index + 1:]:
                if right in left_row:
                    left_row[right] += 1.0
                else:
                    left_row[right] = 1.0
                row = intra.get(right)
                if row is None:
                    row = intra[right] = {}
                if left in row:
                    row[left] += 1.0
                else:
                    row[left] = 1.0

        earlier = (
            self._record_inter(now, client_id, partitions) if self.track_inter else ()
        )
        self._retained.append(_Sample(now, client_id, partitions, earlier))
        if len(self._retained) > self.config.max_samples:
            self._remove(self._retained.popleft())

    def _pairs(self, earlier: Tuple[Tuple[int, ...], ...], partitions: Tuple[int, ...]):
        """The inter-transaction pairs one sample contributes, in order.

        Every ``(first, later)`` with ``first`` in an earlier write set,
        ``later`` in ``partitions`` and ``first != later``, stopping at
        ``max_inter_pairs``. Recording and removal both walk this, so a
        sample takes away exactly the pairs it added.
        """
        cap = self.config.max_inter_pairs
        count = 0
        for previous in earlier:
            for first in previous:
                for later in partitions:
                    if first != later:
                        yield first, later
                        count += 1
                        if count >= cap:
                            return

    def _record_inter(
        self, now: float, client_id: int, partitions: Tuple[int, ...]
    ) -> Tuple[Tuple[int, ...], ...]:
        """Pair this write set with the client's recent ones within Δt;
        returns those earlier write sets."""
        window = self.config.inter_txn_window_ms
        recent = self._recent.get(client_id)
        if recent is None:
            recent = self._recent[client_id] = deque()
        horizon = now - window
        while recent and recent[0][0] < horizon:
            recent.popleft()
        earlier = tuple([previous for _, previous in recent])
        # A row is only created when a pair is actually added, so the
        # table never holds an empty row.
        inter = self._inter
        for first, later in self._pairs(earlier, partitions):
            row = inter.get(first)
            if row is None:
                row = inter[first] = {}
            if later in row:
                row[later] += 1.0
            else:
                row[later] = 1.0
        recent.append((now, partitions))
        return earlier

    # -- expiry -----------------------------------------------------------------

    def _expire(self, now: float) -> None:
        horizon = now - self.config.expiry_ms
        retained = self._retained
        while retained and retained[0].time < horizon:
            self._remove(retained.popleft())

    def _remove(self, sample: _Sample) -> None:
        writes = self._writes
        for partition in sample.partitions:
            count = writes.get(partition, 0.0) - 1.0
            if count <= 0:
                writes.pop(partition, None)
            else:
                writes[partition] = count
        self._total = max(0.0, self._total - 1.0)
        self._mass -= float(len(sample.partitions))
        if self._site_writes:
            self._shift_site_writes(sample.partitions, -1.0)
        for index, left in enumerate(sample.partitions):
            for right in sample.partitions[index + 1:]:
                self._decay(self._intra, left, right)
                self._decay(self._intra, right, left)
        for first, later in self._pairs(sample.earlier, sample.partitions):
            self._decay(self._inter, first, later)

    @staticmethod
    def _decay(table: Dict[int, Dict[int, float]], left: int, right: int) -> None:
        row = table.get(left)
        if row is None:
            return
        count = row.get(right, 0.0) - 1.0
        if count <= 0:
            row.pop(right, None)
            if not row:
                table.pop(left, None)
        else:
            row[right] = count

    # -- queries -------------------------------------------------------------------

    def write_fraction(self, partition: int) -> float:
        """Fraction of sampled write transactions touching ``partition``."""
        if self._pending:
            self._fold()
        if self._total <= 0:
            return 0.0
        return self._writes.get(partition, 0.0) / self._total

    def access_fraction(self, partition: int) -> float:
        """``partition``'s share of all sampled write accesses.

        Unlike :meth:`write_fraction` this normalizes by total access
        mass, so summing over all partitions yields 1 — the ``freq``
        needed by the load-balance feature (Equation 2).
        """
        if self._pending:
            self._fold()
        if self._mass <= 0:
            return 0.0
        return self._writes.get(partition, 0.0) / self._mass

    def intra_probability(self, first: int, second: int) -> float:
        """P(second | first) within a transaction (Eq. 6 numerator)."""
        if self._pending:
            self._fold()
        base = self._writes.get(first, 0.0)
        if base <= 0:
            return 0.0
        return self._intra.get(first, {}).get(second, 0.0) / base

    def inter_probability(self, first: int, second: int) -> float:
        """P(second | first; T <= Δt) across transactions (Eq. 7)."""
        if self._pending:
            self._fold()
        base = self._writes.get(first, 0.0)
        if base <= 0:
            return 0.0
        return self._inter.get(first, {}).get(second, 0.0) / base

    def intra_partners(self, partition: int) -> Dict[int, float]:
        """Co-access counts of partitions written with ``partition``."""
        if self._pending:
            self._fold()
        return self._intra.get(partition, {})

    def inter_partners(self, partition: int) -> Dict[int, float]:
        if self._pending:
            self._fold()
        return self._inter.get(partition, {})

    # -- per-site write loads ----------------------------------------------

    def follow_masters(self, table, num_sites: int) -> None:
        """Keep per-site write totals against ``table``'s live masters.

        ``table`` (a :class:`~repro.core.partitions.PartitionTable`)
        reports every reassignment to :meth:`_master_changed` before
        applying it; the totals start from the only rescan this class
        does and are owned here from then on.
        """
        if self._pending:
            self._fold()
        self._masters = masters = table.masters
        self._site_writes = totals = [0.0] * num_sites
        for partition, count in self._writes.items():
            totals[masters[partition]] += count
        table.on_master_change = self._master_changed

    def _shift_site_writes(self, partitions: Tuple[int, ...], amount: float) -> None:
        masters = self._masters
        totals = self._site_writes
        for partition in partitions:
            totals[masters[partition]] += amount

    def _master_changed(self, partition: int, old: int, new: int) -> None:
        """Move ``partition``'s folded writes from site ``old`` to ``new``.

        Pending samples need no care: they are not in the totals yet and
        will be counted at whichever master is current when they fold.
        """
        count = self._writes.get(partition)
        if count:
            self._site_writes[old] -= count
            self._site_writes[new] += count

    def site_write_loads(self) -> List[float]:
        """Fraction of sampled writes mastered at each site.

        Needs :meth:`follow_masters`; O(sites), not O(partitions).
        """
        if self._pending:
            self._fold()
        total = self._mass
        if total <= 0:
            return [0.0] * len(self._site_writes)
        return [load / total for load in self._site_writes]
