"""Workload access statistics (paper §V-B).

The site selector records every update transaction's write set (the
paper's sampling at rate one) and maintains, per partition:

* a write access count (the load-balance feature's ``freq``);
* intra-transaction co-access counts — partitions written together in
  one transaction (Equation 6's :math:`P(d_2 | d_1)`);
* inter-transaction co-access counts — partitions written by the same
  client within a time window :math:`\\Delta t` of each other
  (Equation 7's :math:`P(d_2 | d_1; T \\le \\Delta t)`).

Samples are retained in a bounded window, kept as typed columns (one
row per sample, oldest first); expiring a sample decrements every count
it contributed, so the statistics track a sliding window of the
workload and adapt when access patterns change (§VI-B5).

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

from array import array
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

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


#: Removed rows the window columns hold at their head before
#: :meth:`AccessStatistics._compact` drops them. It also waits until
#: half the rows are removed, so a removal costs amortised O(1).
COMPACT_AT = 64


class AccessStatistics:
    """Sliding-window partition access and co-access statistics."""

    def __init__(self, config: StatisticsConfig, track_inter: bool = True):
        self.config = config
        #: Whether inter-transaction pairs are recorded; the selector
        #: derives it from its weights (a zero ``inter_txn`` weight
        #: never reads the table).
        self.track_inter = track_inter
        self._writes: Dict[int, float] = {}
        #: Incremental ``sum(self._writes.values())``; exact because
        #: every mutation is +-1.0 per partition.
        self._mass: float = 0.0
        self._intra: Dict[int, Dict[int, float]] = {}
        self._inter: Dict[int, Dict[int, float]] = {}
        #: The retained window, one row per sample, oldest first. Rows
        #: before ``_head`` are removed and wait for :meth:`_compact`;
        #: ``_part_head`` / ``_first_head`` are where the head row's
        #: entries start in the two flat columns.
        self._times = array("d")
        #: Each row's partition count, and the sorted partitions flat.
        #: A partition id is below its workload's ``num_partitions``,
        #: so four bytes hold it.
        self._sizes = array("I")
        self._parts = array("I")
        #: Inter tracking only: each row's count of "first" partitions,
        #: and those flat — the client's earlier write sets inside Δt
        #: concatenated, cut after the last one :meth:`_pairs` paired.
        #: Removal walks them again, so it decays exactly the pairs
        #: recording added.
        self._first_sizes = array("I")
        self._firsts = array("I")
        self._head = 0
        self._part_head = 0
        self._first_head = 0
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
    def _sample_count(self) -> int:
        """Retained samples (folds pending samples)."""
        if self._pending:
            self._fold()
        return len(self._times) - self._head

    # -- recording ---------------------------------------------------------

    def observe(self, now: float, client_id: int, partitions: Iterable[int]) -> None:
        """Record one write transaction's partition set."""
        partitions = tuple(sorted(set(partitions)))
        if not partitions:
            return
        pending = self._pending
        pending.append((now, client_id, partitions))
        # ``max_samples`` bounds the buffer as well as the window.
        if len(pending) >= self.config.max_samples:
            self._fold()

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

        if self.track_inter:
            firsts = self._record_inter(now, client_id, partitions)
            self._first_sizes.append(len(firsts))
            self._firsts.extend(firsts)
        self._times.append(now)
        self._sizes.append(len(partitions))
        self._parts.extend(partitions)
        if len(self._times) - self._head > self.config.max_samples:
            self._remove_oldest()

    def _pairs(
        self, firsts: Sequence[int], partitions: Sequence[int]
    ) -> Iterator[Tuple[int, int]]:
        """The inter-transaction pairs one sample contributes, in order,
        as ``(index into firsts, later)``.

        Every ``(first, later)`` with ``first`` in ``firsts`` (the
        earlier write sets, concatenated), ``later`` in ``partitions``
        and ``first != later``, stopping at ``max_inter_pairs``.
        Recording and removal both walk this, so a sample takes away
        exactly the pairs it added.
        """
        cap = self.config.max_inter_pairs
        count = 0
        for index, first in enumerate(firsts):
            for later in partitions:
                if first != later:
                    yield index, later
                    count += 1
                    if count >= cap:
                        return

    def _record_inter(
        self, now: float, client_id: int, partitions: Tuple[int, ...]
    ) -> List[int]:
        """Pair this write set with the client's recent ones within Δt;
        returns the "first" partitions the pairs walked, in order."""
        window = self.config.inter_txn_window_ms
        recent = self._recent.get(client_id)
        if recent is None:
            recent = self._recent[client_id] = deque()
        horizon = now - window
        while recent and recent[0][0] < horizon:
            recent.popleft()
        firsts = [first for _, previous in recent for first in previous]
        # A row is only created when a pair is actually added, so the
        # table never holds an empty row.
        inter = self._inter
        walked = 0
        for index, later in self._pairs(firsts, partitions):
            first = firsts[index]
            row = inter.get(first)
            if row is None:
                row = inter[first] = {}
            if later in row:
                row[later] += 1.0
            else:
                row[later] = 1.0
            walked = index + 1
        del firsts[walked:]
        recent.append((now, partitions))
        return firsts

    # -- expiry -----------------------------------------------------------------

    def _expire(self, now: float) -> None:
        horizon = now - self.config.expiry_ms
        times = self._times
        while self._head < len(times) and times[self._head] < horizon:
            self._remove_oldest()

    def _remove_oldest(self) -> None:
        """Take the head row's counts away and advance the head."""
        head = self._head
        start = self._part_head
        end = self._part_head = start + self._sizes[head]
        partitions = self._parts[start:end]
        writes = self._writes
        for partition in partitions:
            count = writes.get(partition, 0.0) - 1.0
            if count <= 0:
                writes.pop(partition, None)
            else:
                writes[partition] = count
        self._mass -= float(len(partitions))
        if self._site_writes:
            self._shift_site_writes(partitions, -1.0)
        for index, left in enumerate(partitions):
            for right in partitions[index + 1:]:
                self._decay(self._intra, left, right)
                self._decay(self._intra, right, left)
        if self.track_inter:
            start = self._first_head
            end = self._first_head = start + self._first_sizes[head]
            firsts = self._firsts[start:end]
            for index, later in self._pairs(firsts, partitions):
                self._decay(self._inter, firsts[index], later)
        self._head = head = head + 1
        if head >= COMPACT_AT and 2 * head >= len(self._times):
            self._compact()

    def _compact(self) -> None:
        """Drop the removed rows from the front of every column."""
        head = self._head
        del self._times[:head]
        del self._sizes[:head]
        del self._parts[:self._part_head]
        del self._first_sizes[:head]
        del self._firsts[:self._first_head]
        self._head = self._part_head = self._first_head = 0

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

    def access_fraction(self, partition: int) -> float:
        """``partition``'s share of all sampled write accesses.

        Normalized by total access mass, so summing over all partitions
        yields 1 — the ``freq`` needed by the load-balance feature
        (Equation 2).
        """
        if self._pending:
            self._fold()
        if self._mass <= 0:
            return 0.0
        return self._writes.get(partition, 0.0) / self._mass

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

    def _shift_site_writes(self, partitions: Sequence[int], amount: float) -> None:
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
