"""What a DynaMast run retains per commit (DESIGN.md §8, "What a commit
retains").

One DynaMast TPC-C run and one YCSB run are traced by ``tracemalloc``
from before they start; what is still allocated once each is over is
attributed to the code that allocated it:

* an update log record costs what ``DataSite._commit`` allocates for it
  — the record itself; the write set it logs is the transaction's own
  tuple, allocated by the workload, and is not counted. The logs fold
  their records into the checkpoint, so the test keeps every appended
  record alive to measure them;
* a statistics sample costs what ``core/statistics.py`` still holds
  once the co-access tables every sample shares are dropped;
* a commit time costs what dropping ``Metrics.commit_times`` frees.

The logs themselves keep a suffix bounded by one constant, whatever the
run's length.
"""

from __future__ import annotations

import gc
import inspect
import tracemalloc
from unittest import mock

import pytest

from repro.bench import run_benchmark
from repro.replication.log import UPDATE, DurableLog
from repro.replication.recovery import FOLD_EVERY
from repro.sites.data_site import DataSite
from repro.workloads import build_workload

#: The record kinds whose keys TPC-C shares, one object per record.
SHARED_TABLES = ("warehouse", "district", "customer", "stock")

#: Records a finished run's logs may retain, whatever its length: the
#: appends since the last fold (under ``FOLD_EVERY``) plus those some
#: live replica had not applied at it (a few dozen measured).
RETAINED_BOUND = 2 * FOLD_EVERY


def _tpcc(num_clients, duration_ms):
    return run_benchmark(
        "dynamast", build_workload("tpcc", warehouses=4, items=1000),
        num_clients=num_clients, duration_ms=duration_ms, warmup_ms=0.0, seed=89,
    )


def _ycsb():
    """Inter-transaction pairs are not tracked: YCSB's weight is zero."""
    return run_benchmark(
        "dynamast", build_workload("ycsb"),
        num_clients=16, duration_ms=300.0, warmup_ms=0.0, seed=89,
    )


def _allocated_in(snapshot, function) -> int:
    """Bytes of ``snapshot`` allocated on ``function``'s source lines."""
    lines, first = inspect.getsourcelines(function)
    path = inspect.getsourcefile(function)
    return sum(
        trace.size for trace in snapshot.traces
        if trace.traceback[0].filename == path
        and first <= trace.traceback[0].lineno < first + len(lines)
    )


def _traced(run):
    """``run()``'s result, what it allocated that is still live, and
    what its statistics samples and commit times retain apiece."""
    gc.collect()
    tracemalloc.start()
    try:
        result = run()
        stats = result.system.selector.statistics
        samples = stats._sample_count  # folds what is pending
        gc.collect()
        after_run = tracemalloc.take_snapshot()
        stats._intra.clear()
        stats._inter.clear()
        stats._writes.clear()
        gc.collect()
        without_tables = tracemalloc.take_snapshot()
        commits = len(result.metrics.commit_times)
        with_times = tracemalloc.get_traced_memory()[0]
        result.metrics.commit_times = None
        gc.collect()
        commit_time_bytes = (with_times - tracemalloc.get_traced_memory()[0]) / commits
    finally:
        tracemalloc.stop()
    statistics_file = inspect.getsourcefile(type(stats))
    return result, after_run, {
        "samples": samples,
        "sample_bytes": sum(
            stat.size for stat in without_tables.filter_traces(
                [tracemalloc.Filter(True, statistics_file)]
            ).statistics("filename")
        ) / samples,
        "commits": commits,
        "commit_time_bytes": commit_time_bytes,
    }


@pytest.fixture(scope="module")
def retained():
    """One short TPC-C run, and what it retains per record and per sample."""
    appended = []
    append = DurableLog.append

    def keep(log, record):
        appended.append(record)
        append(log, record)

    with mock.patch.object(DurableLog, "append", keep):
        result, after_run, measured = _traced(
            lambda: _tpcc(num_clients=8, duration_ms=300.0)
        )
    records = [record for record in appended if record.kind == UPDATE]
    return {
        **measured,
        "logs": [site.log for site in result.system.sites],
        "records": records,
        "record_bytes": _allocated_in(after_run, DataSite._commit) / len(records),
    }


@pytest.fixture(scope="module")
def ycsb():
    """One short YCSB run, and what it retains per sample and commit."""
    return _traced(_ycsb)[2]


class TestWhatACommitRetains:
    def test_the_run_is_long_enough_to_measure(self, retained):
        assert len(retained["records"]) > 500
        assert retained["samples"] > 500

    def test_an_update_record_allocates_only_itself(self, retained):
        """80 B a record: six slots, its stamp and tvv, and the
        transaction's own write-set tuple. A ``value`` slot made it
        88 B; a ``(key, txn_id)`` pair per key and a tuple of them,
        988 B."""
        assert retained["record_bytes"] <= 85

    def test_a_sample_is_a_row_of_columns(self, retained):
        """127 B a sample: its time, its partitions and the
        "first" partitions of its inter-transaction pairs, each in a
        typed column. A ``_Sample`` object keeping references to the
        earlier write sets made it 267 B; a flat tuple of up to
        ``max_inter_pairs`` pairs, 1 221 B."""
        assert retained["sample_bytes"] <= 140

    def test_a_sample_without_inter_pairs_is_a_time_and_its_partitions(self, ycsb):
        """22.5 B a sample on YCSB, which tracks no
        inter-transaction pairs: its time, its partition count and its
        partitions. A ``_Sample`` object made it 131 B."""
        assert ycsb["samples"] > 500
        assert ycsb["sample_bytes"] <= 26

    def test_a_commit_time_is_eight_bytes(self, ycsb):
        """8.4 B a commit: one double in an ``array('d')`` plus its
        over-allocation. A list of boxed floats made it 32 B."""
        assert ycsb["commits"] > 500
        assert ycsb["commit_time_bytes"] <= 9

    def test_tpcc_logs_share_one_key_per_record(self, retained):
        """Equal warehouse, district, customer and stock keys across
        every site's log are one object."""
        keys = [
            key for record in retained["records"] for key in record.keys
            if key[0] in SHARED_TABLES
        ]
        assert len(keys) > 5000
        assert len({id(key) for key in keys}) == len(set(keys))


class TestTheLogsStayBounded:
    @pytest.fixture(scope="class")
    def longer(self):
        """A run of perfbench's ``tpcc-dynamast`` size: 16 clients, 1 200 ms."""
        return [site.log for site in _tpcc(num_clients=16, duration_ms=1200.0).system.sites]

    def test_a_short_and_a_long_run_retain_under_one_bound(self, retained, longer):
        for logs in (retained["logs"], longer):
            assert sum(len(log) for log in logs) > 2 * RETAINED_BOUND
            assert sum(len(log.records) for log in logs) <= RETAINED_BOUND
