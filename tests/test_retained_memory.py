"""What a TPC-C run retains per commit (DESIGN.md §8, "What a commit
retains").

One DynaMast TPC-C run is traced by ``tracemalloc`` from before it
starts; what is still allocated once it is over is attributed to the
code that allocated it:

* an update log record costs what ``DataSite._commit`` allocates for it
  — the record itself; the write set it logs is the transaction's own
  tuple, allocated by the workload, and is not counted. The logs fold
  their records into the checkpoint, so the test keeps every appended
  record alive to measure them;
* a statistics sample costs what ``core/statistics.py`` still holds
  once the co-access tables every sample shares are dropped.

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


def _allocated_in(snapshot, function) -> int:
    """Bytes of ``snapshot`` allocated on ``function``'s source lines."""
    lines, first = inspect.getsourcelines(function)
    path = inspect.getsourcefile(function)
    return sum(
        trace.size for trace in snapshot.traces
        if trace.traceback[0].filename == path
        and first <= trace.traceback[0].lineno < first + len(lines)
    )


@pytest.fixture(scope="module")
def retained():
    """One short run, and what it retains per record and per sample."""
    appended = []
    append = DurableLog.append

    def keep(log, record):
        appended.append(record)
        append(log, record)

    gc.collect()
    tracemalloc.start()
    try:
        with mock.patch.object(DurableLog, "append", keep):
            result = _tpcc(num_clients=8, duration_ms=300.0)
        stats = result.system.selector.statistics
        samples = len(stats._samples)  # folds what is pending
        gc.collect()
        after_run = tracemalloc.take_snapshot()
        stats._intra.clear()
        stats._inter.clear()
        stats._writes.clear()
        gc.collect()
        without_tables = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    records = [record for record in appended if record.kind == UPDATE]
    statistics_file = inspect.getsourcefile(type(stats))
    return {
        "logs": [site.log for site in result.system.sites],
        "records": records,
        "samples": samples,
        "record_bytes": _allocated_in(after_run, DataSite._commit) / len(records),
        "sample_bytes": sum(
            stat.size for stat in without_tables.filter_traces(
                [tracemalloc.Filter(True, statistics_file)]
            ).statistics("filename")
        ) / samples,
    }


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

    def test_a_sample_keeps_references_not_pairs(self, retained):
        """267 B a sample: it keeps the earlier write sets it was paired
        with. A flat tuple of up to ``max_inter_pairs`` pairs made it
        1 221 B."""
        assert retained["sample_bytes"] <= 400

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
