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
* a co-access entry costs what dropping the intra and inter tables
  frees, over their entries;
* a commit time costs what dropping ``Metrics.commit_times`` frees, and
  a latency sample what dropping ``Metrics.latencies`` frees;
* in an observed YCSB run, a span and an instant cost what dropping
  the tracer's spans and instants frees, over their count, and a
  timeline sample what dropping the sampler's timelines frees
  (DESIGN.md §6, "Trace store").

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
from repro.obs import Observability
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


def _freed_by(drop) -> float:
    """Bytes that calling ``drop`` frees."""
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    drop()
    gc.collect()
    return before - tracemalloc.get_traced_memory()[0]


def _traced(run):
    """``run()``'s result, what it allocated that is still live, and
    what its co-access entries, statistics samples, commit times and
    latency samples retain apiece."""
    gc.collect()
    tracemalloc.start()
    try:
        result = run()
        stats = result.system.selector.statistics
        samples = stats._sample_count  # folds what is pending
        gc.collect()
        after_run = tracemalloc.take_snapshot()
        entries = sum(
            len(row) for table in (stats._intra, stats._inter) for row in table.values()
        )
        pair_bytes = _freed_by(lambda: (stats._intra.clear(), stats._inter.clear()))
        stats._writes.clear()
        gc.collect()
        without_tables = tracemalloc.take_snapshot()
        metrics = result.metrics
        commits = len(metrics.commit_times)
        commit_time_bytes = _freed_by(lambda: setattr(metrics, "commit_times", None))
        latencies = sum(map(len, metrics.latencies.values()))
        latency_bytes = _freed_by(metrics.latencies.clear)
    finally:
        tracemalloc.stop()
    statistics_file = inspect.getsourcefile(type(stats))
    return result, after_run, {
        "samples": samples,
        "entries": entries,
        "pair_bytes": pair_bytes / entries if entries else 0.0,
        "sample_bytes": sum(
            stat.size for stat in without_tables.filter_traces(
                [tracemalloc.Filter(True, statistics_file)]
            ).statistics("filename")
        ) / samples,
        "commits": commits,
        "commit_time_bytes": commit_time_bytes / commits,
        "latencies": latencies,
        "latency_bytes": latency_bytes / latencies,
    }


def _observed():
    obs = Observability()
    return obs, run_benchmark(
        "dynamast", build_workload("ycsb"),
        num_clients=16, duration_ms=300.0, warmup_ms=0.0, seed=89, obs=obs,
    )


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

    def test_a_co_access_entry_is_a_dict_slot(self, retained):
        """43.2 / 42.9 / 42.9 B a pair entry of the intra and inter
        tables on CPython 3.10.13 / 3.11.7 / 3.12.1: its slot in its
        partition's row. Each count is a small int and each partition
        id the scheme's one object. A boxed float count per entry and a
        fresh int per sampled partition id made it 58.0 / 58.1 /
        58.1 B."""
        assert retained["entries"] > 5000
        assert retained["pair_bytes"] <= 45

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

    def test_a_latency_sample_is_eight_bytes(self, ycsb):
        """8.3 B a committed transaction's latency on CPython 3.10.13,
        3.11.7 and 3.12.1: one double in its type's ``array('d')``. A
        list of boxed floats made it 32.6 B."""
        assert ycsb["latencies"] == ycsb["commits"]
        assert ycsb["latency_bytes"] <= 9

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


@pytest.fixture(scope="module")
def traced():
    """One short observed YCSB run, and what each kind of trace record
    and each timeline sample retains."""
    gc.collect()
    tracemalloc.start()
    try:
        obs, result = _observed()
        tracer, timelines = obs.tracer, obs.sampler.timelines
        measured = {}
        for kind in ("spans", "instants"):
            count = measured[kind] = len(getattr(tracer, kind))
            measured[f"{kind}_bytes"] = _freed_by(
                lambda kind=kind: setattr(tracer, kind, None)) / count
        samples = measured["samples"] = sum(map(len, timelines.values()))
        measured["samples_bytes"] = _freed_by(
            lambda: (timelines.clear(), result.timelines.clear())) / samples
    finally:
        tracemalloc.stop()
    return measured


class TestWhatATraceRetains:
    """Measured on CPython 3.11.7: arg values in typed columns per shape
    and 4-byte transaction ids; timelines as two ``array('d')``
    columns. The figure after "Was" is the store these replaced: 8-byte
    ids, every arg value behind a pointer in one list, and a tuple of
    two floats per sample."""

    def test_the_run_records_every_kind(self, traced):
        assert traced["spans"] > 20000 and traced["instants"] > 7000
        assert traced["samples"] > 500

    def test_a_span_is_a_row_of_columns(self, traced):
        """27.8 B a span: shape code, two times, a 4-byte id, and its
        args (a 2-byte code for the network category). Was 34.1 B."""
        assert traced["spans_bytes"] <= 30

    def test_an_instant_is_a_row_of_columns(self, traced):
        """25.4 B an instant, most of them a log delivery and its
        sequence number in an ``array('q')``, a quarter an rpc and its
        round trip in an ``array('d')`` next to its outcome and
        category codes. Was 34.0 B, with a boxed int per sequence
        number (and 75.8 B an rpc, with a boxed float per round trip)."""
        assert traced["instants_bytes"] <= 29

    def test_a_timeline_sample_is_two_doubles(self, traced):
        """27.3 B a sample over 25 timelines of 30 samples: two
        doubles, and each timeline's object and arrays shared by its
        30 samples. Was 94.9 B, a tuple of two boxed floats each."""
        assert traced["samples_bytes"] <= 30
