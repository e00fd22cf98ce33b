"""Tests for the span tracer: recording, nesting, aggregation."""

import hashlib
import json
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import tracer as tracer_module
from repro.obs.tracer import (
    NULL_TRACER,
    InstantRecord,
    NullTracer,
    SpanRecord,
    Tracer,
    TxnRecord,
)
from repro.transactions import Outcome, Transaction


def make_txn(kind="rmw"):
    return Transaction(kind, client_id=0, write_set=(("t", 1),))


class TestNullTracer:
    def test_disabled_and_inert(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        txn = make_txn()
        tracer.txn_begin(txn, 0.0)
        tracer.span("execute", 0.0, 1.0, track="site0", txn=txn)
        tracer.instant("abort", 1.0, txn=txn)
        tracer.txn_end(txn, Outcome(committed=True), 1.0)
        assert not hasattr(tracer, "spans")

    def test_shared_instance_is_null(self):
        assert isinstance(NULL_TRACER, NullTracer)
        assert not NULL_TRACER.enabled

    def test_real_tracer_substitutes(self):
        assert issubclass(Tracer, NullTracer)
        assert Tracer().enabled

    def test_a_traced_phase_is_one_record_for_both_readers(self):
        tracer = Tracer()
        txn = make_txn()
        tracer.phase("routing", 1.0, 3.0, track="selector", txn=txn,
                     remastered=True)
        assert txn.timings == {"routing": 2.0}
        assert list(tracer.spans) == [SpanRecord(
            "routing", 1.0, 3.0, "selector", txn.txn_id, (("remastered", True),))]


class TestTxnRecords:
    def test_begin_end_roundtrip(self):
        tracer = Tracer()
        txn = make_txn()
        tracer.txn_begin(txn, 10.0)
        tracer.txn_end(txn, Outcome(committed=True, remastered=True), 14.0)
        record = tracer.txns[txn.txn_id]
        assert record.begin == 10.0
        assert record.end == 14.0
        assert record.latency == 4.0
        assert record.committed is True
        assert record.remastered is True
        assert record.recorded is True

    def test_warmup_txn_not_recorded(self):
        tracer = Tracer()
        txn = make_txn()
        tracer.txn_begin(txn, 0.0)
        tracer.txn_end(txn, Outcome(committed=True), 1.0, recorded=False)
        assert tracer.txns[txn.txn_id].recorded is False

    def test_abort_emits_instant_and_counts(self):
        tracer = Tracer()
        txn = make_txn()
        tracer.txn_begin(txn, 0.0)
        tracer.txn_end(txn, Outcome(committed=False), 2.0)
        assert [record.committed for record in tracer.txns.values()] == [False]
        assert tracer.txns[txn.txn_id].recorded is False
        names = [instant.name for instant in tracer.instants]
        assert "abort" in names

    def test_end_without_begin_synthesizes_envelope(self):
        tracer = Tracer()
        txn = make_txn()
        tracer.txn_end(txn, Outcome(committed=True), 5.0)
        record = tracer.txns[txn.txn_id]
        assert record.begin == record.end == 5.0
        assert record.latency == 0.0

    def test_begin_again_starts_the_envelope_over_in_place(self):
        tracer = Tracer()
        first, second = make_txn(), make_txn()
        tracer.txn_begin(first, 1.0)
        tracer.txn_begin(second, 2.0)
        tracer.txn_end(first, Outcome(committed=True, remastered=True), 3.0)
        tracer.txn_begin(first, 4.0)
        assert list(tracer.txns) == [first.txn_id, second.txn_id]
        record = tracer.txns[first.txn_id]
        assert (record.begin, record.end, record.committed, record.remastered,
                record.recorded) == (4.0, None, None, False, False)


class TestSpanTree:
    def test_spans_sorted_by_start_then_length(self):
        tracer = Tracer()
        txn = make_txn()
        tracer.span("inner", 1.0, 2.0, txn=txn)
        tracer.span("outer", 1.0, 5.0, txn=txn)
        tracer.span("early", 0.0, 0.5, txn=txn)
        names = [span.name for span in tracer.spans_of(txn.txn_id)]
        assert names == ["early", "outer", "inner"]

    def test_containment_nesting(self):
        tracer = Tracer()
        txn = make_txn()
        tracer.span("route", 0.0, 10.0, txn=txn)
        tracer.span("release", 1.0, 4.0, txn=txn)
        tracer.span("grant", 4.0, 8.0, txn=txn)
        tracer.span("lock_wait", 1.5, 2.0, txn=txn)
        roots = tracer.span_tree(txn.txn_id)
        assert [node.name for node in roots] == ["route"]
        children = [child.name for child in roots[0].children]
        assert children == ["release", "grant"]
        release = roots[0].children[0]
        assert [child.name for child in release.children] == ["lock_wait"]

    def test_siblings_stay_siblings(self):
        tracer = Tracer()
        txn = make_txn()
        tracer.span("a", 0.0, 2.0, txn=txn)
        tracer.span("b", 2.0, 4.0, txn=txn)
        tracer.span("c", 4.0, 6.0, txn=txn)
        roots = tracer.span_tree(txn.txn_id)
        assert [node.name for node in roots] == ["a", "b", "c"]
        assert all(not node.children for node in roots)

    def test_zero_width_child_at_boundary(self):
        tracer = Tracer()
        txn = make_txn()
        tracer.span("outer", 0.0, 3.0, txn=txn)
        tracer.span("edge", 3.0, 3.0, txn=txn)
        roots = tracer.span_tree(txn.txn_id)
        assert [node.name for node in roots] == ["outer"]
        assert [child.name for child in roots[0].children] == ["edge"]

    def test_self_time_and_walk(self):
        tracer = Tracer()
        txn = make_txn()
        tracer.span("outer", 0.0, 10.0, txn=txn)
        tracer.span("inner", 2.0, 5.0, txn=txn)
        root = tracer.span_tree(txn.txn_id)[0]
        assert root.self_time == 7.0
        paths = [path for path, _ in root.walk("rmw")]
        assert paths == ["rmw/outer", "rmw/outer/inner"]

    def test_tree_ignores_other_txns(self):
        tracer = Tracer()
        a, b = make_txn(), make_txn()
        tracer.span("mine", 0.0, 1.0, txn=a)
        tracer.span("theirs", 0.0, 1.0, txn=b)
        assert [n.name for n in tracer.span_tree(a.txn_id)] == ["mine"]


class TestOrphanSpans:
    """Crash-severed spans: outside the envelope, flagged, never parents."""

    def test_span_outliving_envelope_is_orphan_root(self):
        tracer = Tracer()
        txn = make_txn()
        tracer.txn_begin(txn, 0.0)
        tracer.span("execute", 0.0, 4.0, txn=txn)
        # Severed lock wait released only when a crash interrupted it,
        # long after the client's retry committed.
        tracer.span("lock_wait", 1.0, 50.0, txn=txn)
        tracer.txn_end(txn, Outcome(committed=True), 5.0)
        roots = tracer.span_tree(txn.txn_id)
        assert [(node.name, node.orphan) for node in roots] == [
            ("execute", False), ("lock_wait", True),
        ]

    def test_orphan_does_not_adopt_retry_spans(self):
        tracer = Tracer()
        txn = make_txn()
        tracer.txn_begin(txn, 10.0)
        # Abandoned first attempt: started before the recorded envelope.
        tracer.span("execute", 0.0, 30.0, txn=txn)
        # The genuine retry work, fully inside the envelope.
        tracer.span("commit", 12.0, 14.0, txn=txn)
        tracer.txn_end(txn, Outcome(committed=True), 15.0)
        roots = tracer.span_tree(txn.txn_id)
        nested = [node for node in roots if not node.orphan]
        orphans = [node for node in roots if node.orphan]
        assert [node.name for node in nested] == ["commit"]
        assert [node.name for node in orphans] == ["execute"]
        assert all(not node.children for node in orphans)

    def test_open_envelope_keeps_legacy_containment(self):
        tracer = Tracer()
        txn = make_txn()
        tracer.txn_begin(txn, 0.0)  # never ended (in flight at run end)
        tracer.span("outer", 0.0, 10.0, txn=txn)
        tracer.span("inner", 2.0, 4.0, txn=txn)
        roots = tracer.span_tree(txn.txn_id)
        assert [node.name for node in roots] == ["outer"]
        assert not roots[0].orphan
        assert [child.name for child in roots[0].children] == ["inner"]

    def test_chaos_run_trees_have_no_misparenting(self):
        """Regression: mid-transaction site crashes used to leave
        truncated spans that adopted the retry's spans as children."""
        from repro.faults.chaos import run_chaos
        from repro.obs import Observability

        report = run_chaos(
            "dynamast",
            "crash-restart",
            num_sites=3,
            num_clients=6,
            duration_ms=900.0,
            bucket_ms=300.0,
            seed=3,
            obs=Observability(),
        )
        tracer = report.result.obs.tracer
        assert any(kind == "crash" for _, kind, _ in report.fault_events)
        eps = 1e-9
        checked = 0
        for txn_id, record in tracer.txns.items():
            if record.end is None:
                continue
            for root in tracer.span_tree(txn_id):
                checked += 1
                if root.orphan:
                    assert not root.children
                    # Orphans really do violate the envelope.
                    assert (root.span.start < record.begin - eps
                            or root.span.end > record.end + eps)
                else:
                    for path, node in root.walk():
                        assert node.span.start >= record.begin - eps, path
                        assert node.span.end <= record.end + eps, path
        assert checked > 0


class TestAggregation:
    def test_span_args_preserved(self):
        tracer = Tracer()
        txn = make_txn()
        tracer.span("route", 0.0, 1.0, txn=txn, site=2, reason="affinity")
        span = tracer.spans[0]
        assert dict(span.args) == {"site": 2, "reason": "affinity"}


@pytest.fixture
def built(monkeypatch):
    """Count the records the store builds, per record type name."""
    counts = {"SpanRecord": 0, "InstantRecord": 0, "TxnRecord": 0}
    for name in counts:
        def counting(*fields, _name=name, _make=getattr(tracer_module, name)):
            counts[_name] += 1
            return _make(*fields)

        monkeypatch.setattr(tracer_module, name, counting)
    return counts


class TestFoldIsLinear:
    """``spans_of`` per transaction must not rescan the whole trace:
    the attribution fold of an 8.5 s run took 138 s when it did."""

    @staticmethod
    def fold(num_txns):
        from repro.obs.attribution import AttributionReport

        tracer = Tracer()
        for index in range(num_txns):
            txn = make_txn()
            begin = 10.0 * index
            tracer.txn_begin(txn, begin)
            tracer.span("txn", begin, begin + 4.0, track="client", txn=txn)
            tracer.span("route", begin, begin + 1.0, track="selector", txn=txn)
            tracer.span("execute", begin + 1.0, begin + 4.0, track="site0", txn=txn)
            tracer.txn_end(txn, Outcome(committed=True), begin + 4.0)
        report = AttributionReport.from_tracer(tracer)
        assert len(report.txns) == num_txns
        for txn_id in tracer.txns:
            assert len(tracer.span_tree(txn_id)) == 1

    def test_twice_the_transactions_touch_twice_the_spans(self, built):
        self.fold(200)
        small = built["SpanRecord"]
        self.fold(400)
        large = built["SpanRecord"] - small
        assert small >= 3 * 200
        assert large <= 2.2 * small

    def test_index_follows_spans_recorded_after_a_query(self):
        tracer = Tracer()
        txn = make_txn()
        tracer.span("route", 0.0, 1.0, txn=txn)
        assert [s.name for s in tracer.spans_of(txn.txn_id)] == ["route"]
        tracer.span("execute", 1.0, 2.0, txn=txn)
        tracer.span("txn", 0.0, 2.0, txn=txn)
        assert [s.name for s in tracer.spans_of(txn.txn_id)] == [
            "txn", "route", "execute"
        ]
        assert tracer.spans_of(-1) == []


# -- the column store ----------------------------------------------------------


class ListTracer:
    """The store the columns replaced, kept as the model: one frozen
    record per call, args sorted at record time, appended to a list;
    one mutable envelope per transaction in a dict."""

    def __init__(self):
        self.spans, self.instants = [], []
        self.txns = {}

    def txn_begin(self, txn, now):
        self.txns[txn.txn_id] = TxnRecord(txn.txn_id, txn.txn_type,
                                          txn.client_id, now)

    def txn_end(self, txn, outcome, now, recorded=True):
        record = self.txns.get(txn.txn_id)
        if record is None:
            record = TxnRecord(txn.txn_id, txn.txn_type, txn.client_id, now)
            self.txns[txn.txn_id] = record
        record.end = now
        record.committed = outcome.committed
        record.remastered = outcome.remastered
        record.distributed = outcome.distributed
        record.recorded = recorded and outcome.committed
        if not outcome.committed:
            self.instant("abort", now, track="client", txn=txn,
                         txn_type=txn.txn_type)

    def span(self, name, start, end, *, track="", txn=None, **args):
        self.spans.append(SpanRecord(
            name, start, end, track,
            txn.txn_id if txn is not None else None,
            tuple(sorted(args.items())),
        ))

    def instant(self, name, ts, *, track="", txn=None, **args):
        self.instants.append(InstantRecord(
            name, ts, track,
            txn.txn_id if txn is not None else None,
            tuple(sorted(args.items())),
        ))


# A few repeated instants, so that spans of one transaction tie on start.
_times = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.5]),
                   st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
_txns = st.one_of(
    st.none(),
    st.integers(0, 40).map(lambda txn_id: SimpleNamespace(txn_id=txn_id)),
)
# Repeated tracks as one shared object, as equal-but-distinct objects
# (a call site formatting per record), and fresh ones.
_tracks = st.one_of(
    st.sampled_from(["", "client", "selector", "net"]),
    st.integers(0, 3).map(lambda index: f"site{index}"),
    st.text("abc", min_size=1, max_size=6),
)
# Arg values of every exact type a column may meet, so that one arg of
# one shape sees a mix: ints (boxed or not, at the edges of 64 bits),
# bools, floats (-0.0 too), strings, None, tuples, unhashable lists,
# and ints wider than 64 bits.
_values = st.one_of(
    st.integers(-5, 5), st.integers(-(1 << 63), (1 << 63) - 1), st.booleans(),
    _times, st.just(-0.0), st.sampled_from(["ok", "down"]), st.none(),
    st.tuples(st.integers(0, 3), st.integers(0, 9)),
    st.lists(st.integers(0, 3), max_size=2),
    st.sampled_from([1 << 64, -(1 << 63) - 1, 1 << 70]),
)
# 0-4 keywords in *call* order, which is rarely sorted order.
_args = st.lists(
    st.sampled_from(["site", "seq", "outcome", "depth", "waited", "origin"]),
    unique=True, max_size=4,
).flatmap(lambda keys: st.fixed_dictionaries({key: _values for key in keys}))
_names = st.sampled_from(["execute", "route", "network", "rpc", "lock_wait"])
# Envelopes over a few ids, begun and ended in any order: out of id
# order (the open-loop shape), ended without a begin, begun twice, or
# still in flight when read.
_envelopes = st.builds(
    SimpleNamespace, txn_id=st.integers(0, 8),
    txn_type=st.sampled_from(["rmw", "read", "new_order"]),
    client_id=st.integers(0, 7),
)
_outcomes = st.builds(SimpleNamespace, committed=st.booleans(),
                      remastered=st.booleans(), distributed=st.booleans())
_calls = st.lists(st.one_of(
    st.tuples(st.just("span"), _names, _times, _times, _tracks, _txns, _args),
    st.tuples(st.just("instant"), _names, _times, _tracks, _txns, _args),
    st.tuples(st.just("begin"), _envelopes, _times),
    st.tuples(st.just("end"), _envelopes, _outcomes, _times, st.booleans()),
), max_size=40)


def _replay(calls, tracer):
    for call in calls:
        if call[0] == "span":
            _, name, start, end, track, txn, args = call
            tracer.span(name, start, end, track=track, txn=txn, **args)
        elif call[0] == "instant":
            _, name, ts, track, txn, args = call
            tracer.instant(name, ts, track=track, txn=txn, **args)
        elif call[0] == "begin":
            _, txn, now = call
            tracer.txn_begin(txn, now)
        else:
            _, txn, outcome, now, recorded = call
            tracer.txn_end(txn, outcome, now, recorded=recorded)
    return tracer


def _assert_same_records(tracer, model):
    for kind in ("spans", "instants"):
        assert list(getattr(tracer, kind)) == getattr(model, kind)
        # Equal is not enough: 1 == True == 1.0 and 0.0 == -0.0.
        assert repr(list(getattr(tracer, kind))) == repr(getattr(model, kind))
    assert list(tracer.txns.items()) == list(model.txns.items())
    assert len(tracer.txns) == len(model.txns)
    for txn_id in (None, -4, 9, *model.txns):
        assert (txn_id in tracer.txns) == (txn_id in model.txns)
        assert tracer.txns.get(txn_id) == model.txns.get(txn_id)
    assert sum(record.end is not None and not record.committed
               for record in tracer.txns.values()) == sum(
        1 for record in model.txns.values() if record.committed is False)


class TestColumnStoreMatchesListModel:
    @given(_calls, st.data())
    @settings(max_examples=200, deadline=None)
    def test_every_read_equals_the_list_of_records(self, calls, data):
        # Read part-way through too: row ranks and the envelope index
        # grow after a first read.
        cut = data.draw(st.integers(0, len(calls)))
        tracer = _replay(calls[:cut], Tracer())
        model = _replay(calls[:cut], ListTracer())
        _assert_same_records(tracer, model)
        _replay(calls[cut:], tracer)
        _replay(calls[cut:], model)
        _assert_same_records(tracer, model)
        for kind in ("spans", "instants"):
            view, records = getattr(tracer, kind), getattr(model, kind)
            assert len(view) == len(records)
            assert list(view) == records
            assert list(reversed(view)) == records[::-1]
            for index in range(-len(records), len(records)):
                assert view[index] == records[index]
            for bad in (len(records), -len(records) - 1):
                with pytest.raises(IndexError):
                    view[bad]
            bounds = st.one_of(st.none(), st.integers(-45, 45))
            cut = slice(data.draw(bounds), data.draw(bounds),
                        data.draw(st.sampled_from([None, 1, 2, -1, -3])))
            assert view[cut] == records[cut]
        for txn_id in {None, *(span.txn_id for span in model.spans)}:
            mine = [span for span in model.spans if span.txn_id == txn_id]
            mine.sort(key=lambda span: (span.start, -span.end))
            assert tracer.spans_of(txn_id) == mine

    @given(st.sampled_from(["span", "instant"]), st.lists(
        st.one_of(st.tuples(_values), st.tuples(_values, _values, _values)),
        min_size=10, max_size=60,
    ))
    @settings(max_examples=200, deadline=None)
    def test_the_args_of_one_shape_keep_every_exact_type(self, kind, calls):
        """Many calls of one one-arg and one three-arg shape, each arg
        drawn from every type a column may meet: the typed columns give
        back each value as it was passed, bools, -0.0 and wide ints
        included."""
        replayed = []
        for values in calls:
            args = dict(zip(("seq", "outcome", "waited"), values))
            if kind == "span":
                replayed.append(("span", "apply", 0.0, 1.0, "site0", None, args))
            else:
                replayed.append(("instant", "apply", 0.5, "site0", None, args))
        tracer, model = _replay(replayed, Tracer()), _replay(replayed, ListTracer())
        _assert_same_records(tracer, model)

    @given(_calls, _calls, st.lists(st.booleans(), max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_two_tracers_in_one_process_keep_their_own_rows(self, first, second,
                                                            turns):
        """Interleaved calls into two tracers: neither sees the other's
        shapes, types or envelope rows."""
        tracers, models = (Tracer(), Tracer()), (ListTracer(), ListTracer())
        pending = [list(first), list(second)]
        for turn in turns + [False] * len(first) + [True] * len(second):
            if pending[turn]:
                call = pending[turn].pop(0)
                _replay([call], tracers[turn])
                _replay([call], models[turn])
        for tracer, model in zip(tracers, models):
            _assert_same_records(tracer, model)

    def test_records_are_built_on_access_only(self, built):
        tracer = Tracer()
        for index in range(50):
            txn = make_txn()
            tracer.txn_begin(txn, float(index))
            tracer.span("execute", float(index), index + 0.5, track="site0",
                        txn=txn, depth=index)
            tracer.instant("log_append", float(index), track="site0", seq=index)
            tracer.instant("rpc", float(index), txn=make_txn(), track="net")
            tracer.txn_end(txn, Outcome(committed=True), index + 0.5)
        assert (len(tracer.spans), len(tracer.instants),
                len(tracer.txns)) == (50, 100, 50)
        assert sum(built.values()) == 0
        last = tracer.spans[-1]
        assert (last.start, last.end, last.args) == (49.0, 49.5, (("depth", 49),))
        assert built == {"SpanRecord": 1, "InstantRecord": 0, "TxnRecord": 0}
        assert len(tracer.instants[10:13]) == 3
        assert built["InstantRecord"] == 3
        assert tracer.txns[last.txn_id].end == 49.5
        assert built["TxnRecord"] == 1

    def test_strings_formatted_per_record_are_kept_once_per_shape(self):
        tracer = Tracer()
        for index in range(100):
            tracer.span(f"2pc_{'prepare'}", 0.0, 1.0, track=f"site{index % 2}",
                        txn=make_txn(), branches=index)
        kept = {(id(span.name), id(span.track)) for span in tracer.spans}
        assert len(kept) == 2  # (name, site0), (name, site1): not 100

    def test_bytes_per_span(self):
        """90 k spans with 0 / 1 / 2 args on shared tracks. The list of
        frozen records cost 179 B per span (plus the floats it kept
        alive); columns with 8-byte ids and a list of arg values,
        34.7 B; typed arg columns and 4-byte ids, 29.0 B."""
        count = 90_000
        times = [0.25 * index for index in range(count + 1)]
        txns = [SimpleNamespace(txn_id=index) for index in range(count)]
        tracer = Tracer()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for index in range(0, count, 3):
                tracer.span("begin", times[index], times[index + 1],
                            track="site0", txn=txns[index])
                tracer.span("network", times[index + 1], times[index + 2],
                            track="net", txn=txns[index + 1], category="client")
                tracer.span("refresh_apply", times[index + 2], times[index + 3],
                            track="site1", origin=2, records=7)
            used = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(tracer.spans) == count
        assert used / count <= 31.0


def test_bytes_per_traced_txn(retained_bytes):
    """50 k begun and ended envelopes. A ``TxnRecord`` in a dict cost
    about 200 B each (plus its boxed id and the two times it kept
    alive); the columns cost 4 + 2 + 4 + 8 + 8 + 1 bytes a row and 4
    for its id slot, plus the arrays' growth slack: 32.5 B (36.6 B
    with 8-byte ids)."""
    count = 50_000
    txns = [SimpleNamespace(txn_id=1000 + index, txn_type=("rmw", "read")[index % 2],
                            client_id=index % 32) for index in range(count)]
    committed = Outcome(committed=True)
    tracer = Tracer()

    def record():
        for index, txn in enumerate(txns):
            tracer.txn_begin(txn, 0.5 * index)
            tracer.txn_end(txn, committed, 0.5 * index + 0.25)

    _, used = retained_bytes(record)
    assert len(tracer.txns) == count
    assert used / count <= 34.0


class TestCodeColumnsOverflow:
    """Shape, transaction-type and arg-string codes are 2-byte columns:
    the 65 537th distinct value is refused by name, before any column
    moves. Transaction ids are 4-byte columns: an id outside
    0 .. 2**31 - 1 is refused by name too."""

    def test_shapes(self):
        tracer = Tracer()
        for index in range(1 << 16):
            tracer.instant("log_append", 0.0, track=f"site{index}")
        with pytest.raises(ValueError, match=r"shape \('log_append', 'site65536'\)"):
            tracer.instant("log_append", 1.0, track="site65536")
        assert len(tracer.instants) == 1 << 16
        assert tracer.instants[-1].track == "site65535"

    def test_transaction_types(self):
        tracer = Tracer()
        for index in range(1 << 16):
            tracer.txn_begin(SimpleNamespace(txn_id=index, txn_type=f"t{index}",
                                             client_id=0), 0.0)
        with pytest.raises(ValueError, match="transaction type 't65536'"):
            tracer.txn_begin(SimpleNamespace(txn_id=1 << 16, txn_type="t65536",
                                             client_id=0), 1.0)
        assert len(tracer.txns) == 1 << 16 and (1 << 16) not in tracer.txns
        assert tracer.txns[65535].txn_type == "t65535"

    def test_arg_strings(self):
        """One tracer's arg strings share one table, whichever shape,
        kind or arg passed them; a string in an object column (here,
        after a None) takes no code."""
        tracer = Tracer()
        for index in range(1 << 15):
            tracer.span("network", 0.0, 1.0, track="net", category=f"c{index}")
            tracer.instant("rpc", 0.0, track="net", outcome=f"o{index}", rtt=0.5)
        tracer.instant("log_append", 0.0, kind=None)
        tracer.instant("log_append", 0.0, kind="not coded")
        tracer.instant("abort", 0.0, kind="c0")
        with pytest.raises(ValueError, match="arg string 'c32768'"):
            tracer.span("network", 1.0, 2.0, track="net", category="c32768")
        with pytest.raises(ValueError, match="arg string 'o32768'"):
            tracer.instant("rpc", 1.0, track="net", rtt=0.75, outcome="o32768")
        rpcs, others = tracer.instants[:1 << 15], tracer.instants[1 << 15:]
        assert (len(tracer.spans), len(rpcs)) == (1 << 15, 1 << 15)
        assert tracer.spans[-1].args == (("category", "c32767"),)
        assert rpcs[-1].args == (("outcome", "o32767"), ("rtt", 0.5))
        assert [instant.args for instant in others] == [
            (("kind", None),), (("kind", "not coded"),), (("kind", "c0"),)]

    def test_a_refused_arg_string_takes_back_the_whole_row(self):
        """The row that passes the 65 537th string is refused whole: the
        args before it (an unhashable list that widens its string
        column, an int) are taken back, and later rows stay in line."""
        tracer = Tracer()
        for index in range((1 << 16) - 2):  # "ok" and "site0" fill the table
            tracer.instant("log_append", 0.0, kind=f"k{index}")
        tracer.span("rpc", 0.0, 1.0, outcome="ok", seq=1, site="site0")
        with pytest.raises(ValueError, match="arg string 'site9'"):
            tracer.span("rpc", 1.0, 2.0, outcome=[1], seq=2, site="site9")
        tracer.span("rpc", 2.0, 3.0, outcome="ok", seq=3, site="site0")
        assert [span.args for span in tracer.spans] == [
            (("outcome", "ok"), ("seq", 1), ("site", "site0")),
            (("outcome", "ok"), ("seq", 3), ("site", "site0")),
        ]
        assert [span.start for span in tracer.spans] == [0.0, 2.0]

    @pytest.mark.parametrize("txn_id", [-1, -2, 1 << 31, 1 << 64])
    def test_transaction_ids(self, txn_id):
        tracer = Tracer()
        bad, good = SimpleNamespace(txn_id=txn_id), SimpleNamespace(txn_id=(1 << 31) - 1)
        refused = f"transaction id {txn_id}: "
        with pytest.raises(ValueError, match=refused):
            tracer.span("execute", 0.0, 1.0, txn=bad, depth=1)
        with pytest.raises(ValueError, match=refused):
            tracer.instant("abort", 0.0, txn=bad)
        with pytest.raises(ValueError, match=refused):
            tracer.txn_begin(SimpleNamespace(txn_id=txn_id, txn_type="rmw",
                                             client_id=0), 0.0)
        assert (len(tracer.spans), len(tracer.instants),
                len(tracer.txns)) == (0, 0, 0)
        tracer.instant("rpc", 0.0, txn=good, rtt=0.5)
        tracer.instant("rpc", 0.0, txn=SimpleNamespace(txn_id=0), rtt=0.5)
        assert [instant.txn_id for instant in tracer.instants] == [(1 << 31) - 1, 0]


class TestExportsArePinned:
    """Digests of both exports of one fixed observed run. Taken with
    the list store at 71d5397, and re-taken once when the edge record
    kind went: the 720 ``rpc`` edges became instants (so they joined
    the Chrome trace), and the 45 ``remaster`` and 5 ``cpu_queue``
    edges, which repeated a span, left the JSONL. Any other move of a
    byte is a change in what the tracer records."""

    JSONL = "955c2fe0f5168a8eec5686d2b86fa984b3039b36d9d24f2e13e64a31187f4f15"
    CHROME = "ef7a27e723d0d262a29be25babf7e15cc9b30f1f881c4a913e0f464aaf51a451"

    def test_jsonl_and_chrome_trace_digests(self):
        from repro.bench import run_benchmark
        from repro.obs import Observability
        from repro.obs.export import to_chrome_trace, to_jsonl
        from repro.sim.config import ClusterConfig
        from repro.workloads import build_workload

        obs = Observability()
        run_benchmark(
            "dynamast",
            build_workload("ycsb", num_partitions=40, rmw_fraction=0.5,
                           affinity_txns=50),
            num_clients=6, duration_ms=200.0, warmup_ms=50.0,
            cluster_config=ClusterConfig(num_sites=2), seed=7, obs=obs,
        )
        tracer = obs.tracer
        assert (len(tracer.spans), len(tracer.instants)) == (7016, 1668)
        jsonl = "\n".join(to_jsonl(tracer)).encode()
        chrome = json.dumps(to_chrome_trace(tracer, obs.timelines),
                            sort_keys=True).encode()
        assert hashlib.sha256(jsonl).hexdigest() == self.JSONL
        assert hashlib.sha256(chrome).hexdigest() == self.CHROME
