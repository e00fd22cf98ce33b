"""Attribution reports: budgets, blame, waterfalls, export, diffing."""

import json

import pytest

from repro.obs import attribution
from repro.obs.tracer import Tracer
from repro.obs.attribution import (
    SCHEMA,
    AttributionError,
    AttributionReport,
    TxnAttribution,
    diff_reports,
    render_waterfall,
    split_by_windows,
    summarize_edges,
    validate_report,
)
from repro.obs.causal import CATEGORIES
from repro.transactions import Outcome, Transaction


def make_txn(kind="rmw"):
    return Transaction(kind, client_id=0, write_set=(("t", 1),))


def synthetic_tracer():
    """Three committed txns with distinct budgets, one abort, one warmup."""
    tracer = Tracer()
    txns = []
    # txn 0: 4 ms, all execute (cpu_service).
    # txn 1: 10 ms, 6 lock wait + 4 execute.
    # txn 2: 20 ms, 15 freshness wait + 5 commit.
    plans = [
        (0.0, 4.0, [("execute", 0.0, 4.0, "site0")]),
        (0.0, 10.0, [("lock_wait", 0.0, 6.0, "site1"),
                     ("execute", 6.0, 10.0, "site1")]),
        (0.0, 20.0, [("freshness_wait", 0.0, 15.0, "site2"),
                     ("commit", 15.0, 20.0, "site2")]),
    ]
    for begin, end, spans in plans:
        txn = make_txn()
        txns.append(txn)
        tracer.txn_begin(txn, begin)
        for name, start, stop, track in spans:
            tracer.span(name, start, stop, track=track, txn=txn)
        tracer.txn_end(txn, Outcome(committed=True), end)
    aborted = make_txn()
    tracer.txn_begin(aborted, 0.0)
    tracer.txn_end(aborted, Outcome(committed=False), 1.0)
    warmup = make_txn()
    tracer.txn_begin(warmup, 0.0)
    tracer.txn_end(warmup, Outcome(committed=True), 1.0, recorded=False)
    # Who the waits were on: txn 0 held txn 1's lock, site0's log
    # lagged txn 2's snapshot.
    tracer.instant("lock_wait", 0.0, txn=txns[1], track="site1",
                   holder=txns[0].txn_id, key=("t", 1), waiters=1)
    tracer.instant("refresh_wait", 0.0, txn=txns[2], track="site2",
                   lagging=((0, 3.0, 5.0),))
    return tracer, txns


class TestReportConstruction:
    def test_only_recorded_commits_attributed(self):
        tracer, _ = synthetic_tracer()
        report = AttributionReport.from_tracer(tracer, meta={"system": "x"})
        assert len(report.txns) == 3
        assert report.meta == {"system": "x"}

    def test_aggregate_and_shares(self):
        tracer, _ = synthetic_tracer()
        report = AttributionReport.from_tracer(tracer)
        aggregate = report.aggregate()
        assert aggregate["cpu_service"] == pytest.approx(13.0)  # 4 + 4 + 5
        assert aggregate["lock_wait"] == pytest.approx(6.0)
        assert aggregate["refresh_wait"] == pytest.approx(15.0)
        assert report.total_latency == pytest.approx(34.0)
        assert sum(report.shares().values()) == pytest.approx(1.0)
        assert report.coverage() == pytest.approx(1.0)

    def test_from_result_requires_observed_run(self):
        class Unobserved:
            obs = None
        with pytest.raises(AttributionError):
            AttributionReport.from_result(Unobserved())

    def test_empty_tracer_empty_report(self):
        report = AttributionReport.from_tracer(Tracer())
        assert report.txns == []
        assert report.coverage() == 1.0
        assert report.blame() == []
        assert report.tail_exemplars() == []
        budget = report.budget()
        assert budget["mean"]["latency_ms"] == 0.0


class TestBudgetsAndBlame:
    def test_quantile_budget_orders_by_latency(self):
        tracer, _ = synthetic_tracer()
        report = AttributionReport.from_tracer(tracer)
        p99 = report.quantile_budget(0.99)
        # Window around the worst txn includes all three here, but the
        # p99 latency must be >= the median's.
        assert p99["latency_ms"] >= report.quantile_budget(0.50)["latency_ms"]
        assert set(p99["categories"]) == set(CATEGORIES)

    def test_budget_has_mean_and_pinned_quantiles(self):
        tracer, _ = synthetic_tracer()
        budget = AttributionReport.from_tracer(tracer).budget()
        assert set(budget) == {"mean", "p50", "p95", "p99"}
        for entry in budget.values():
            total = sum(entry["categories"].values())
            assert total == pytest.approx(entry["latency_ms"], abs=1e-9)

    def test_blame_ranks_tail_by_category_track(self):
        tracer, _ = synthetic_tracer()
        blame = AttributionReport.from_tracer(tracer).blame(top=3)
        assert blame
        # The worst txn spends 15 ms in refresh wait at site2.
        assert blame[0]["category"] == "refresh_wait"
        assert blame[0]["track"] == "site2"
        assert blame[0]["ms"] == pytest.approx(15.0)
        shares = [entry["share"] for entry in blame]
        assert shares == sorted(shares, reverse=True)

    def test_tail_exemplars_worst_first(self, monkeypatch):
        tracer, _ = synthetic_tracer()
        report = AttributionReport.from_tracer(tracer)
        assert [round(t.latency) for t in report.tail_exemplars()] == [20, 10, 4]
        monkeypatch.setattr(attribution, "EXEMPLARS", 2)
        assert [round(t.latency) for t in report.tail_exemplars()] == [20, 10]

    def test_find(self):
        tracer, txns = synthetic_tracer()
        report = AttributionReport.from_tracer(tracer)
        assert report.find(txns[0].txn_id).latency == pytest.approx(4.0)
        assert report.find(-1) is None


class TestWaterfall:
    def test_waterfall_lists_segments(self):
        tracer, txns = synthetic_tracer()
        report = AttributionReport.from_tracer(tracer)
        text = render_waterfall(report.find(txns[2].txn_id))
        assert "freshness_wait" in text
        assert "refresh_wait" in text
        assert "site2" in text
        assert "#" in text

    def test_waterfall_without_segments(self):
        txn = TxnAttribution(1, "rmw", 0.0, 2.0, {"other": 2.0})
        assert "(no critical path recorded)" in render_waterfall(txn)


class TestEdgeSummary:
    def test_lock_blame_by_holder_type_and_refresh_origin(self):
        tracer, _ = synthetic_tracer()
        summary = summarize_edges(tracer)
        assert summary["kinds"] == {"lock_wait": 1, "refresh_wait": 1}
        assert summary["lock_blame"] == {"rmw": 1}
        assert summary["refresh_origins"] == {"site0": 1}

    def test_waits_a_span_times_count_under_their_edge_kind(self):
        """A CPU queue, the grant closing a remaster chain and each 2PC
        round are one span each, and count once; other spans and
        instants do not count, and a lock holder of id 0 is unknown."""
        tracer = Tracer()
        txn = make_txn()
        for name in ("cpu_queue", "grant", "2pc_execute", "2pc_prepare",
                     "2pc_decide", "release", "lock_wait", "execute"):
            tracer.span(name, 0.0, 1.0, track="site0", txn=txn)
        tracer.instant("remaster", 1.0, track="selector", txn=txn)
        tracer.instant("rpc", 0.0, track="net", txn=txn, outcome="ok", rtt=1.0)
        tracer.instant("lock_wait", 0.0, txn=txn, holder=0, key=("t", 1),
                       waiters=1)
        summary = summarize_edges(tracer)
        assert summary["kinds"] == {"2pc_round": 3, "cpu_queue": 1,
                                    "lock_wait": 1, "remaster": 1, "rpc": 1}
        assert summary["lock_blame"] == {"(unknown)": 1}


class TestSerializationAndDiff:
    def export(self, meta):
        tracer, _ = synthetic_tracer()
        report = AttributionReport.from_tracer(tracer, meta=meta)
        # Roundtrip through JSON like `repro explain --export` does.
        return json.loads(json.dumps(report.to_dict()))

    def matched_meta(self, system):
        return {"system": system, "workload": "ycsb", "seed": 3,
                "clients": 4, "duration_ms": 100.0, "warmup_ms": 0.0}

    def test_to_dict_schema_and_validate(self):
        data = self.export(self.matched_meta("dynamast"))
        assert data["schema"] == SCHEMA
        assert validate_report(data) is data
        assert data["coverage"] == pytest.approx(1.0)
        assert data["txn_count"] == 3
        assert data["exemplars"]

    def test_validate_rejects_non_object(self):
        with pytest.raises(AttributionError, match="JSON object"):
            validate_report([1, 2, 3])

    def test_validate_rejects_wrong_schema(self):
        data = self.export(self.matched_meta("dynamast"))
        data["schema"] = "repro-explain/0"
        with pytest.raises(AttributionError, match="schema"):
            validate_report(data)

    def test_validate_rejects_missing_keys(self):
        data = self.export(self.matched_meta("dynamast"))
        del data["budget"]
        with pytest.raises(AttributionError, match="budget"):
            validate_report(data)

    def test_validate_rejects_malformed_aggregate(self):
        data = self.export(self.matched_meta("dynamast"))
        data["aggregate"] = "nope"
        with pytest.raises(AttributionError, match="aggregate"):
            validate_report(data)

    def test_diff_matched_pair(self):
        a = self.export(self.matched_meta("dynamast"))
        b = self.export(self.matched_meta("single-master"))
        diff = diff_reports(a, b)
        assert diff["a"] == "dynamast"
        assert diff["b"] == "single-master"
        assert [row["category"] for row in diff["rows"]] == list(CATEGORIES)
        for row in diff["rows"]:  # identical synthetic budgets
            assert row["delta_ms"] == pytest.approx(0.0)

    def test_diff_rejects_mismatched_seed(self):
        a = self.export(self.matched_meta("dynamast"))
        meta = self.matched_meta("dynamast")
        meta["seed"] = 9
        b = self.export(meta)
        with pytest.raises(AttributionError, match="seed differs"):
            diff_reports(a, b)

    def test_diff_rejects_malformed_input(self):
        a = self.export(self.matched_meta("dynamast"))
        with pytest.raises(AttributionError):
            diff_reports(a, {"schema": SCHEMA})


class TestSplitByWindows:
    def test_split_assigns_by_begin_time(self):
        tracer = Tracer()
        early, late = make_txn(), make_txn()
        tracer.txn_begin(early, 0.0)
        tracer.span("execute", 0.0, 2.0, track="site0", txn=early)
        tracer.txn_end(early, Outcome(committed=True), 2.0)
        tracer.txn_begin(late, 10.0)
        tracer.span("lock_wait", 10.0, 14.0, track="site0", txn=late)
        tracer.txn_end(late, Outcome(committed=True), 14.0)
        report = AttributionReport.from_tracer(tracer)
        steady, degraded = split_by_windows(report, [(9.0, 20.0)])
        assert steady["cpu_service"] == pytest.approx(1.0)
        assert degraded["lock_wait"] == pytest.approx(1.0)

    def test_split_with_no_windows(self):
        tracer, _ = synthetic_tracer()
        report = AttributionReport.from_tracer(tracer)
        steady, degraded = split_by_windows(report, [])
        assert sum(steady.values()) == pytest.approx(1.0)
        assert all(value == 0.0 for value in degraded.values())
