"""Tests for trace exporters and the timeline sampler."""

import json

import pytest

from repro.obs import export
from repro.obs.export import (
    flame_summary,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.sampler import Timeline, TimelineSampler
from repro.obs.tracer import Tracer
from repro.sim.core import Environment
from repro.transactions import Outcome, Transaction


def traced_run():
    """A tiny hand-built trace: one committed txn with nested spans."""
    tracer = Tracer()
    txn = Transaction("rmw", client_id=3, write_set=(("t", 1),))
    tracer.txn_begin(txn, 0.0)
    tracer.span("route", 0.0, 1.0, track="selector", txn=txn, site=1)
    tracer.span("execute", 1.0, 4.0, track="site1", txn=txn)
    tracer.span("lock_wait", 1.0, 1.5, track="site1", txn=txn)
    tracer.instant("remaster", 0.5, track="selector", txn=txn, partitions_moved=2)
    tracer.txn_end(txn, Outcome(committed=True), 4.0)
    return tracer, txn


class TestChromeTrace:
    def test_schema_validity(self):
        tracer, txn = traced_run()
        document = to_chrome_trace(tracer)
        # Round-trippable JSON with the documented top-level shape.
        parsed = json.loads(json.dumps(document))
        assert parsed["displayTimeUnit"] == "ms"
        events = parsed["traceEvents"]
        assert isinstance(events, list) and events
        for event in events:
            assert event["ph"] in ("M", "X", "i", "C")
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if event["ph"] == "X":
                assert event["ts"] >= 0 and event["dur"] >= 0
            if event["ph"] == "i":
                assert event["s"] == "t"

    def test_tracks_become_named_processes(self):
        tracer, txn = traced_run()
        events = to_chrome_trace(tracer)["traceEvents"]
        names = {
            event["args"]["name"]
            for event in events
            if event["ph"] == "M" and event["name"] == "process_name"
        }
        assert names == {"selector", "site1"}
        spans = [event for event in events if event["ph"] == "X"]
        assert {span["tid"] for span in spans} == {txn.txn_id}
        # Simulated ms -> trace microseconds.
        execute = next(s for s in spans if s["name"] == "execute")
        assert execute["ts"] == 1000.0
        assert execute["dur"] == 3000.0

    def test_timelines_become_counters(self):
        tracer, _ = traced_run()
        timeline = Timeline("cpu_utilization.site0")
        timeline.append(0.0, 0.25)
        timeline.append(10.0, 0.75)
        events = to_chrome_trace(
            tracer, timelines={"cpu_utilization.site0": timeline}
        )["traceEvents"]
        counters = [event for event in events if event["ph"] == "C"]
        assert [c["args"]["value"] for c in counters] == [0.25, 0.75]
        assert counters[0]["ts"] == 0.0 and counters[1]["ts"] == 10000.0

    def test_write_chrome_trace(self, tmp_path):
        tracer, _ = traced_run()
        path = tmp_path / "run.trace.json"
        write_chrome_trace(tracer, str(path))
        assert json.loads(path.read_text())["traceEvents"]


class TestJsonl:
    def test_one_valid_object_per_line(self, tmp_path):
        tracer, txn = traced_run()
        lines = list(to_jsonl(tracer))
        records = [json.loads(line) for line in lines]
        kinds = {record["type"] for record in records}
        assert kinds == {"txn", "span", "instant"}
        envelope = next(r for r in records if r["type"] == "txn")
        assert envelope["txn_id"] == txn.txn_id
        assert envelope["committed"] is True
        path = tmp_path / "run.events.jsonl"
        write_jsonl(tracer, str(path))
        assert len(path.read_text().splitlines()) == len(lines)


class TestFlameSummary:
    def test_paths_rooted_at_txn_type(self):
        tracer, _ = traced_run()
        text = flame_summary(tracer)
        assert "rmw/execute" in text
        assert "rmw/execute/lock_wait" in text
        assert "1 txns" in text

    def test_empty_trace(self):
        assert "(no spans recorded)" in flame_summary(Tracer())

    def test_top_limits_rows(self, monkeypatch):
        tracer, _ = traced_run()
        monkeypatch.setattr(export, "FLAME_ROWS", 1)
        rows = flame_summary(tracer).splitlines()
        assert len(rows) == 2  # header + 1 span path


class TestTimelineSampler:
    def test_duplicate_probe_rejected(self):
        sampler = TimelineSampler()
        sampler.add_probe("x", lambda: 1.0)
        with pytest.raises(ValueError):
            sampler.add_probe("x", lambda: 2.0)

    def test_periodic_sampling_on_sim_clock(self):
        env = Environment()
        sampler = TimelineSampler()
        reads = iter(range(100))
        sampler.add_probe("level", lambda: next(reads))
        sampler.start(env)
        sampler.start(env)  # idempotent: no second process
        env.run(until=35.0)
        timeline = sampler.timelines["level"]
        assert [when for when, _ in timeline.samples] == [10.0, 20.0, 30.0]
        assert timeline.values() == [0.0, 1.0, 2.0]
        assert timeline.mean() == 1.0
        assert timeline.maximum() == 2.0

    def test_start_without_probes_is_inert(self):
        env = Environment()
        sampler = TimelineSampler()
        sampler.start(env)
        env.run(until=50.0)
        assert sampler.timelines == {}
