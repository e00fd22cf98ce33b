"""Who a wait was on, and critical-path attribution: unit + end-to-end.

The load-bearing acceptance test lives here: for every committed
transaction of an observed run — on all five systems — the critical
path's per-category durations sum to the measured commit latency
within 1e-6 simulated milliseconds.
"""

import pytest

from repro.bench import run_benchmark
from repro.obs import Observability
from repro.obs.attribution import summarize_edges
from repro.obs.tracer import Tracer
from repro.obs.causal import (
    CATEGORIES,
    SPAN_CATEGORY,
    critical_path,
    path_categories,
)
from repro.sim.config import ClusterConfig
from repro.bench.harness import ALL_SYSTEMS
from repro.transactions import Outcome, Transaction
from repro.workloads import YCSBConfig, YCSBWorkload


def make_txn(kind="rmw"):
    return Transaction(kind, client_id=0, write_set=(("t", 1),))


def trace_envelope(tracer, txn, begin, end):
    tracer.txn_begin(txn, begin)
    tracer.txn_end(txn, Outcome(committed=True), end)


class TestCriticalPathUnit:
    def test_empty_for_unknown_or_open_txn(self):
        tracer = Tracer()
        assert critical_path(tracer, 999) == []
        txn = make_txn()
        tracer.txn_begin(txn, 0.0)
        assert critical_path(tracer, txn.txn_id) == []

    def test_uncovered_envelope_is_other(self):
        tracer = Tracer()
        txn = make_txn()
        trace_envelope(tracer, txn, 1.0, 5.0)
        segments = critical_path(tracer, txn.txn_id)
        assert len(segments) == 1
        assert segments[0].category == "other"
        assert segments[0].duration == pytest.approx(4.0)

    def test_innermost_span_wins(self):
        tracer = Tracer()
        txn = make_txn()
        trace_envelope(tracer, txn, 0.0, 10.0)
        tracer.span("execute", 0.0, 10.0, track="site0", txn=txn)
        tracer.span("lock_wait", 2.0, 5.0, track="site0", txn=txn)
        categories = path_categories(critical_path(tracer, txn.txn_id))
        assert categories["lock_wait"] == pytest.approx(3.0)
        assert categories["cpu_service"] == pytest.approx(7.0)

    def test_gaps_between_spans_are_other(self):
        tracer = Tracer()
        txn = make_txn()
        trace_envelope(tracer, txn, 0.0, 10.0)
        tracer.span("route", 0.0, 2.0, track="selector", txn=txn)
        tracer.span("commit", 6.0, 10.0, track="site0", txn=txn)
        categories = path_categories(critical_path(tracer, txn.txn_id))
        assert categories["rpc_rounds"] == pytest.approx(2.0)
        assert categories["cpu_service"] == pytest.approx(4.0)
        assert categories["other"] == pytest.approx(4.0)

    def test_spans_clamped_to_envelope(self):
        """Crash-severed spans outliving the envelope still explain the
        part of the wait they overlap — no more, no less."""
        tracer = Tracer()
        txn = make_txn()
        trace_envelope(tracer, txn, 2.0, 6.0)
        tracer.span("lock_wait", 0.0, 99.0, track="site1", txn=txn)
        segments = critical_path(tracer, txn.txn_id)
        assert len(segments) == 1
        assert segments[0].start == 2.0
        assert segments[0].end == 6.0
        assert segments[0].category == "lock_wait"

    def test_adjacent_same_category_segments_merge(self):
        tracer = Tracer()
        txn = make_txn()
        trace_envelope(tracer, txn, 0.0, 4.0)
        tracer.span("execute", 0.0, 2.0, track="site0", txn=txn)
        tracer.span("execute", 2.0, 4.0, track="site0", txn=txn)
        segments = critical_path(tracer, txn.txn_id)
        assert len(segments) == 1
        assert segments[0].duration == pytest.approx(4.0)

    def test_unknown_span_name_is_other(self):
        tracer = Tracer()
        txn = make_txn()
        trace_envelope(tracer, txn, 0.0, 1.0)
        tracer.span("mystery", 0.0, 1.0, txn=txn)
        segments = critical_path(tracer, txn.txn_id)
        assert segments[0].category == "other"
        assert segments[0].span_name == "mystery"

    def test_path_categories_zero_filled_and_sums(self):
        tracer = Tracer()
        txn = make_txn()
        trace_envelope(tracer, txn, 0.0, 8.0)
        tracer.span("freshness_wait", 0.0, 3.0, track="site0", txn=txn)
        categories = path_categories(critical_path(tracer, txn.txn_id))
        assert set(categories) == set(CATEGORIES)
        assert sum(categories.values()) == pytest.approx(8.0)
        assert categories["refresh_wait"] == pytest.approx(3.0)

    def test_every_mapped_category_is_known(self):
        assert set(SPAN_CATEGORY.values()) <= set(CATEGORIES)
        assert "other" in CATEGORIES


def observed_run(system, seed=11, duration=400.0, **kwargs):
    obs = Observability()
    result = run_benchmark(
        system,
        YCSBWorkload(
            YCSBConfig(num_partitions=40, rmw_fraction=0.5, affinity_txns=50)
        ),
        num_clients=6,
        duration_ms=duration,
        warmup_ms=50.0,
        cluster_config=ClusterConfig(num_sites=3),
        seed=seed,
        obs=obs,
        **kwargs,
    )
    return result, obs


class TestAttributionSumsToLatency:
    """The acceptance criterion: categories partition the latency."""

    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    def test_critical_path_sums_to_commit_latency(self, system):
        result, obs = observed_run(system)
        tracer = obs.tracer
        checked = 0
        for txn_id, record in tracer.txns.items():
            if not record.recorded or record.latency is None:
                continue
            categories = path_categories(critical_path(tracer, txn_id))
            assert abs(sum(categories.values()) - record.latency) < 1e-6, (
                system, txn_id
            )
            checked += 1
        assert checked > 0, f"{system}: no committed recorded txns traced"


class TestEdgesEndToEnd:
    def test_dynamast_emits_expected_edge_kinds(self):
        _, obs = observed_run("dynamast")
        kinds = set(summarize_edges(obs.tracer)["kinds"])
        assert kinds <= {"lock_wait", "cpu_queue", "refresh_wait", "rpc",
                         "remaster", "2pc_round"}
        for expected in ("rpc", "remaster"):
            assert expected in kinds, f"missing edge kind {expected!r}"

    def test_two_phase_commit_rounds_recorded(self):
        result, obs = observed_run("multi-master")
        if not result.metrics.distributed_txns:
            pytest.skip("no distributed txns this run")
        rounds = [span for span in obs.tracer.spans
                  if span.name.startswith("2pc_")]
        assert {span.name for span in rounds} == {
            "2pc_execute", "2pc_prepare", "2pc_decide"}
        assert all(dict(span.args)["branches"] > 1 for span in rounds)

    def test_lock_edges_name_the_holder(self):
        _, obs = observed_run("single-master")
        waits = [instant for instant in obs.tracer.instants
                 if instant.name == "lock_wait"]
        if not waits:
            pytest.skip("no lock contention this run")
        for wait in waits:
            assert wait.txn_id is not None
            holder = dict(wait.args)["holder"]
            assert holder == 0 or holder in obs.tracer.txns

    def test_unobserved_run_has_no_edge_hooks_cost(self):
        """An unobserved run records nothing — the NullTracer's hooks
        are no-ops and keep no state."""
        result = run_benchmark(
            "dynamast",
            YCSBWorkload(YCSBConfig(num_partitions=20)),
            num_clients=4,
            duration_ms=120.0,
            warmup_ms=20.0,
            cluster_config=ClusterConfig(num_sites=2),
            seed=5,
        )
        assert result.obs is None


class TestDeterministicBudget:
    def test_same_seed_same_budget(self):
        from repro.obs.attribution import AttributionReport

        first = AttributionReport.from_result(observed_run("dynamast")[0])
        second = AttributionReport.from_result(observed_run("dynamast")[0])
        assert first.aggregate() == second.aggregate()
        assert first.shares() == second.shares()
        assert len(first.txns) == len(second.txns)
