"""Tests for the perf determinism matrix and host-cost surfaces.

* :class:`repro.bench.harness.RunResult` reports host cost
  (``wall_clock_s``, ``events_processed``) without perturbing simulated
  results — repeated runs agree on every simulated quantity while the
  host measurements ride along outside the fingerprint payload;
* :mod:`repro.bench.perf` — the pinned matrix, the exact ``--check``,
  the jobs sweep, the committed ``BENCH_perf.json`` staying consistent
  with the matrix in code *and* reproducing in-process, and the
  ``repro perf`` command line.
"""

import copy
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro import cli
from repro.bench import perf, scale
from repro.bench.harness import run_benchmark
from repro.bench.parallel import load_report
from repro.bench.perf import (
    PERF_MATRIX,
    PINNED,
    SCHEMA,
    case_params,
    check_report,
    run_cases,
    run_sweep,
    sweep_levels,
)
from repro.sim.config import ClusterConfig
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload

REPO_ROOT = Path(__file__).resolve().parent.parent
COMMITTED = str(REPO_ROOT / "BENCH_perf.json")

#: Two cheap cells (block-routed DynaMast, per-key LEAP) for driving the
#: harness end to end; ``tests/test_parallel_parity.py`` fans them out.
TINY_MATRIX = tuple(
    replace(spec, num_clients=4, duration_ms=150.0, warmup_ms=37.5,
            cluster=ClusterConfig(num_sites=2), seed=5, label=f"tiny-{spec.system}")
    for spec in PERF_MATRIX if spec.label in ("dynamast-ycsb", "leap-ycsb")
)


def _small_run():
    return run_benchmark(
        "dynamast",
        YCSBWorkload(YCSBConfig(num_partitions=40, rmw_fraction=0.5)),
        num_clients=4,
        duration_ms=200.0,
        warmup_ms=50.0,
        cluster_config=ClusterConfig(num_sites=2),
        seed=3,
    )


class TestRunResultHostMetrics:
    def test_wall_clock_and_event_count_populated(self):
        result = _small_run()
        assert result.wall_clock_s > 0.0
        assert result.events_processed > 0

    def test_host_metrics_excluded_from_simulated_results(self):
        """Repeat runs agree bit-for-bit on everything simulated.

        ``wall_clock_s`` is a host measurement and may differ between
        the two runs; nothing that feeds a fingerprint may. The event
        count is host-side bookkeeping but still deterministic: the
        same seed drives the same event sequence.
        """
        first = _small_run()
        second = _small_run()
        assert first.metrics.commits == second.metrics.commits
        assert first.metrics.commit_times == second.metrics.commit_times
        assert first.latency().mean == second.latency().mean
        assert first.traffic_bytes == second.traffic_bytes
        assert first.events_processed == second.events_processed


class TestPerfMatrix:
    def test_case_names_unique(self):
        names = [spec.label for spec in PERF_MATRIX]
        assert len(names) == len(set(names)) == 9

    def test_every_case_builds_its_workload(self):
        for spec in PERF_MATRIX:
            assert spec.workload.build().scheme is not None


def _report(**cases):
    """A report of ``name=(fingerprint, sim_events, commits)`` cases."""
    return {
        "schema": SCHEMA,
        "cases": {name: dict(zip(PINNED, pins)) for name, pins in cases.items()},
    }


class TestCheckReport:
    def test_equal_reports_pass(self):
        report = _report(a=("f00d", 10, 3), b=("beef", 20, 5))
        assert check_report(report, copy.deepcopy(report)) == []

    @pytest.mark.parametrize("key", PINNED)
    def test_each_pinned_field_is_compared_exactly(self, key):
        """Tampering one field of one case yields exactly one failure,
        naming that case and field; the untouched case stays silent."""
        committed = _report(a=("f00d", 10, 3), b=("beef", 20, 5))
        current = copy.deepcopy(committed)
        current["cases"]["b"][key] = (
            "dead" if key == "fingerprint" else current["cases"]["b"][key] + 1
        )
        failures = check_report(current, committed)
        assert len(failures) == 1
        assert failures[0].startswith(f"b: {key} ")

    def test_case_missing_from_either_side_fails(self):
        both = ("f00d", 10, 3)
        failures = check_report(_report(a=both, fresh=both),
                                _report(a=both, stale=both))
        assert failures == ["fresh: only in the fresh run",
                            "stale: only in the committed report"]


def _fake_executor(elapsed_by_level, fingerprints=None):
    """Stand-in for ``run_cases``: fabricated timings, no simulation.

    ``fingerprints`` maps ``(case_name, jobs)`` to a fingerprint for
    parity-violation tests; unmapped cases fingerprint identically at
    every level.
    """

    def execute(specs, jobs):
        rows = {
            name: {
                "fingerprint": (fingerprints or {}).get((name, jobs), f"fp-{name}"),
                "sim_events": 7,
                "commits": 3,
            }
            for name in specs
        }
        return rows, elapsed_by_level[jobs]

    return execute


class TestSweepLevels:
    def test_one_core_runs_serial_only(self):
        assert sweep_levels(1) == [1]

    def test_two_always_included(self):
        assert sweep_levels(2) == [1, 2]
        assert sweep_levels(3) == [1, 2, 3]
        assert sweep_levels(8) == [1, 2, 8]

    def test_invalid_core_count_rejected(self):
        with pytest.raises(ValueError, match="cores"):
            sweep_levels(0)


class TestRunSweep:
    def test_sweep_rows_and_arithmetic(self):
        payload = run_sweep(
            ["a", "b"], cores=4, emit=None,
            executor=_fake_executor({1: 8.0, 2: 5.0, 4: 2.0}),
        )
        rows = {row["jobs"]: row for row in payload["machine"]["parallel"]["sweep"]}
        assert set(rows) == {1, 2, 4}
        assert rows[1]["fanout_speedup"] == pytest.approx(1.0)
        assert rows[2]["fanout_speedup"] == pytest.approx(8.0 / 5.0)
        assert rows[4]["fanout_speedup"] == pytest.approx(4.0)
        assert rows[4]["efficiency"] == pytest.approx(1.0)
        assert rows[4]["elapsed_s"] == pytest.approx(2.0)
        assert payload["schema"] == SCHEMA
        # The case rows come from the serial pass.
        assert set(payload["cases"]) == {"a", "b"}

    def test_fingerprint_parity_violation_raises(self):
        with pytest.raises(RuntimeError, match="parity violated at jobs=2: b"):
            run_sweep(
                ["a", "b"], cores=2, emit=None,
                executor=_fake_executor(
                    {1: 4.0, 2: 3.0}, fingerprints={("b", 2): "divergent"}
                ),
            )

    def test_limited_by_host_flag(self, monkeypatch):
        executor = _fake_executor({1: 4.0, 2: 3.0})
        monkeypatch.setattr(perf.os, "cpu_count", lambda: 1)
        limited = run_sweep(["a"], cores=2, emit=None, executor=executor)
        assert limited["machine"]["parallel"]["limited_by_host"] is True
        monkeypatch.setattr(perf.os, "cpu_count", lambda: 8)
        roomy = run_sweep(["a"], cores=2, emit=None, executor=executor)
        assert roomy["machine"]["parallel"]["limited_by_host"] is False


class TestReportFile:
    def test_schema_mismatch_is_rejected(self, tmp_path, monkeypatch):
        """A /3 report (walls, calibration, baseline) is not a /4 one:
        ``--check`` refuses it before running anything."""
        stale = tmp_path / perf.DEFAULT_REPORT
        stale.write_text(json.dumps({"schema": "repro-perf/3", "cases": {}}))
        with pytest.raises(ValueError, match="schema"):
            load_report(str(stale), SCHEMA)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match="schema"):
            perf.main(check=True, emit=None)

    def test_committed_report_matches_the_pinned_matrix(self):
        """BENCH_perf.json must describe exactly the matrix in code:
        same case set, same parameters, nothing but the pins besides.

        If a case is added, removed, renamed or re-parameterised, the
        committed report has to be refreshed in the same change.
        """
        cases = load_report(COMMITTED, SCHEMA)["cases"]
        assert set(cases) == {spec.label for spec in PERF_MATRIX}
        for spec in PERF_MATRIX:
            row = dict(cases[spec.label])
            pins = [row.pop(key) for key in PINNED]
            assert row == case_params(spec)
            assert all(pins)

    def test_committed_pins_reproduce_in_process(self):
        """One cell per code-path family (DynaMast, 2PC, multi-workload)
        re-run here must equal the committed pins exactly — tier-1's
        share of ``make perf-check``."""
        subset = [spec for spec in PERF_MATRIX if spec.label in
                  ("dynamast-ycsb", "multi-master-ycsb", "dynamast-tpcc")]
        rows, _elapsed = run_cases(subset)
        committed = load_report(COMMITTED, SCHEMA)["cases"]
        pinned = {name: committed[name] for name in rows}
        assert len(rows) == 3
        assert check_report({"cases": rows}, {"cases": pinned}) == []

    def test_committed_report_carries_the_parallel_sweep(self):
        """The committed report must include the measured jobs sweep
        (EXPERIMENTS.md, "Parallel execution")."""
        machine = load_report(COMMITTED, SCHEMA)["machine"]
        rows = {row["jobs"]: row for row in machine["parallel"]["sweep"]}
        assert {1, 2} <= set(rows)
        assert rows[1]["fanout_speedup"] == 1.0
        assert rows[2]["fanout_speedup"] > 0 and rows[2]["elapsed_s"] > 0
        assert "limited_by_host" in machine["parallel"]
        assert machine["cpu_count"] >= 1


class TestMain:
    def test_write_then_check_then_tamper(self, tmp_path, monkeypatch):
        """End to end on a tiny matrix: a written report checks clean
        (exit 0); one altered pin exits 1 naming the case and field."""
        monkeypatch.setattr(perf, "PERF_MATRIX", TINY_MATRIX)
        monkeypatch.chdir(tmp_path)
        path = tmp_path / perf.DEFAULT_REPORT
        assert perf.main(emit=lambda line: None) == 0
        payload = json.loads(path.read_text())
        assert set(payload) == {"schema", "cases"}  # nothing host-side
        assert perf.main(check=True, emit=lambda line: None) == 0

        payload["cases"]["tiny-dynamast"]["sim_events"] += 1
        path.write_text(json.dumps(payload))
        lines = []
        assert perf.main(check=True, emit=lines.append) == 1
        failures = [line for line in lines if "FAIL" in line]
        assert len(failures) == 1
        assert "tiny-dynamast: sim_events" in failures[0]


class TestCommandLine:
    @pytest.mark.parametrize("flag", [
        ["--quick"], ["--repeats", "1"], ["--baseline-from", "x.json"],
        ["--baseline-label", "x"], ["--tolerance", "0.1"], ["--profile"],
    ])
    def test_removed_flags_are_rejected_by_argparse(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["perf", *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--smoke", "--render-tables"])
    def test_scale_only_flags_require_scale(self, flag, capsys):
        assert cli.main(["perf", flag]) == 2
        assert f"{flag} requires --scale" in capsys.readouterr().err

    def test_cores_is_refused_with_scale(self, monkeypatch, capsys):
        """The scale harness runs no jobs sweep: ``--cores`` was dropped
        silently."""
        monkeypatch.setattr(scale, "main", lambda **kwargs: 0)
        assert cli.main(["perf", "--scale", "--cores", "4"]) == 2
        assert "--cores" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, harness, expected", [
        ([], "perf", "BENCH_perf.json"),
        (["--scale"], "scale", "BENCH_scale.json"),
        # An explicit path is honoured even when it is the *other*
        # harness's default name.
        (["--scale", "--out", "BENCH_perf.json"], "scale", "BENCH_perf.json"),
        (["--out", "BENCH_scale.json"], "perf", "BENCH_scale.json"),
    ])
    def test_report_paths_default_per_harness(self, monkeypatch, argv,
                                              harness, expected):
        calls = []
        for name, module in (("perf", perf), ("scale", scale)):
            monkeypatch.setattr(
                module, "main",
                lambda _name=name, **kwargs: calls.append((_name, kwargs)) or 0,
            )
        assert cli.main(["perf", *argv]) == 0
        (called, kwargs), = calls
        assert called == harness
        assert kwargs["out"] == expected

    def test_calibrate_stays_importable_for_perfbench(self):
        """``perfbench/driver.py`` (frozen) scores the host this way."""
        done = subprocess.run(
            [sys.executable, "-c",
             "from repro.bench.perf import calibrate; print(calibrate())"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert float(done.stdout.strip()) > 0
