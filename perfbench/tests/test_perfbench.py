"""Tests of the benchmark itself.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``; not
part of the tier-1 ``testpaths`` (the smoke pass starts ~25 children).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import layers, spec

ROOT = Path(__file__).resolve().parents[2]


def test_every_source_file_maps_to_exactly_one_layer():
    sources = sorted((ROOT / "src" / "repro").rglob("*.py"))
    assert len(sources) > 60
    unmapped = [str(path) for path in sources if layers.layer_of(str(path)) is None]
    assert unmapped == []
    for path in sources:
        layer = layers.layer_of(str(path))
        assert layer in layers.LAYERS and layer != layers.OUTSIDE, path


def test_files_outside_the_package_are_stdlib_and_new_split_files_are_unmapped():
    assert layers.layer_of("~") == "stdlib"
    assert layers.layer_of("/usr/lib/python3.11/heapq.py") == "stdlib"
    assert layers.layer_of(str(ROOT / "perfbench" / "child.py")) == "stdlib"
    assert layers.layer_of("/x/src/repro/obs/brand_new.py") == "obs"
    assert layers.layer_of("/x/src/repro/sim/brand_new.py") is None
    assert layers.layer_of("/x/src/repro/brand_new/module.py") is None


def test_fold_of_a_synthetic_profile():
    rows = [
        ("/r/src/repro/sim/core.py", 100, 2.0),
        ("/r/src/repro/sim/rand.py", 10, 0.5),
        ("/r/src/repro/storage/locks.py", 7, 0.5),
        ("~", 1000, 1.0),
        ("/r/src/repro/sim/mystery.py", 5, 9.0),
        ("/r/src/repro/sim/mystery.py", 5, 9.0),
    ]
    table, unmapped = layers.fold(rows)
    assert set(table) == set(layers.LAYERS)
    assert table["sim.core"] == {"self_s": 2.5, "calls": 110, "self_share": 0.625}
    assert table["storage.locks"]["calls"] == 7
    assert table["stdlib"]["self_share"] == 0.25
    assert table["replication"] == {"self_s": 0.0, "calls": 0, "self_share": 0.0}
    assert sum(row["self_share"] for row in table.values()) == pytest.approx(1.0)
    assert unmapped == ["/r/src/repro/sim/mystery.py"]


def test_summarize_reports_the_median_with_its_sample_count():
    assert spec.summarize([3.0, 1.0, 2.0]) == {"median": 2.0, "min": 1.0, "max": 3.0, "n": 3}
    assert spec.summarize([4.0, 1.0, 2.0, 3.0])["median"] == 2.5
    with pytest.raises(ValueError):
        spec.summarize([])


def test_bound_comparison_respects_direction_and_exactness():
    by_name = {metric.name: metric for metric in spec.END_TO_END}
    wall, tput = by_name["wall_s"], by_name["sim_tput_tps"]
    assert spec.worse_by(wall, 10.0, 11.0) == pytest.approx(0.10)
    assert spec.worse_by(tput, 100.0, 90.0) == pytest.approx(0.10)
    assert spec.worse_by(tput, 100.0, 110.0) == pytest.approx(-0.10)
    # Same commit, same seed: host noise only, so the tighter of the two bounds.
    same_seed = spec.same_seed_bound(wall)
    assert 0 < same_seed < wall.bound
    assert spec.within_bound(wall, 10.0, 10.0 * (1 + same_seed) - 1e-9)
    assert not spec.within_bound(wall, 10.0, 10.0 * (1 + same_seed) + 1e-6)
    assert spec.within_bound(wall, 10.0, 5.0)
    # Simulated metrics of one commit must be equal, not merely close.
    assert spec.within_bound(tput, 100.0, 100.0)
    assert not spec.within_bound(tput, 100.0, 100.0000001)


def test_compare_sets_flags_only_the_metric_outside_its_bound():
    a = {metric.name: 100.0 for metric in spec.END_TO_END}
    b = dict(a, wall_s=109.0, peak_rss_mb=111.0)
    verdicts = {row["metric"]: row["ok"] for row in spec.compare_sets(a, b)}
    assert verdicts.pop("peak_rss_mb") is False
    assert all(verdicts.values())


def test_committed_benchmark_json_is_generated_from_the_tables():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()
    assert set(committed) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert committed["paths"] == ["perfbench"]
    names = [m["name"] for m in committed["end_to_end"] + committed["per_layer"]]
    names += [w["name"] for w in committed["workloads"]]
    assert len(names) == len(set(names))
    assert len(committed["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in committed["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in committed["end_to_end"])


def _perfbench(*args, cwd=ROOT, timeout=600):
    return subprocess.run([sys.executable, "-m", "perfbench", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_smoke_pass_completes_and_emits_every_metric_name():
    done = _perfbench("--smoke")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert "gate: passed" in done.stdout
    assert "generator lateness is 0 by construction" in done.stdout
    report = json.loads((ROOT / "perfbench" / "out" / "report.json").read_text())
    assert list(report["workloads"]) == list(spec.WORKLOADS)
    assert {"nproc", "python", "platform", "calibrate_kops", "loadavg_1m"} <= set(report["host"])
    for workload, entry in report["workloads"].items():
        assert set(entry["end_to_end"]) == {m.name for m in spec.END_TO_END}
        assert set(entry["per_layer"]) == {m.name for m in spec.PER_LAYER}
        assert all(row["n"] >= 3 for row in entry["end_to_end"].values())
        trace = json.loads(
            (ROOT / "perfbench" / "out" / f"{workload}.trace.json").read_text())
        assert trace["unmapped"] == []
    two_pc = report["workloads"]["ycsb-2pc"]["per_layer"]
    assert two_pc["core.selector.calls"] == 0 and two_pc["core.strategy.calls"] == 0
    assert two_pc["replication.messages_per_commit"] == 0
    for metric in spec.PER_LAYER:
        assert metric.name in done.stdout


def test_contract_run_prints_one_result_object_last():
    done = _perfbench("--workload", "ycsb-2pc", "--seed", "3", "--seconds", "1",
                      "--trace", "0")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m.name for m in spec.END_TO_END}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_without_the_simulator_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _perfbench("--workload", "ycsb-2pc", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "no src/repro" in done.stderr
    assert "correct" not in done.stdout
