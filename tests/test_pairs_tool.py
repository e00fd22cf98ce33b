"""``tools/pairs.py``: the arithmetic a host-cost claim is read from."""

import contextlib
import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "pairs_tool", Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def test_quartiles_are_inclusive():
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_report_counts_wins_per_pair_and_leaves_ties_out():
    base = [3.0, 3.0, 3.0, 3.0]
    change = [2.0, 2.5, 3.0, 4.0]  # two wins, one tie, one loss
    line = pairs.report("wall_s", base, change)
    assert "change ahead 2/3" in line
    # Parent runs identical: any median difference is beyond their spread.
    assert "beyond base Q3-Q1 0.000" in line
    assert "-8.3% of base" in line  # (2.75 - 3.0) / 3.0


def test_report_marks_a_difference_inside_the_parents_spread():
    line = pairs.report("wall_s", [2.0, 3.0, 4.0, 5.0], [2.1, 2.9, 3.9, 4.9])
    assert "inside base Q3-Q1 1.500" in line


def test_fewer_than_two_pairs_is_refused():
    with pytest.raises(SystemExit):
        pairs.main(["--workload", "ycsb-2pc", "--base", "HEAD", "--pairs", "1"])


def test_recorder_is_passed_through_to_the_child(monkeypatch, tmp_path):
    commands = []

    def fake_run(command, **kwargs):
        commands.append(command)
        return pairs.subprocess.CompletedProcess(command, 0, stdout='{"ok": 1}\n')

    monkeypatch.setattr(pairs.subprocess, "run", fake_run)
    assert pairs.child(tmp_path, "recorder-cost", 11, "tracer") == {"ok": 1}
    assert pairs.child(tmp_path, "ycsb-2pc", 5) == {"ok": 1}
    tracer_on, default = commands
    assert tracer_on[tracer_on.index("--recorder") + 1] == "tracer"
    assert tracer_on[tracer_on.index("--workload") + 1] == "recorder-cost"
    assert default[default.index("--recorder") + 1] == "off"


def test_recorder_on_a_workload_that_ignores_it_is_refused(capsys):
    with pytest.raises(SystemExit):
        pairs.main(["--workload", "ycsb-2pc", "--base", "HEAD",
                    "--recorder", "tracer"])
    assert "recorder-cost only" in capsys.readouterr().err


# -- --case: a row of the repro perf matrix instead of a perfbench workload ------


def test_case_and_workload_are_exclusive_and_one_is_required(capsys):
    with pytest.raises(SystemExit):
        pairs.main(["--case", "leap-ycsb", "--workload", "ycsb-2pc", "--base", "HEAD"])
    assert "not allowed with" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        pairs.main(["--base", "HEAD"])
    assert "one of the arguments --workload --case is required" in capsys.readouterr().err


def test_case_child_runs_the_matrix_row_and_reports_like_a_perfbench_child():
    """One real child of the cheapest row on this tree: the fingerprint
    is the one ``BENCH_perf.json`` pins for it."""
    row = pairs.case_child(pairs.ROOT, "partition-store-ycsb", 11)
    assert set(row["end_to_end"]) == set(pairs.CASE_METRICS)
    assert all(value > 0 for value in row["end_to_end"].values())
    pinned = json.loads((pairs.ROOT / "BENCH_perf.json").read_text())
    assert [run["fingerprint"] for run in row["runs"]] == [
        pinned["cases"]["partition-store-ycsb"]["fingerprint"]
    ]


def test_an_unknown_case_names_the_matrix_rows():
    with pytest.raises(SystemExit) as refused:
        pairs.case_child(pairs.ROOT, "leap-tpcc", 11)
    assert "unknown case 'leap-tpcc'" in str(refused.value)
    assert "leap-ycsb" in str(refused.value)


def _fake_rows(monkeypatch, tmp_path, fingerprint_of):
    """Pairs of canned ``--case`` children; returns the trees they ran on."""
    trees = []

    @contextlib.contextmanager
    def checkout(base):
        yield tmp_path

    def case_child(tree, case, seed):
        trees.append(tree)
        slower = 0.5 if tree == tmp_path else 0.0
        return {
            "end_to_end": {"wall_clock_s": 1.0 + slower, "ru_maxrss_mb": 25.0 + slower},
            "runs": [{"fingerprint": fingerprint_of(tree)}],
        }

    monkeypatch.setattr(pairs, "checkout", checkout)
    monkeypatch.setattr(pairs, "case_child", case_child)
    return trees


def test_case_pairs_alternate_and_report_both_metrics(monkeypatch, tmp_path, capsys):
    trees = _fake_rows(monkeypatch, tmp_path, lambda tree: "abc")
    assert pairs.main(["--case", "leap-ycsb", "--base", "HEAD", "--pairs", "4"]) == 0
    base, change = tmp_path, pairs.ROOT
    assert trees == [base, change, change, base, base, change, change, base]
    out = capsys.readouterr().out
    assert "leap-ycsb, seed 11, 4 alternated pairs against HEAD" in out
    assert "wall_clock_s" in out and "ru_maxrss_mb" in out and "peak_rss_mb" not in out
    assert out.count("change ahead 4/4") == 2
    assert "simulated results identical on both sides (fingerprints abc)" in out


def test_differing_fingerprints_exit_1(monkeypatch, tmp_path, capsys):
    _fake_rows(monkeypatch, tmp_path, lambda tree: "abc" if tree == tmp_path else "xyz")
    assert pairs.main(["--case", "leap-ycsb", "--base", "HEAD", "--pairs", "2"]) == 1
    assert "simulated results DIFFER" in capsys.readouterr().out
