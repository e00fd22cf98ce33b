"""``tools/pairs.py``: the arithmetic a host-cost claim is read from."""

import importlib.util
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
