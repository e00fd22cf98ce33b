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
