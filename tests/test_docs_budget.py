"""The design and experiment docs grow only by what they replace.

``DESIGN.md`` and ``EXPERIMENTS.md`` are read end to end by anyone who
changes the simulator. Their combined size is capped (ROADMAP item 6a),
so a change that adds a passage shortens or deletes another; the cap
only ever moves down.
"""

from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Combined bytes of the two documents, at most.
BUDGET_BYTES = 176_668


def test_design_and_experiments_stay_within_their_byte_budget():
    size = sum(len((REPO / name).read_bytes()) for name in ("DESIGN.md", "EXPERIMENTS.md"))
    assert size <= BUDGET_BYTES, (
        f"DESIGN.md + EXPERIMENTS.md hold {size} bytes, over the budget of "
        f"{BUDGET_BYTES}: shorten or delete a passage for each one added"
    )
