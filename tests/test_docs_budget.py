"""The design and experiment docs grow only by what they replace.

``DESIGN.md`` and ``EXPERIMENTS.md`` are read end to end by anyone who
changes the simulator. Their combined size is capped (ROADMAP item 6a),
so a change that adds a passage shortens or deletes another; the cap
only ever moves down.

``CHANGES.md`` says what each change did, not how it was verified: from
PR 41 on, an entry (a line matching :data:`ENTRY_START` up to the next
such line) holds at most :data:`ENTRY_BYTES` bytes (ROADMAP item 6c).
"""

import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Combined bytes of the two documents, at most.
BUDGET_BYTES = 176_579

#: Where a CHANGES.md entry starts; group 1 is its PR number.
ENTRY_START = re.compile(r"^(?:- )?PR (\d+)", re.MULTILINE)
#: Bytes one entry holds, at most, from PR :data:`FIRST_CAPPED_PR` on.
ENTRY_BYTES = 1536
FIRST_CAPPED_PR = 41


def test_design_and_experiments_stay_within_their_byte_budget():
    size = sum(len((REPO / name).read_bytes()) for name in ("DESIGN.md", "EXPERIMENTS.md"))
    assert size <= BUDGET_BYTES, (
        f"DESIGN.md + EXPERIMENTS.md hold {size} bytes, over the budget of "
        f"{BUDGET_BYTES}: shorten or delete a passage for each one added"
    )


def changes_entries(text: str) -> list:
    """``(PR number, bytes)`` per entry of ``text``, in order."""
    starts = list(ENTRY_START.finditer(text))
    ends = [match.start() for match in starts[1:]] + [len(text)]
    return [
        (int(match.group(1)), len(text[match.start():end].encode()))
        for match, end in zip(starts, ends)
    ]


def test_changes_entries_stay_within_their_byte_cap():
    text = (REPO / "CHANGES.md").read_text()
    over = [
        (number, size) for number, size in changes_entries(text)
        if number >= FIRST_CAPPED_PR and size > ENTRY_BYTES
    ]
    assert not over, (
        f"CHANGES.md entries over {ENTRY_BYTES} bytes, as (PR, bytes): {over}; "
        "say what changed and put the evidence in the PR description"
    )


def test_an_entry_runs_to_the_next_entry():
    text = "PR 40: old\n  more\n- PR 41: new\nPR 42: " + "x" * 10 + "\n"
    assert changes_entries(text) == [(40, 18), (41, 13), (42, 18)]
