"""Every fault-injector test in ``systems/`` and ``core/`` is a stated fork.

A protocol step is written once. Without an injector ``guarded_call``
*is* ``remote_call`` and ``with_retries`` makes a single try, so the
survivable code run unfaulted produces the unhardened events, and a
second, injector-free copy of a step is a twin nobody can tell apart.
A ``faults is None`` / ``faults is not None`` test is kept only where
the faulted schedule differs or the step reads injector state; the
function holding it is listed in :data:`ALLOW` with the reason. The
test fails on a gate outside the list (a new twin) and on an entry
whose function no longer has one (a stale reason).
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"
SCANNED = ("systems", "core")

#: ``path:Qualified.name`` of each function holding a gate -> why.
ALLOW = {
    "systems/base.py:Cluster.health":
        "the one health predicate routing asks: reads the detector",
}


def _is_gate(node: ast.AST) -> bool:
    """``<...>faults is [not] None``."""
    if not (
        isinstance(node, ast.Compare)
        and len(node.ops) == 1
        and isinstance(node.ops[0], (ast.Is, ast.IsNot))
        and isinstance(node.comparators[0], ast.Constant)
        and node.comparators[0].value is None
    ):
        return False
    left = node.left
    return (isinstance(left, ast.Name) and left.id == "faults") or (
        isinstance(left, ast.Attribute) and left.attr == "faults"
    )


def fault_gates() -> dict:
    """``path:Qualified.name`` -> number of gates in that function."""
    gates = {}
    for directory in SCANNED:
        for path in sorted((PACKAGE / directory).glob("*.py")):
            where = path.relative_to(PACKAGE).as_posix()
            stack = [(ast.parse(path.read_text()), ())]
            while stack:
                node, scope = stack.pop()
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    scope = scope + (node.name,)
                elif _is_gate(node):
                    key = f"{where}:{'.'.join(scope)}"
                    gates[key] = gates.get(key, 0) + 1
                stack.extend((child, scope) for child in ast.iter_child_nodes(node))
    return gates


def test_every_fault_gate_is_an_allowed_fork():
    unexplained = sorted(set(fault_gates()) - set(ALLOW))
    assert not unexplained, (
        "a `faults is None` test outside the allow-list — write the step "
        f"once (guarded_call / with_retries), or add a reason: {unexplained}"
    )


def test_allow_list_has_no_stale_entries():
    stale = sorted(set(ALLOW) - set(fault_gates()))
    assert not stale, f"ALLOW entries without a gate: {stale}"


def test_each_fork_tests_the_injector_once():
    assert all(count == 1 for count in fault_gates().values()), fault_gates()
    assert len(ALLOW) <= 1
    assert all(reason.strip() for reason in ALLOW.values())
