"""Every public name in ``src/repro`` has a caller outside ``tests/``.

A *public name* is a top-level function or class of a module under
``src/repro``, or a method or property of a top-level class, whose name
does not start with an underscore. It counts as *used* when a ``.py``
file under ``src/``, ``perfbench/``, ``benchmarks/`` or ``tools/``
refers to it (a ``Name`` or an attribute access) outside its own
definition, or when the Makefile mentions it. ``__all__`` lists and
``__init__`` re-exports are strings and imports, so they do not count.

Two kinds of name need no caller:

* a method or property whose body (after its docstring) is one
  ``return`` spanning at most 3 lines — a pure inspection accessor;
* a name in :data:`ALLOW`, each with the reason it stays (the strategy
  oracle is the per-candidate scorer in ``tests/test_strategy.py``).

Anything else that only tests call is deleted, not kept "just in case":
the tests then exercise the code paths that actually run.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"
CALLER_DIRS = ("src", "perfbench", "benchmarks", "tools")

#: Public names kept without a non-test caller, ``module:Qualified.name``
#: -> the reason each stays.
ALLOW = {
    "core.distributed_selector:ReplicaSelector":
        "paper Appendix I; its tests are the repo's evidence for the appendix",
    "core.distributed_selector:ReplicaSelector.submit_update":
        "paper Appendix I; its tests are the repo's evidence for the appendix",
    "bench.repeat:run_repeated":
        "paper §VI-A.2 confidence intervals; ROADMAP item 4(b) error bars",
    "versioning.vectors:satisfies_session":
        "the strong-session predicate of ROADMAP item 1a's history checker",
    "bench.perf:calibrate":
        "perfbench/driver.py calls it through a `python -c` string",
    "core.statistics:AccessStatistics.intra_probability": "input of the strategy oracle",
    "core.statistics:AccessStatistics.inter_probability": "input of the strategy oracle",
    "core.statistics:AccessStatistics.intra_partners": "input of the strategy oracle",
    "core.statistics:AccessStatistics.inter_partners": "input of the strategy oracle",
    "core.statistics:AccessStatistics.write_fraction": "input of the strategy oracle",
    "core.statistics:AccessStatistics.total_writes": "input of the strategy oracle",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _is_accessor(node: ast.AST) -> bool:
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    return (
        len(body) == 1
        and isinstance(body[0], ast.Return)
        and body[0].end_lineno - body[0].lineno < 3
    )


def _caller_trees() -> dict:
    """Path -> parsed module, for every non-test ``.py`` file that may call."""
    trees = {}
    for directory in CALLER_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            if "tests" not in path.relative_to(REPO).parts:
                trees[path] = ast.parse(path.read_text())
    return trees


def public_names(trees: dict) -> dict:
    """``module:Qualified.name`` -> its definition node, accessors excluded."""
    names = {}
    for path, tree in trees.items():
        if PACKAGE not in path.parents:
            continue
        module = _module_name(path)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            names[f"{module}:{node.name}"] = node
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if (
                    isinstance(member, ast.FunctionDef)
                    and not member.name.startswith("_")
                    and not _is_accessor(member)
                ):
                    names[f"{module}:{node.name}.{member.name}"] = member
    return names


def references(trees: dict) -> dict:
    """Identifier -> the definitions enclosing each reference to it.

    A reference is a ``Name`` or an attribute access; its enclosing
    definitions are the ids of the function and class nodes around it,
    so a definition's references to itself can be told apart.
    """
    refs = {}
    for tree in trees.values():
        stack = [(tree, ())]
        while stack:
            node, enclosing = stack.pop()
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append(enclosing)
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append(enclosing)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                enclosing = enclosing + (id(node),)
            stack.extend((child, enclosing) for child in ast.iter_child_nodes(node))
    for name in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", (REPO / "Makefile").read_text()):
        refs.setdefault(name, []).append(())
    return refs


def unused_names() -> list:
    """Public names nothing outside ``tests/`` refers to."""
    trees = _caller_trees()
    refs = references(trees)
    return sorted(
        key for key, node in public_names(trees).items()
        if all(id(node) in enclosing for enclosing in refs.get(node.name, ()))
    )


def test_every_public_name_has_a_non_test_caller():
    unexplained = [key for key in unused_names() if key not in ALLOW]
    assert not unexplained, (
        "public names only tests use — delete them, or add an ALLOW line "
        f"with a reason: {unexplained}"
    )


def test_allow_list_has_no_stale_entries():
    missing = sorted(set(ALLOW) - set(public_names(_caller_trees())))
    assert not missing, f"ALLOW names that no longer exist: {missing}"
    used = sorted(set(ALLOW) - set(unused_names()))
    assert not used, f"ALLOW names that gained a non-test caller: {used}"


def test_allow_list_stays_short():
    assert len(ALLOW) <= 15
    assert all(reason.strip() for reason in ALLOW.values())
