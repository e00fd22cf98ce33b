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
  ``return`` spanning at most 3 lines — a pure inspection accessor.
  It still needs a reader: something under ``src/``, ``tests/``,
  ``perfbench/``, ``benchmarks/`` or ``tools/`` (or the Makefile)
  must refer to it, or it is deleted;
* a name in :data:`ALLOW`, each with the reason it stays (``calibrate``
  is called by ``perfbench/driver.py`` through a ``python -c`` string,
  which this scan does not parse).

Anything else that only tests call is deleted, not kept "just in case":
the tests then exercise the code paths that actually run.

The same holds for *options*. An option is a defaulted parameter (or
the ``**kwargs``) of a public function, method or constructor
(``__init__`` of a public class), or a defaulted field of a config
dataclass in :data:`OPTION_DATACLASSES`. A parameter counts as *set*
when a call in the same callers (and the Makefile's ``python -c``
programs), outside the option's own definition, calls it by name and

* passes it by keyword, or by position;
* forwards ``*args`` (every positional option) or ``**kwargs`` (every
  option) to it — out of a public function's own ``**kwargs`` only
  once something sets those; or
* passes the callable itself next to the keyword, as in
  ``once(fn, kw=...)``.

``super().__init__(...)`` calls the enclosing class's bases, ``cls(...)``
the enclosing class, ``Class.method(...)`` that class's method only,
and a callable stored in a dict (a registry such as
``WORKLOAD_REGISTRY``) counts as called with every option.

A config field counts as set when such a call passes its name by
keyword (or position) to the class, to ``replace``, to a method of the
class (``.of``, ``.scaled``), or to ``WorkloadSpec.of`` /
``build_workload`` with the workload's registry name; or when the name
is a key of a dict literal or ``dict(...)`` forwarded with ``**`` (see
:func:`set_fields`). Inside the class's own body only a preset counts.

An option nothing sets is a second configuration no figure, benchmark
or command runs: it is deleted, and its default becomes the code (a
config field becomes a module constant next to its reader). The
exceptions are the at most 9 entries of :data:`ALLOW_OPTIONS`, each
with a reason.

The same holds for *registered names*: every name in
``CURVE_REGISTRY`` and ``WORKLOAD_REGISTRY`` must appear as a string
literal in those callers (its own registry key aside) or in the
Makefile — a curve or workload nothing runs is deleted.

Out of scope: CLI flags.
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
    "bench.repeat:run_repeated": "ROADMAP item 5a error bars",
    "versioning.vectors:satisfies_session":
        "the strong-session predicate of ROADMAP item 1a's history checker",
    "bench.perf:calibrate":
        "perfbench/driver.py calls it through a `python -c` string",
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


def unread_accessors() -> list:
    """Inspection accessors nothing refers to, tests included."""
    trees = _caller_trees()
    tests = sorted((REPO / "tests").rglob("*.py"))
    refs = references({**trees, **{path: ast.parse(path.read_text()) for path in tests}})
    return sorted(
        f"{_module_name(path)}:{node.name}.{member.name}"
        for path, tree in trees.items() if PACKAGE in path.parents
        for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        for member in node.body
        if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
        and _is_accessor(member)
        and all(id(member) in enclosing for enclosing in refs.get(member.name, ()))
    )


def test_every_accessor_has_a_reader():
    unread = unread_accessors()
    assert not unread, f"inspection accessors nothing reads — delete them: {unread}"


def test_allow_list_has_no_stale_entries():
    missing = sorted(set(ALLOW) - set(public_names(_caller_trees())))
    assert not missing, f"ALLOW names that no longer exist: {missing}"
    used = sorted(set(ALLOW) - set(unused_names()))
    assert not used, f"ALLOW names that gained a non-test caller: {used}"


def test_allow_list_stays_short():
    assert len(ALLOW) <= 3
    assert all(reason.strip() for reason in ALLOW.values())


# ---------------------------------------------------------------------------
# Options (see the module docstring)
# ---------------------------------------------------------------------------

#: Dataclasses whose fields count as options: the run description and
#: every config a run is built from.
OPTION_DATACLASSES = (
    "bench.parallel:RunSpec",
    "sim.config:ClusterConfig",
    "core.statistics:StatisticsConfig", "core.strategy:StrategyWeights",
    "workloads.ycsb:YCSBConfig", "workloads.tpcc:TPCCConfig",
    "workloads.smallbank:SmallBankConfig", "workloads.openloop:OpenLoopSpec",
)

#: Options kept without a non-test setter, ``module:Qualified.name(option)``
#: (or ``module:Qualified.name`` for all of a name's options) -> the reason.
ALLOW_OPTIONS = {
    "bench.perf:run_sweep(executor)": "test fake: tests swap the process pool for a stub",
    "bench.perf:main(emit)": "test fake: tests capture or silence the printed report",
    "bench.scale:main(emit)": "test fake: tests capture or silence the printed report",
    "cli:main(argv)": "the entry point: the console script reads sys.argv, tests pass a list",
    "sim.core:Environment.timeout(value)":
        "AllOf/AnyOf carry values in the kernel golden trace (test_perf_identity)",
    "bench.repeat:run_repeated": "ROADMAP item 5a error bars",
    "bench.perf:calibrate": "perfbench/driver.py calls it through a `python -c` string",
    "core.statistics:StatisticsConfig":
        "STATISTICS_DIGEST reaches expiry and both caps in 400 steps only at small values",
    "workloads.openloop:OpenLoopSpec(queue_capacity)":
        "its shed counter is in the open-loop fingerprint; deleting it re-pins BENCH_scale",
}

INFINITE = float("inf")


def _makefile_trees() -> list:
    """The Makefile's ``python -c "..."`` programs, parsed."""
    text = (REPO / "Makefile").read_text().replace("\\\n", " ")
    return [
        ast.parse(source.replace("$$", "$").replace("\\#", "#").replace('\\"', '"'))
        for source in re.findall(r'python -c "((?:[^"\\]|\\.)*)"', text)
    ]


def options(trees: dict) -> dict:
    """``module:Qualified.name(option)`` -> (callee, definition, index, names, owner).

    *callee* is the name a call uses; *index* is the option's position
    among a call's positional arguments (``self`` not counted), or None;
    *names* are the keywords that set it (for ``**kwargs``, any keyword
    that is not a named parameter); *owner* is a method's class. The
    fields of :data:`OPTION_DATACLASSES` are :func:`config_fields`, and
    a parameter of their methods named like a field is that field.
    """
    found = {}

    def add(prefix, callee, node, skip, owner=None, fields=()):
        args = node.args
        positional = args.posonlyargs + args.args
        named = {arg.arg for arg in positional + args.kwonlyargs}
        first = len(positional) - len(args.defaults)
        for index, param in enumerate(positional[first:], first - skip):
            if param.arg not in fields:
                found[f"{prefix}({param.arg})"] = (callee, node, index, {param.arg}, owner)
        for param, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None and param.arg not in fields:
                found[f"{prefix}({param.arg})"] = (callee, node, None, {param.arg}, owner)
        if args.kwarg is not None:
            found[f"{prefix}(**{args.kwarg.arg})"] = (callee, node, None, named, owner)

    for path, tree in trees.items():
        if PACKAGE not in path.parents:
            continue
        module = _module_name(path)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            prefix = f"{module}:{node.name}"
            if isinstance(node, ast.FunctionDef):
                add(prefix, node.name, node, 0)
                continue
            fields = _fields(node) if prefix in OPTION_DATACLASSES else ()
            for member in node.body:
                if not isinstance(member, ast.FunctionDef):
                    continue
                static = any(getattr(d, "id", "") == "staticmethod"
                             for d in member.decorator_list)
                if member.name == "__init__":
                    add(prefix, node.name, member, 1)
                elif member.name[0] != "_":
                    add(f"{prefix}.{member.name}", member.name, member,
                        0 if static else 1, node.name, fields)
    return found


def _callees(call: ast.Call, classes: tuple) -> list:
    """The names a call calls, resolving ``super().__init__`` and ``cls``."""
    func = call.func
    if isinstance(func, ast.Name):
        return [classes[-1].name] if func.id == "cls" and classes else [func.id]
    if not isinstance(func, ast.Attribute):
        return []
    owner = func.value
    if (
        func.attr == "__init__" and classes and isinstance(owner, ast.Call)
        and getattr(owner.func, "id", "") == "super"
    ):
        return [getattr(base, "id", getattr(base, "attr", "")) for base in classes[-1].bases]
    return [func.attr]


def setters(trees) -> dict:
    """Callee name -> ``(enclosing, keywords, positions, owner)`` per setting call.

    *enclosing* holds the ids of the definitions around the call,
    *keywords* the keywords it passes (``"**"`` for a ``**`` forward),
    *positions* the number of positional arguments (infinite for a
    ``*`` forward), and *owner* the name a method is called on
    (``OpenLoopSpec`` in ``OpenLoopSpec.of(...)``), if it is a name.
    """
    calls = {}
    for tree in trees:
        stack = [(tree, (), ())]
        while stack:
            node, enclosing, classes = stack.pop()
            if isinstance(node, ast.Call):
                keywords = {kw.arg or "**" for kw in node.keywords}
                starred = any(isinstance(arg, ast.Starred) for arg in node.args)
                positions = INFINITE if starred else len(node.args)
                owner = getattr(getattr(node.func, "value", None), "id", None)
                for name in _callees(node, classes):
                    calls.setdefault(name, []).append((enclosing, keywords, positions, owner))
                for arg in node.args:
                    name = getattr(arg, "id", getattr(arg, "attr", None))
                    if name and keywords:
                        calls.setdefault(name, []).append((enclosing, keywords, 0, None))
            elif isinstance(node, ast.Dict):
                for value in node.values:
                    for item in getattr(value, "elts", [value]):
                        if isinstance(item, ast.Name):
                            calls.setdefault(item.id, []).append(
                                (enclosing, {"**"}, INFINITE, None))
            elif isinstance(node, ast.ClassDef):
                enclosing, classes = enclosing + (id(node),), classes + (node,)
            elif isinstance(node, ast.FunctionDef):
                enclosing = enclosing + (id(node),)
            stack.extend((child, enclosing, classes) for child in ast.iter_child_nodes(node))
    return calls


# -- config fields --------------------------------------------------------------


def _fields(node: ast.ClassDef) -> list:
    """A dataclass's field names, in order."""
    return [m.target.id for m in node.body if isinstance(m, ast.AnnAssign)]


def _dataclasses(trees: dict) -> dict:
    """Class name -> ``(key prefix, class node)`` per :data:`OPTION_DATACLASSES` entry."""
    found = {}
    for path, tree in trees.items():
        if PACKAGE in path.parents:
            module = _module_name(path)
            for node in tree.body:
                if isinstance(node, ast.ClassDef) and f"{module}:{node.name}" in OPTION_DATACLASSES:
                    found[node.name] = (f"{module}:{node.name}", node)
    return found


def config_fields(trees: dict) -> dict:
    """``module:Class(field)`` -> ``(class name, field)``, defaulted fields only."""
    return {
        f"{prefix}({member.target.id})": (name, member.target.id)
        for name, (prefix, node) in _dataclasses(trees).items()
        for member in node.body
        if isinstance(member, ast.AnnAssign) and member.value is not None
    }


def _registry(trees: dict) -> dict:
    """``WORKLOAD_REGISTRY`` name -> the name of its config class."""
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.Assign) and getattr(
                node.targets[0], "id", ""
            ) == "WORKLOAD_REGISTRY":
                return {key.value: value.elts[0].id
                        for key, value in zip(node.value.keys, node.value.values)}
    return {}


def _params(method: ast.FunctionDef) -> list:
    """A method's positional parameter names, ``self`` / ``cls`` aside."""
    static = any(getattr(d, "id", "") == "staticmethod" for d in method.decorator_list)
    names = [arg.arg for arg in method.args.posonlyargs + method.args.args]
    return names if static else names[1:]


def _targets(call: ast.Call, classes: dict, registry: dict, inside):
    """``(class name, positional parameter names)`` per config a call sets.

    A class call maps positions to fields, a method call (``.of``,
    ``.scaled``) to the method's parameters; ``replace`` and the
    workload builders set keywords only.
    """
    func = call.func
    name = getattr(func, "id", None) or getattr(func, "attr", "")
    owner = getattr(getattr(func, "value", None), "id", None)
    if name == "cls" and inside:
        name = inside
    if isinstance(func, ast.Name) and name in classes:
        return [(name, _fields(classes[name][1]))]
    if name == "replace":
        return [(cls, ()) for cls in classes]
    if (name, owner) in (("build_workload", None), ("of", "WorkloadSpec")):
        first = call.args[0] if call.args else None
        if isinstance(first, ast.Constant):
            return [(registry.get(first.value), ())]
        return [(cls, ()) for cls in registry.values()]
    if not isinstance(func, ast.Attribute):
        return []
    candidates = [owner] if owner in classes else list(classes)
    return [
        (cls, _params(member))
        for cls in candidates
        for member in classes[cls][1].body
        if isinstance(member, ast.FunctionDef) and member.name == name
        and name[0] != "_"
    ]


def _reads(value: ast.AST, names: set) -> bool:
    """Whether the expression ``value`` reads any of ``names``."""
    return any(getattr(node, "id", None) in names for node in ast.walk(value))


def set_fields(trees: dict, programs: list) -> set:
    """``(class name, field)`` pairs a call outside ``tests/`` sets.

    A call sets a field when it passes the field's name by keyword (or
    by position) to the class, to ``replace``, to a method of the class
    such as ``.of`` or ``.scaled``, or to ``WorkloadSpec.of`` /
    ``build_workload`` with the registry name of the workload. A ``**``
    forward sets the names of a dict literal it unpacks; one a syntax
    scan cannot read sets every key of every dict literal and
    ``dict(...)`` call in the callers. Inside the class's own body only
    a preset counts: a value that reads none of the enclosing
    function's parameters (``for_ycsb``'s constants, not ``of``
    passing its arguments through).
    """
    classes = _dataclasses(trees)
    registry = _registry(trees)
    own = {id(node): name for name, (_, node) in classes.items()}
    done, forwarded, keys = set(), set(), set()
    for tree in list(trees.values()) + programs:
        stack = [(tree, None, set())]
        while stack:
            node, inside, params = stack.pop()
            if isinstance(node, ast.ClassDef):
                inside = own.get(id(node), inside)
            elif isinstance(node, ast.FunctionDef):
                params = {arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)}
            elif isinstance(node, ast.Dict) and inside is None:
                keys.update(key.value for key in node.keys if isinstance(key, ast.Constant))
            elif isinstance(node, ast.Call):
                if inside is None and getattr(node.func, "id", "") == "dict":
                    keys.update(kw.arg for kw in node.keywords if kw.arg)
                for cls, positional in _targets(node, classes, registry, inside):
                    if cls is None:
                        continue
                    own_body = cls == inside
                    passed = params if own_body else set()
                    for index, arg in enumerate(node.args):
                        if isinstance(arg, ast.Starred):
                            if not own_body:
                                done.update((cls, name) for name in positional[index:])
                            break
                        if index < len(positional) and not _reads(arg, passed):
                            done.add((cls, positional[index]))
                    for kw in node.keywords:
                        if kw.arg is not None:
                            if not _reads(kw.value, passed):
                                done.add((cls, kw.arg))
                        elif own_body:
                            continue
                        elif isinstance(kw.value, ast.Dict) and all(
                            isinstance(key, ast.Constant) for key in kw.value.keys
                        ):
                            done.update((cls, key.value) for key in kw.value.keys)
                        else:
                            forwarded.add(cls)
            stack.extend((child, inside, params) for child in ast.iter_child_nodes(node))
    done.update((cls, key) for cls in forwarded for key in keys)
    return done


def unset_options() -> list:
    """Options no call outside ``tests/`` sets.

    A ``**`` forward out of a public function's own ``**kwargs`` sets
    the callee's options only once something sets that ``**kwargs``:
    ``run_repeated(**kwargs)`` forwarding into a function must not set
    every option on the strength of test calls alone. A method called on
    a class by name (``OpenLoopSpec.of``) is that class's method only.
    """
    trees = _caller_trees()
    programs = _makefile_trees()
    calls = setters(list(trees.values()) + programs)
    found = options(trees)
    classes = {owner for (_, _, _, _, owner) in found.values() if owner}
    forwarders = {id(node): key for key, (_, node, _, _, _) in found.items() if "(**" in key}
    unset = set(found)

    def sets(key, call) -> bool:
        _, node, index, names, owner = found[key]
        enclosing, keywords, positions, called_on = call
        if id(node) in enclosing or (owner and called_on in classes and called_on != owner):
            return False
        if "**" in keywords:
            if (forwarders.get(enclosing[-1]) if enclosing else None) not in unset:
                return True
            keywords = keywords - {"**"}
        if "(**" in key:
            return bool(keywords - names)
        return bool(keywords & names) or (index is not None and index < positions)

    while True:
        settled = {
            key for key in unset
            if any(sets(key, call) for call in calls.get(found[key][0], ()))
        }
        if not settled:
            break
        unset -= settled
    done = set_fields(trees, programs)
    unset.update(key for key, field in config_fields(trees).items() if field not in done)
    return sorted(unset)


def _allowed(key: str) -> bool:
    return key in ALLOW_OPTIONS or key[:key.index("(")] in ALLOW_OPTIONS


def test_every_option_has_a_non_test_setter():
    unexplained = [key for key in unset_options() if not _allowed(key)]
    assert not unexplained, (
        "options only tests set — delete them (the default becomes the "
        f"code), or add an ALLOW_OPTIONS line with a reason: {unexplained}"
    )


def test_every_option_dataclass_exists():
    missing = sorted(set(OPTION_DATACLASSES) - {
        prefix for prefix, _ in _dataclasses(_caller_trees()).values()
    })
    assert not missing, f"OPTION_DATACLASSES entries that no longer exist: {missing}"


def test_option_allow_list_is_short_and_current():
    assert len(ALLOW_OPTIONS) <= 9
    assert all(reason.strip() for reason in ALLOW_OPTIONS.values())
    unset = unset_options()
    stale = sorted(
        entry for entry in ALLOW_OPTIONS
        if not any(key == entry or key.startswith(entry + "(") for key in unset)
    )
    assert not stale, f"ALLOW_OPTIONS entries that are gone or now set: {stale}"


# ---------------------------------------------------------------------------
# Registered names (see the module docstring)
# ---------------------------------------------------------------------------

REGISTRIES = ("CURVE_REGISTRY", "WORKLOAD_REGISTRY")


def string_literals(trees) -> set:
    """Every string constant in ``trees``, the registries' own keys aside."""
    literals = set()
    for tree in trees:
        keys = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Dict):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(getattr(target, "id", "") in REGISTRIES for target in targets):
                    keys.update(id(key) for key in node.value.keys)
        literals.update(
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in keys
        )
    return literals


def test_every_registered_name_has_a_non_test_caller():
    from repro.sim.arrivals import CURVE_REGISTRY
    from repro.workloads import WORKLOAD_REGISTRY

    named = string_literals(_caller_trees().values())
    named.update(re.findall(r"[A-Za-z_][A-Za-z0-9_-]*", (REPO / "Makefile").read_text()))
    unrun = sorted(set(CURVE_REGISTRY) - named) + sorted(set(WORKLOAD_REGISTRY) - named)
    assert not unrun, (
        f"registered names no figure, benchmark or command runs — delete them: {unrun}"
    )
