"""The fixed file -> layer table, and the fold of a profile onto it.

Layers are the package names of ``src/repro``. Packages that belong to
one layer map by directory; packages split across layers (``sim``,
``storage``, ``core``, the top level) map file by file, so a file added
there is *unmapped* until someone decides where its time belongs —
``perfbench/tests`` fails on it and the driver prints it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

LAYERS = (
    "sim.core", "sim.resources", "sim.network", "sim.arrivals",
    "storage.mvcc", "storage.locks", "versioning", "replication",
    "core.selector", "core.strategy", "sites", "systems", "workloads",
    "bench", "obs", "faults", "stdlib",
)

#: Everything that is not a file of ``src/repro``: the interpreter's
#: builtins, the standard library, numpy, and perfbench's own wrappers.
OUTSIDE = "stdlib"

_FILES = {
    "__init__.py": "bench",
    "__main__.py": "bench",
    "cli.py": "bench",
    "transactions.py": "workloads",
    "sim/__init__.py": "sim.core",
    "sim/core.py": "sim.core",
    "sim/rand.py": "sim.core",
    "sim/config.py": "sim.core",
    "sim/resources.py": "sim.resources",
    "sim/network.py": "sim.network",
    "sim/arrivals.py": "sim.arrivals",
    "storage/__init__.py": "storage.mvcc",
    "storage/record.py": "storage.mvcc",
    "storage/database.py": "storage.mvcc",
    "storage/table.py": "storage.mvcc",
    "storage/locks.py": "storage.locks",
    "core/__init__.py": "core.selector",
    "core/site_selector.py": "core.selector",
    "core/distributed_selector.py": "core.selector",
    "core/partitions.py": "core.selector",
    "core/strategy.py": "core.strategy",
    "core/statistics.py": "core.strategy",
}

_PACKAGES = {
    "versioning": "versioning",
    "replication": "replication",
    "sites": "sites",
    "systems": "systems",
    "workloads": "workloads",
    "partitioning": "workloads",
    "bench": "bench",
    "obs": "obs",
    "faults": "faults",
}

_MARKER = "/src/repro/"


def layer_of(filename: str) -> Optional[str]:
    """Layer of one source file; ``None`` for an unmapped ``src/repro`` file.

    ``filename`` is whatever a code object carries: an absolute path,
    or a pseudo-name such as ``~`` or ``<string>`` for builtins — those
    and every real file outside ``src/repro`` are :data:`OUTSIDE`.
    """
    normalized = filename.replace("\\", "/")
    _, marker, relative = normalized.rpartition(_MARKER)
    if not marker:
        return OUTSIDE
    if relative in _FILES:
        return _FILES[relative]
    return _PACKAGES.get(relative.split("/", 1)[0])


def fold(rows: Iterable[Tuple[str, int, float]]):
    """Fold ``(filename, calls, self_seconds)`` rows by layer.

    Returns ``(table, unmapped)``: ``table[layer]`` has ``self_s``,
    ``calls`` and ``self_share`` (of the summed self time) for every
    layer of :data:`LAYERS`, touched or not; ``unmapped`` lists the
    ``src/repro`` files no rule covers (their time is left out, so the
    acceptance check on the sum fails loudly rather than hiding it).
    """
    table: Dict[str, Dict[str, float]] = {
        layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS
    }
    unmapped = set()
    for filename, calls, self_s in rows:
        layer = layer_of(filename)
        if layer is None:
            unmapped.add(filename)
            continue
        table[layer]["self_s"] += self_s
        table[layer]["calls"] += calls
    total = sum(row["self_s"] for row in table.values())
    for row in table.values():
        row["self_share"] = row["self_s"] / total if total > 0 else 0.0
    return table, sorted(unmapped)
