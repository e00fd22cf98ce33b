"""Static guard for the determinism contract (DESIGN.md section 5).

Simulation results must be a pure function of the seed: no wall-clock
reads, no process-global random state. This test walks every module
under ``src/repro`` with the AST and rejects the constructs that break
replayability:

* importing ``time`` (wall clock) — the simulated clock is ``env.now``;
* calling ``datetime.now`` / ``datetime.today`` / ``datetime.utcnow``;
* calling module-level ``random.*`` functions, which share one global
  generator across the process. Seeded ``random.Random(seed)``
  instances are fine (that is how workload generators get isolated,
  named streams), as is ``repro.sim.rand``, the one module allowed to
  wrap ``random`` for everyone else.

Two exemption sets, both intentionally tiny:

* ``EXEMPT`` removes a module from the scan entirely (only the blessed
  ``random`` wrapper).
* ``WALL_CLOCK_EXEMPT`` allows *only* the wall-clock rules: the bench
  harness and the perf matrix (its jobs sweep and ``calibrate``) must
  read ``time.perf_counter`` to measure host seconds. They are still scanned
  for global-random violations — measuring the host clock is their job;
  leaking it into simulated behavior is not, and the fingerprint pins
  catch any such leak dynamically.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The blessed wrapper around the stdlib generator.
EXEMPT = {"sim/rand.py"}

#: Modules allowed to read the host clock (still scanned for random).
WALL_CLOCK_EXEMPT = {"bench/harness.py", "bench/perf.py"}

#: random-module attributes that are safe because they construct an
#: explicitly seeded, private generator rather than using global state.
RANDOM_CONSTRUCTORS = {"Random", "SystemRandom"}

FORBIDDEN_DATETIME_CALLS = {"now", "today", "utcnow"}


def repro_sources():
    paths = sorted(SRC.rglob("*.py"))
    assert paths, f"no sources under {SRC}"
    return [
        path for path in paths
        if str(path.relative_to(SRC)) not in EXEMPT
    ]


def violations_in(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root == "time":
                    found.append((node.lineno, "import time"))
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if root == "time":
                found.append((node.lineno, "from time import ..."))
            if root == "random":
                # `from random import Random` is fine; pulling the
                # module-level functions is not.
                for alias in node.names:
                    if alias.name not in RANDOM_CONSTRUCTORS:
                        found.append(
                            (node.lineno, f"from random import {alias.name}")
                        )
        elif isinstance(node, ast.Attribute):
            if (isinstance(node.value, ast.Name)
                    and node.value.id == "random"
                    and node.attr not in RANDOM_CONSTRUCTORS):
                found.append((node.lineno, f"random.{node.attr}"))
            if (isinstance(node.value, ast.Name)
                    and node.value.id in ("datetime", "date")
                    and node.attr in FORBIDDEN_DATETIME_CALLS):
                found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


def _is_wall_clock(what):
    return (
        what == "import time"
        or what == "from time import ..."
        or what.startswith(("datetime.", "date."))
    )


class TestDeterminismGuard:
    def test_no_wall_clock_or_global_random(self):
        problems = []
        for path in repro_sources():
            relative = str(path.relative_to(SRC))
            for lineno, what in violations_in(path):
                if relative in WALL_CLOCK_EXEMPT and _is_wall_clock(what):
                    continue
                problems.append(f"{relative}:{lineno}: {what}")
        assert not problems, (
            "nondeterministic constructs in src/repro (see DESIGN.md "
            "section 5):\n  " + "\n  ".join(problems)
        )

    def test_wall_clock_exempt_modules_still_scanned_for_random(self):
        """The bench harnesses may read the host clock but must never
        touch process-global random state."""
        for relative in sorted(WALL_CLOCK_EXEMPT):
            path = SRC / relative
            assert path.exists(), f"{relative} exempted but missing"
            bad = [
                (lineno, what)
                for lineno, what in violations_in(path)
                if not _is_wall_clock(what)
            ]
            assert not bad, f"{relative}: {bad}"

    def test_guard_catches_violations(self, tmp_path):
        """The scanner itself detects each forbidden construct."""
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import time\n"
            "import random\n"
            "from random import shuffle\n"
            "import datetime\n"
            "def f():\n"
            "    random.seed(0)\n"
            "    x = random.random()\n"
            "    t = datetime.now()\n"
        )
        found = {what for _, what in violations_in(bad)}
        assert found == {
            "import time",
            "from random import shuffle",
            "random.seed",
            "random.random",
            "datetime.now",
        }

    def test_guard_allows_seeded_generators(self, tmp_path):
        good = tmp_path / "good.py"
        good.write_text(
            "from random import Random\n"
            "import random\n"
            "rng = random.Random(42)\n"
            "value = rng.random()\n"
        )
        assert violations_in(good) == []

    def test_exempt_wrapper_exists(self):
        assert (SRC / "sim" / "rand.py").exists()

    def test_obs_package_is_scanned(self):
        """The observability layer (tracer, attribution, decision
        ledger) must itself be deterministic — it records simulated
        quantities and must never stamp them with host time or draw
        randomness. Ensure no exemption sneaks it out of the scan."""
        scanned = {str(path.relative_to(SRC)) for path in repro_sources()}
        for module in ("tracer.py", "attribution.py", "registry.py",
                       "mastery.py"):
            assert f"obs/{module}" in scanned, (
                f"obs/{module} escaped the determinism guard"
            )

    def test_faults_package_is_scanned(self):
        """The fault subsystem must stay under the determinism contract
        (its loss draws come from the seeded faults stream, never from
        global random state) — ensure no exemption sneaks it out of the
        scanned set."""
        scanned = {str(path.relative_to(SRC)) for path in repro_sources()}
        for module in ("plan.py", "injector.py", "detector.py",
                       "deadlines.py", "errors.py", "chaos.py"):
            assert f"faults/{module}" in scanned, (
                f"faults/{module} escaped the determinism guard"
            )
