"""Alternated perfbench-child pairs: a base revision against this tree.

The reference host's speed drifts by ±20 % over minutes, so two trees
are compared by running one ``perfbench.child`` of each back to back,
many times, with the side that goes first alternating (CONTRIBUTING.md,
"Claiming a gain"). ``make pairs W=<workload> BASE=<rev> N=10`` unpacks
``BASE``'s committed files (``git archive``) into a temporary
directory and copies this tree's files (tracked or not ignored,
uncommitted edits included) into another, so that neither side runs
from a checkout whose ``__pycache__`` is warm; it runs ``N`` pairs at
one seed from the two copies, and prints for each host-side
metric both sides' median and quartiles, how many of all pairs the
working tree won (a tie is not a win), and whether the medians differ by more than the base's own
Q3 − Q1. Simulated results must be equal on both sides; the script says
so or exits 1. ``W=recorder-cost R=<recorder>`` runs the pairs with that
recorder ON, which compares what recording costs in the two trees.

perfbench's five workloads are all DynaMast or partition-store runs.
``make pairs CASE=<name>`` pairs one row of the ``repro perf`` matrix
instead (``repro.bench.perf.PERF_MATRIX``: ``leap-ycsb``,
``single-master-ycsb``, ``multi-master-ycsb`` …), each child being one
``execute_spec`` of that row in a fresh interpreter.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Host-side end-to-end metrics of a perfbench child, all "lower is
#: better"; the first one is echoed as the pairs run.
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
#: The same for a ``--case`` child.
CASE_METRICS = ("wall_clock_s", "ru_maxrss_mb")

#: A ``--case`` child: one matrix row (``argv[1]``, at seed ``argv[2]``)
#: through ``execute_spec``, reported in the shape of a perfbench child.
CASE_CHILD = """
import dataclasses, json, resource, sys
from repro.bench.parallel import execute_spec, run_fingerprint
from repro.bench.perf import PERF_MATRIX
rows = {spec.label: spec for spec in PERF_MATRIX}
if sys.argv[1] not in rows:
    sys.exit(f"unknown case {sys.argv[1]!r}; expected one of {sorted(rows)}")
result = execute_spec(dataclasses.replace(rows[sys.argv[1]], seed=int(sys.argv[2])))
print(json.dumps({
    "end_to_end": {
        "wall_clock_s": result.wall_clock_s,
        "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    },
    "runs": [{"fingerprint": run_fingerprint(result)}],
}))
"""


def _json_child(command, tree: Path) -> dict:
    """Run ``command`` in ``tree``; its last stdout line is one JSON object."""
    done = subprocess.run(
        command, cwd=tree, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=f"{tree / 'src'}{os.pathsep}{tree}"),
    )
    if done.returncode:
        raise SystemExit(f"child failed in {tree}:\n{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def child(tree: Path, workload: str, seed: int, recorder: str = "off") -> dict:
    """One fresh-interpreter repeat of ``workload`` on ``tree``."""
    return _json_child(
        [sys.executable, "-m", "perfbench.child", "--workload", workload,
         "--seed", str(seed), "--recorder", recorder,
         "--spawned-at", repr(time.time())],
        tree,
    )


def case_child(tree: Path, case: str, seed: int) -> dict:
    """One fresh-interpreter run of matrix row ``case`` on ``tree``."""
    return _json_child([sys.executable, "-c", CASE_CHILD, case, str(seed)], tree)


@contextlib.contextmanager
def checkout(base: str):
    """``base``'s committed files, unpacked into a temporary directory."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", base],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    with tempfile.TemporaryDirectory(prefix="pairs-base-") as tree:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree)
        yield Path(tree)


@contextlib.contextmanager
def working_copy():
    """This tree's files, as they are on disk, copied into a temporary
    directory: what ``git ls-files`` lists as tracked or as untracked
    and not ignored, minus files deleted from the checkout."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout.decode()
    with tempfile.TemporaryDirectory(prefix="pairs-change-") as tree:
        for name in filter(None, listed.split("\0")):
            source = ROOT / name
            if source.is_file():
                target = Path(tree) / name
                target.parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(source, target)
        yield Path(tree)


def quartiles(values):
    """``(Q1, median, Q3)``."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def report(metric: str, base, change) -> str:
    (b1, b2, b3), (c1, c2, c3) = quartiles(base), quartiles(change)
    wins = sum(c < b for b, c in zip(base, change))
    ties = sum(c == b for b, c in zip(base, change))
    resolved = abs(b2 - c2) > b3 - b1
    return (
        f"{metric:12s} base {b2:8.3f} [{b1:.3f}, {b3:.3f}]   "
        f"change {c2:8.3f} [{c1:.3f}, {c3:.3f}]   "
        f"{(c2 - b2) / b2:+7.1%} of base   "
        f"change ahead {wins}/{len(base)} ({ties} tied)   "
        f"{'beyond' if resolved else 'inside'} base Q3-Q1 {b3 - b1:.3f}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="pairs", description=__doc__.split("\n\n")[0])
    subject = parser.add_mutually_exclusive_group(required=True)
    subject.add_argument("--workload", help="a perfbench workload")
    subject.add_argument("--case", help="a row of the repro perf matrix")
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--recorder", default="off",
                        help="recorder switched ON (recorder-cost only)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two runs)")
    if args.recorder != "off" and args.workload != "recorder-cost":
        parser.error("--recorder applies to --workload recorder-cost only "
                     "(every other workload fixes its recorders)")

    metrics = CASE_METRICS if args.case else METRICS

    def one_child(tree: Path) -> dict:
        if args.case:
            return case_child(tree, args.case, args.seed)
        return child(tree, args.workload, args.seed, args.recorder)

    rows = {"base": [], "change": []}
    with checkout(args.base) as base_tree, working_copy() as change_tree:
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                rows[side].append(one_child(base_tree if side == "base" else change_tree))
            print(
                f"pair {pair + 1:2d} ({order[0]} first): " + "  ".join(
                    f"{side} {rows[side][-1]['end_to_end'][metrics[0]]:.3f} s"
                    for side in ("base", "change")
                ),
                flush=True,
            )

    recorder = "" if args.recorder == "off" else f" ({args.recorder} ON)"
    print(f"\n{args.case or args.workload}{recorder}, seed {args.seed}, "
          f"{args.pairs} alternated pairs against {args.base}")
    for metric in metrics:
        print(report(metric, *(
            [row["end_to_end"][metric] for row in rows[side]]
            for side in ("base", "change")
        )))
    fingerprints = {
        side: {tuple(run["fingerprint"] for run in row["runs"]) for row in rows[side]}
        for side in rows
    }
    if fingerprints["base"] != fingerprints["change"] or len(fingerprints["base"]) != 1:
        print(f"simulated results DIFFER: {fingerprints}")
        return 1
    print("simulated results identical on both sides "
          f"(fingerprints {', '.join(fingerprints['base'].pop())})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
