"""Alternated perfbench-child pairs: a base revision against this tree.

The reference host's speed drifts by ±20 % over minutes, so two trees
are compared by running one ``perfbench.child`` of each back to back,
many times, with the side that goes first alternating (CONTRIBUTING.md,
"Claiming a gain"). ``make pairs W=<workload> BASE=<rev> N=10`` checks
``BASE`` out into a temporary ``git worktree``, runs ``N`` pairs at one
seed, and prints for each host-side metric both sides' median and
quartiles, how many pairs the working tree won, and whether the
medians differ by more than the base's own Q3 − Q1. Simulated results
must be equal on both sides; the script says so or exits 1.
``W=recorder-cost R=<recorder>`` runs the pairs with that recorder ON,
which compares what recording costs in the two trees.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Host-side end-to-end metrics of a child, all "lower is better".
METRICS = ("wall_s", "setup_s", "peak_rss_mb")


def child(tree: Path, workload: str, seed: int, recorder: str = "off") -> dict:
    """One fresh-interpreter repeat of ``workload`` on ``tree``."""
    done = subprocess.run(
        [sys.executable, "-m", "perfbench.child", "--workload", workload,
         "--seed", str(seed), "--recorder", recorder,
         "--spawned-at", repr(time.time())],
        cwd=tree, capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=f"{tree / 'src'}{os.pathsep}{tree}"),
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values):
    """``(Q1, median, Q3)``."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def report(metric: str, base, change) -> str:
    (b1, b2, b3), (c1, c2, c3) = quartiles(base), quartiles(change)
    wins = sum(c < b for b, c in zip(base, change))
    losses = sum(c > b for b, c in zip(base, change))
    resolved = abs(b2 - c2) > b3 - b1
    return (
        f"{metric:12s} base {b2:8.3f} [{b1:.3f}, {b3:.3f}]   "
        f"change {c2:8.3f} [{c1:.3f}, {c3:.3f}]   "
        f"{(c2 - b2) / b2:+7.1%} of base   change ahead {wins}/{wins + losses}   "
        f"{'beyond' if resolved else 'inside'} base Q3-Q1 {b3 - b1:.3f}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="pairs", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
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

    base_tree = Path(tempfile.mkdtemp(prefix="pairs-base-"))
    subprocess.run(
        ["git", "worktree", "add", "--detach", str(base_tree), args.base],
        cwd=ROOT, check=True, capture_output=True,
    )
    rows = {"base": [], "change": []}
    try:
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                tree = base_tree if side == "base" else ROOT
                rows[side].append(
                    child(tree, args.workload, args.seed, args.recorder))
            print(
                f"pair {pair + 1:2d} ({order[0]} first): " + "  ".join(
                    f"{side} {rows[side][-1]['end_to_end']['wall_s']:.3f} s"
                    for side in ("base", "change")
                ),
                flush=True,
            )
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(base_tree)],
            cwd=ROOT, check=True, capture_output=True,
        )

    recorder = "" if args.recorder == "off" else f" ({args.recorder} ON)"
    print(f"\n{args.workload}{recorder}, seed {args.seed}, {args.pairs} "
          f"alternated pairs against {args.base}")
    for metric in METRICS:
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
