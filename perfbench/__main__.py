"""``python -m perfbench``: the whole report, or one workload for a driver.

Without ``--workload`` it runs all five workloads at ``--seed``, prints
every metric by name with its unit, gates the outputs and writes
``BENCHMARK.json``. With ``--workload`` it is the command
``BENCHMARK.json`` names: one workload, measured for ``--seconds``, the
result as one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import sys

from perfbench import driver, spec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="all simulated durations / 10 (report mode)")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run the timed pass twice and compare the sets")
    parser.add_argument("--pin", action="store_true",
                        help="also write the report to perfbench/baseline.json")
    args = parser.parse_args(argv)
    try:
        if args.workload:
            return driver.run_contract(args.workload, args.seed, args.seconds,
                                       bool(args.trace))
        return driver.run_report(args.seed, args.smoke, args.repeat_check, args.pin)
    except driver.BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
