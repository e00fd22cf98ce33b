#!/usr/bin/env python3
"""Watch DynaMast learn a changed workload (paper §VI-B5, figure 5b).

The workload's partition correlations are randomized against a manual
range placement, so DynaMast's statistics are useless at t=0: nearly a
third of early transactions need remastering. As the site selector
samples write sets and rebuilds its co-access model, remastering decays
by an order of magnitude and throughput climbs.

Run: ``python examples/adaptivity_demo.py``
"""

from repro.bench.experiments import fig5b_adaptivity


def main():
    result = fig5b_adaptivity()

    print("time (ms)   txn/s      remaster rate")
    rates = dict(result.remaster_timeline)
    for when, tput in result.timeline:
        # Find the closest remaster-rate sample.
        nearest = min(rates, key=lambda t: abs(t - when)) if rates else None
        rate = rates.get(nearest, 0.0)
        bar = "#" * int(tput / 800)
        print(f"{when:8.0f}  {tput:8.0f}  {rate:8.1%}  {bar}")

    print()
    print(f"throughput improvement over the run: {result.improvement:.2f}x "
          "(paper: ~1.6x over a 5-minute interval)")
    first_rate = result.remaster_timeline[0][1]
    last_rate = result.remaster_timeline[-1][1]
    print(f"remastering rate: {first_rate:.1%} -> {last_rate:.1%} "
          "as placements converge")


if __name__ == "__main__":
    main()
