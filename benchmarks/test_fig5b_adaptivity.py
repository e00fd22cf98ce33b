"""Figure 5b: DynaMast adapts to a changed workload over time.

The correlations of a skewed 100% RMW workload are randomized against a
manually range-partitioned initial mastership; DynaMast must discover
the new co-access patterns and remaster. Paper's shape: throughput
climbs continuously over the measurement interval (paper: ~1.6x; here
more modest because remastering itself is cheaper — see
EXPERIMENTS.md) while the remastering rate decays by an order of
magnitude as placements converge.
"""

from repro.bench.experiments import fig5b_adaptivity
from repro.bench.report import print_table


def test_fig5b_adaptivity(once):
    result = once(fig5b_adaptivity)

    print_table(
        "Figure 5b: throughput over time after workload change",
        ["t (ms)", "txn/s"],
        [[f"{when:.0f}", tput] for when, tput in result.timeline],
    )
    print_table(
        "Remastering rate over time (learning curve)",
        ["t (ms)", "remaster rate"],
        [[f"{when:.0f}", round(rate, 4)] for when, rate in result.remaster_timeline],
    )
    print(
        f"throughput improvement: {result.improvement:.2f}x "
        f"(paper: ~1.6x over a 5-minute run)"
    )

    assert result.improvement >= 1.08, (
        "throughput must visibly improve as DynaMast learns the new "
        f"correlations (got {result.improvement:.2f}x)"
    )
    early_rate = result.remaster_timeline[0][1]
    late_rate = result.remaster_timeline[-1][1]
    assert early_rate > 0.10, "the changed workload must force remastering"
    assert late_rate <= early_rate / 3.0, (
        "the remastering rate must decay as placements converge "
        f"({early_rate:.1%} -> {late_rate:.1%})"
    )
    # 4000 ms in 500 ms buckets: eight whole buckets, none partial.
    assert [when for when, _ in result.timeline] == [500.0 * i for i in range(8)]
    # Throughput must trend upward: the last bucket beats the first.
    assert result.timeline[-1][1] > result.timeline[0][1]
