"""Figure 5a + §VI-B6: hyperparameter sensitivity on skewed YCSB.

Paper's shape: with every weight non-zero, throughput stays within ~8%
of the maximum (robustness); setting w_balance to 0 costs ~40%
because mastership concentrates, and scaling it far down skews routing
(paper: 34% of requests to the hottest site vs an even 25%); the
co-access weights contribute smaller improvements (~16%). Every
setting is judged on its mean over six seeds: one seed's ranking of
near-equal settings is noise.
"""

from repro.bench.experiments import SENSITIVITY_SEEDS, fig5a_sensitivity
from repro.bench.report import print_table


def test_fig5a_sensitivity(once):
    result = once(fig5a_sensitivity)

    print_table(
        "Figure 5a: throughput per weight setting and seed (skewed YCSB)",
        ["setting", *(f"seed {seed}" for seed in SENSITIVITY_SEEDS), "mean"],
        [
            [label, *(round(tput) for tput in result.per_seed[label]),
             round(result.throughput[label])]
            for label in result.throughput
        ],
    )
    print_table(
        f"Figure 5a: means over seeds {SENSITIVITY_SEEDS[0]}–{SENSITIVITY_SEEDS[-1]}",
        ["setting", "txn/s", "remaster rate", "max route fraction"],
        [
            [label, tput, round(result.remaster_rate[label], 3),
             round(max(result.route_fractions[label] or [0.0]), 3)]
            for label, tput in result.throughput.items()
        ],
    )

    # Robustness: every non-zero setting's mean throughput is within a
    # modest band of the best mean (paper: within ~8%; we allow 25% at
    # simulation scale).
    nonzero = {
        label: tput
        for label, tput in result.throughput.items()
        if not label.endswith("x0")
    }
    best = max(nonzero.values())
    for label, tput in nonzero.items():
        assert tput >= 0.75 * best, (
            f"non-zero weight setting {label} fell {1 - tput / best:.0%} "
            "below the best configuration"
        )

    # Ablating the balance weight must hurt under skew and skew routing.
    balanced = result.throughput["balance x1"]
    unbalanced = result.throughput["balance x0"]
    assert unbalanced <= 0.9 * balanced, (
        "paper: removing the balance feature costs ~40% under skew"
    )
    routing_with = max(result.route_fractions["balance x1"])
    routing_without = max(result.route_fractions["balance x0.01"])
    assert routing_without >= routing_with, (
        "paper: scaling balance down skews routing toward hot sites"
    )
