#!/usr/bin/env python3
"""TPC-C transaction latency under dynamic mastering vs its rivals.

Runs the three-transaction TPC-C subset (New-Order, Payment,
Stock-Level; §VI-A.2) and prints per-class latency for each system —
the demo-scale version of the paper's figures 4c, 4d and 8e. Shows why
dynamic mastering matters for complex, not-perfectly-partitionable
write transactions: cross-warehouse New-Orders cost DynaMast a cheap
metadata remastering instead of a blocking distributed commit.

Run: ``python examples/tpcc_latency.py [--clients N] [--remote F]``
"""

import argparse

from repro.bench import run_benchmark
from repro.bench.report import print_table
from repro.sim.config import ClusterConfig
from repro.workloads import TPCCConfig, TPCCWorkload


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=80)
    parser.add_argument("--remote", type=float, default=0.10,
                        help="fraction of cross-warehouse New-Orders")
    parser.add_argument("--sites", type=int, default=4)
    parser.add_argument("--duration", type=float, default=1000.0)
    args = parser.parse_args()

    systems = ("dynamast", "single-master", "multi-master", "partition-store", "leap")
    rows = {txn: [] for txn in ("new_order", "payment", "stock_level")}
    throughput = []
    for system in systems:
        workload = TPCCWorkload(
            TPCCConfig(neworder_remote_fraction=args.remote)
        )
        result = run_benchmark(
            system,
            workload,
            num_clients=args.clients,
            duration_ms=args.duration,
            warmup_ms=args.duration / 4,
            cluster_config=ClusterConfig(num_sites=args.sites, cores_per_site=6),
        )
        throughput.append([system, result.throughput,
                           f"{result.metrics.remaster_fraction():.1%}"])
        for txn_type in rows:
            summary = result.latency(txn_type)
            rows[txn_type].append(
                [system, summary.mean, summary.p90, summary.p99]
            )
        print(f"ran {system}")

    print_table("TPC-C throughput", ["system", "txn/s", "remaster/ship"], throughput)
    for txn_type, data in rows.items():
        print_table(
            f"TPC-C {txn_type} latency (ms)",
            ["system", "mean", "p90", "p99"],
            data,
        )


if __name__ == "__main__":
    main()
