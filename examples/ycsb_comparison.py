#!/usr/bin/env python3
"""Compare all five system architectures on the modified YCSB workload.

Reproduces (at demo scale) the paper's headline comparison: the same
site manager, storage engine and isolation level under five different
replication/mastering protocols, driven by the multi-partition YCSB
of §VI-A.2. Prints throughput, latency and protocol-activity metrics.

Run: ``python examples/ycsb_comparison.py [--clients N] [--rmw F]``
"""

import argparse

from repro.bench import run_benchmark
from repro.bench.harness import ALL_SYSTEMS
from repro.bench.report import print_table
from repro.workloads import YCSBConfig, YCSBWorkload


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=32)
    parser.add_argument("--rmw", type=float, default=0.5,
                        help="fraction of RMW transactions (rest are scans)")
    parser.add_argument("--skew", type=float, default=0.0,
                        help="Zipfian skew theta (paper uses 0.75)")
    parser.add_argument("--duration", type=float, default=1000.0,
                        help="simulated milliseconds")
    args = parser.parse_args()

    rows = []
    for system in ALL_SYSTEMS:
        workload = YCSBWorkload(
            YCSBConfig(rmw_fraction=args.rmw, zipf_theta=args.skew)
        )
        result = run_benchmark(
            system,
            workload,
            num_clients=args.clients,
            duration_ms=args.duration,
            warmup_ms=args.duration / 4,
        )
        rmw = result.latency("rmw")
        scan = result.latency("scan")
        metrics = result.metrics
        distributed = metrics.distributed_txns / max(1, metrics.commits)
        rows.append([
            system,
            result.throughput,
            rmw.mean,
            rmw.p99,
            scan.mean,
            f"{metrics.remaster_fraction():.1%}",
            f"{distributed:.1%}",
        ])
        print(f"ran {system} ({metrics.commits} txns measured)")

    print_table(
        f"YCSB {int(args.rmw*100)}/{100-int(args.rmw*100)} RMW/scan, "
        f"{args.clients} clients, zipf={args.skew}",
        ["system", "txn/s", "rmw mean ms", "rmw p99 ms", "scan mean ms",
         "remaster/ship", "distributed"],
        rows,
    )


if __name__ == "__main__":
    main()
