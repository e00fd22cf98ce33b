#!/usr/bin/env python3
"""Quickstart: a 2-site DynaMast cluster, step by step.

Builds a small replicated cluster, runs a few transactions through the
DynaMast system, and shows the core mechanics of the paper:

1. an update whose write set is already single-sited routes locally;
2. an update spanning master sites triggers remastering (release/grant,
   metadata-only) and then executes at a single site;
3. a subsequent transaction with the same write set needs no
   remastering — the cost was amortized;
4. read-only transactions run at any session-fresh replica.

Run: ``python examples/quickstart.py``
"""

from repro.partitioning.schemes import PartitionScheme
from repro.sim.config import ClusterConfig
from repro.systems import Cluster, build_system
from repro.transactions import Transaction


def main():
    # A cluster of 2 fully-replicated data sites sharing one simulated
    # clock, plus a partition scheme: keys 0-9 -> partition 0, 10-19 ->
    # partition 1, and so on.
    cluster = Cluster(ClusterConfig(num_sites=2))
    scheme = PartitionScheme(lambda key: key[1] // 10, num_partitions=4)
    dynamast = build_system("dynamast", cluster, scheme=scheme)
    selector = dynamast.selector

    print("initial partition masters:", selector.table.snapshot())

    session = dynamast.new_session(client_id=0)
    log = []

    def client():
        # 1. Single-sited write set: partitions 0 and 2 both start at
        #    site 0 (round-robin places 0, 2 there) -> local routing.
        txn = Transaction("deposit", 0, write_set=(("acct", 5), ("acct", 25)))
        outcome = yield from dynamast.submit(txn, session)
        log.append(("deposit", cluster.env.now, outcome.remastered))

        # 2. Write set spanning masters: partition 0 (site 0) and
        #    partition 1 (site 1) -> DynaMast remasters, then executes
        #    at ONE site. No two-phase commit anywhere.
        txn = Transaction("transfer", 0, write_set=(("acct", 5), ("acct", 15)))
        outcome = yield from dynamast.submit(txn, session)
        log.append(("transfer", cluster.env.now, outcome.remastered))

        # 3. Same write set again: the masters are now co-located, the
        #    earlier remastering is amortized.
        txn = Transaction("transfer", 0, write_set=(("acct", 5), ("acct", 15)))
        outcome = yield from dynamast.submit(txn, session)
        log.append(("transfer-again", cluster.env.now, outcome.remastered))

        # 4. A read-only transaction runs at any session-fresh replica.
        txn = Transaction("audit", 0, read_set=(("acct", 5), ("acct", 15)))
        outcome = yield from dynamast.submit(txn, session)
        log.append(("audit", cluster.env.now, outcome.remastered))

    cluster.env.process(client())
    cluster.env.run()  # until the client finishes and the queue drains

    print()
    for name, when, remastered in log:
        suffix = "  <- remastered" if remastered else ""
        print(f"{when:8.3f} ms  {name:15s} committed{suffix}")
    print()
    print("final partition masters: ", selector.table.snapshot())
    print(f"remaster rate: {selector.remaster_rate():.0%} "
          f"({selector.updates_remastered} of {selector.updates_routed} updates)")
    print("site version vectors:   ",
          [site.svv.to_tuple() for site in cluster.sites])
    # Let the replication stream drain, then confirm the replicas agree.
    cluster.run(until=cluster.env.now + 5.0)
    print("after refresh drain:    ",
          [site.svv.to_tuple() for site in cluster.sites])


if __name__ == "__main__":
    main()
