#!/usr/bin/env python3
"""Fault tolerance: rebuild a data site and the mastership map from the
checkpoint and the redo logs (paper §V-C).

Runs a short DynaMast workload with remastering, folds what every
replica has applied into the replica group's checkpoint (a run does
this every few hundred appends; this one is too short), runs more
transactions, then simulates a site (or site-selector) failure by
recovering the database state and the partition -> master map from the
checkpoint plus the suffix the durable logs retain, and checks both
against the live cluster.

Run: ``python examples/recovery_demo.py``
"""

from repro.partitioning.schemes import PartitionScheme
from repro.replication import merge_logs, recover_database, recover_mastership
from repro.sim.config import ClusterConfig
from repro.systems import Cluster, build_system
from repro.transactions import Transaction


def main():
    cluster = Cluster(ClusterConfig(num_sites=3))
    scheme = PartitionScheme(lambda key: key[1] // 10, num_partitions=6)
    dynamast = build_system("dynamast", cluster, scheme=scheme)
    initial_placement = dict(dynamast.selector.table.snapshot())

    def client(client_id, keys_list):
        session = dynamast.new_session(client_id)
        for keys in keys_list:
            txn = Transaction("w", client_id, write_set=tuple(("t", k) for k in keys))
            yield from dynamast.submit(txn, session)

    cluster.env.process(client(0, [(5, 15), (5, 15), (25, 35)]))
    cluster.env.process(client(1, [(45, 55), (45, 5), (55, 15)]))
    cluster.env.run(until=50.0)  # let every refresh drain

    # Fold the cluster-stable vector: what every replica has applied.
    applied = [site.svv.counts for site in cluster.sites]
    cluster.checkpoint.fold([min(column) for column in zip(*applied)])
    print("checkpoint vector:     ", cluster.checkpoint.vector.to_tuple())

    cluster.env.process(client(2, [(35, 45), (5, 25)]))
    cluster.env.run(until=100.0)

    live_site = cluster.sites[0]
    print(f"committed {sum(s.commits for s in cluster.sites)} update txns; "
          f"{dynamast.selector.remaster_operations} remaster operations")
    print("live svv at site 0:    ", live_site.svv.to_tuple())
    print("live mastership:       ", dynamast.selector.table.snapshot())

    # --- crash! recover from the checkpoint and the logs' suffix ----------
    logs = [site.log for site in cluster.sites]
    records = merge_logs(logs)  # one Equation-1 order serves both rebuilds
    print(f"suffix after the checkpoint: {len(records)} of "
          f"{sum(len(log) for log in logs)} log records")
    database, svv = recover_database(cluster.checkpoint, records)
    mastership = recover_mastership(cluster.checkpoint, records, initial_placement)

    print()
    print("recovered svv:         ", svv.to_tuple())
    print("recovered mastership:  ", mastership)

    assert svv.to_tuple() == live_site.svv.to_tuple(), "svv mismatch!"
    assert mastership == dynamast.selector.table.snapshot(), "mastership mismatch!"

    # Every written record must retain the live replica's versions,
    # stamp (origin, seq) for stamp.
    mismatches = 0
    checked = 0
    for table_name, table in live_site.database.tables.items():
        for record in table:
            if not record.latest.seq:
                continue  # created by a read here, never written
            checked += 1
            recovered = database.record(record.key)
            if recovered is None or recovered.versions() != record.versions():
                mismatches += 1
    print(f"record check: {checked} records compared, {mismatches} mismatches")
    assert mismatches == 0
    print("recovery OK: database and mastership reconstructed from checkpoint + redo log")


if __name__ == "__main__":
    main()
