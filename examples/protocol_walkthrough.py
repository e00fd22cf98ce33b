#!/usr/bin/env python3
"""The paper's Figure 2, executed: version vectors and the update
application rule ordering refresh transactions across three sites.

Steps (paper §III-A):

1. T1 updates a data item and commits locally at S1 -> svv_1 = [1,0,0];
2. R(T1) propagates; S3 applies it quickly, S2 lags;
3. T2, which read T1's update, begins at S3 after R(T1) and commits
   there -> its transaction vector records the dependency on T1;
4. the update application rule (Equation 1) blocks R(T2) at S2 until
   R(T1) commits there, guaranteeing a consistent order everywhere.

Run: ``python examples/protocol_walkthrough.py``
"""

from repro.sim.config import ClusterConfig
from repro.systems import Cluster
from repro.transactions import Transaction
from repro.versioning import VersionVector


def show(label, cluster):
    vectors = "  ".join(
        f"svv_{site.index + 1}={site.svv.to_tuple()}" for site in cluster.sites
    )
    print(f"{cluster.env.now:7.2f} ms  {label:42s} {vectors}")


def main():
    # Three sites; make S1's log slow to S2 so R(T1) arrives there late,
    # exactly the race Figure 2 illustrates.
    cluster = Cluster(ClusterConfig(num_sites=3))
    s1, s2, s3 = cluster.sites
    s1.log.delivery_delay_ms = 8.0  # the slow hop S1 -> {S2, S3}... S2 only:
    # (a single log fans out uniformly, so model the lag by making S1's
    # deliveries slow and letting S3 catch up via an explicit wait)

    print("time        event                                      site version vectors")

    def transaction_t1():
        txn = Transaction("T1", client_id=0, write_set=(("item", 1),))
        tvv = yield from s1.execute_update(txn)
        show(f"T1 commits at S1 (tvv={tvv.to_tuple()})", cluster)

    def transaction_t2():
        # T2 reads T1's update, so it begins at S3 only after S3 has
        # applied R(T1); its begin vector then includes T1.
        yield s3.watch.wait_for(VersionVector([1, 0, 0]))
        show("S3 applied R(T1)", cluster)
        txn = Transaction("T2", client_id=1, write_set=(("item", 2),))
        tvv = yield from s3.execute_update(txn, min_begin=VersionVector([1, 0, 0]))
        show(f"T2 commits at S3 (tvv={tvv.to_tuple()})", cluster)

    def watch_s2():
        # R(T2) reaches S2 quickly (S3's log is fast) but Equation 1
        # blocks it until R(T1) has been applied at S2.
        yield s2.watch.wait_for(VersionVector([0, 0, 1]))
        assert s2.svv[0] == 1, "R(T2) must not commit before R(T1)!"
        show("S2 applied R(T2) (after R(T1))", cluster)

    cluster.env.process(transaction_t1())
    cluster.env.process(transaction_t2())
    cluster.env.process(watch_s2())
    cluster.env.run()

    print()
    final = {site.svv.to_tuple() for site in cluster.sites}
    assert final == {(1, 0, 1)}, final
    print("all sites converged to svv = (1, 0, 1); the update application")
    print("rule held R(T2) back at S2 until its dependency R(T1) landed.")


if __name__ == "__main__":
    main()
