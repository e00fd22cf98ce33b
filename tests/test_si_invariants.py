"""End-to-end checks of the paper's correctness claims (Appendix A/B).

These tests run randomized concurrent clients against DynaMast (with
remastering constantly moving mastership) and verify the properties the
proofs establish:

* **Theorem 1 (SI write-write exclusion)** — two committed transactions
  with overlapping begin/commit vectors never wrote the same key;
* **Lemma 1 (visibility)** — a transaction whose begin vector dominates
  another's commit vector reads that transaction's versions;
* **Theorem 2 (strong-session SI)** — a session's transactions observe
  monotonically non-decreasing versions;
* **replica convergence** — once update propagation drains, every
  replica retains identical version chains (the lazily maintained
  copies are consistent).
"""

import random

import pytest

from repro.partitioning.schemes import PartitionScheme
from repro.replication import recovery
from repro.sim.config import ClusterConfig
from repro.systems import Cluster, build_system
from repro.transactions import Transaction
from tests.helpers import assert_converged, written_chains


def run_random_workload(seed=0, num_sites=3, num_clients=8, txns_per_client=25):
    """Concurrent random writers + readers over a small hot keyspace."""
    cluster = Cluster(ClusterConfig(num_sites=num_sites, seed=seed))
    scheme = PartitionScheme(lambda key: key[1] // 5, num_partitions=8)
    system = build_system("dynamast", cluster, scheme=scheme)
    sessions = {}

    def client(client_id):
        rng = random.Random(seed * 1000 + client_id)
        session = system.new_session(client_id)
        sessions[client_id] = []
        for _ in range(txns_per_client):
            if rng.random() < 0.7:
                keys = tuple(
                    ("t", rng.randrange(40))
                    for _ in range(rng.randint(1, 3))
                )
                txn = Transaction("w", client_id, write_set=tuple(set(keys)))
            else:
                txn = Transaction(
                    "r", client_id, read_set=(("t", rng.randrange(40)),)
                )
            yield from system.submit(txn, session)
            sessions[client_id].append(session.cvv.copy())
        return True

    processes = [
        cluster.env.process(client(client_id)) for client_id in range(num_clients)
    ]
    cluster.env.run(until=10000.0)
    assert all(not process.is_alive for process in processes), "clients must finish"
    # Drain update propagation completely.
    cluster.env.run(until=cluster.env.now + 50.0)
    return cluster, system, sessions


class TestSnapshotIsolation:
    def test_write_write_exclusion_theorem_1(self):
        """Committed versions of each record form one total order:
        per-record commit stamps (origin, seq) are unique, and every
        site applied them in the same order."""
        cluster, _, _ = run_random_workload(seed=1)
        reference = {}
        for site in cluster.sites:
            for table in site.database.tables.values():
                for record in table:
                    stamps = [
                        (version.origin, version.seq)
                        for version in record.versions()
                    ]
                    assert len(stamps) == len(set(stamps)), (
                        f"duplicate commit stamp on {record.key}"
                    )
                    previous = reference.setdefault(record.key, stamps)
                    # All sites retain the same version tail (the chain
                    # is pruned to max_versions, so compare suffixes).
                    shorter = min(len(previous), len(stamps))
                    assert previous[-shorter:] == stamps[-shorter:], (
                        f"sites disagree on version order of {record.key}"
                    )

    def test_replicas_converge(self):
        cluster, _, _ = run_random_workload(seed=2)
        svvs = {site.svv.to_tuple() for site in cluster.sites}
        assert len(svvs) == 1, f"replicas did not converge: {svvs}"
        assert_converged([site.database for site in cluster.sites])

    @pytest.mark.parametrize("row", ["written", "new"])
    def test_convergence_check_catches_one_extra_install(self, row):
        """The check has teeth: one install more at a single replica —
        over a written row, or creating a row no one else holds — makes
        it fail."""
        cluster, _, _ = run_random_workload(seed=2)
        databases = [site.database for site in cluster.sites]
        assert_converged(databases)
        key = next(iter(written_chains(databases[1]))) if row == "written" else ("t", 999)
        databases[1].install_many((key,), 1, cluster.sites[1].svv[1] + 1)
        with pytest.raises(AssertionError, match="divergence|disagree"):
            assert_converged(databases)

    def test_sessions_monotone_theorem_2(self):
        _, _, sessions = run_random_workload(seed=3)
        for client_id, history in sessions.items():
            for previous, current in zip(history, history[1:]):
                assert current.dominates(previous), (
                    f"client {client_id}'s session regressed"
                )

    def test_commit_counts_match_log(self, monkeypatch):
        """Every commit is durably logged exactly once (redo logging),
        folded into the checkpoint or retained after it."""
        monkeypatch.setattr(recovery, "FOLD_EVERY", 7)
        cluster, _, _ = run_random_workload(seed=4)
        vector = cluster.checkpoint.vector
        assert sum(vector) > 0, "nothing was folded"
        for site in cluster.sites:
            log = site.log
            assert log.update_count == site.commits
            # Sequence numbers are dense: 1..n interleaved with markers,
            # the checkpoint's prefix, then the retained suffix.
            seqs = [record.seq for record in log.records]
            assert seqs == list(range(vector[site.index] + 1, len(log) + 1))

    def test_visibility_lemma_1(self):
        """A snapshot taken after convergence sees every update."""
        cluster, _, _ = run_random_workload(seed=5)
        site = cluster.sites[0]
        snapshot = site.svv.copy()
        for table in site.database.tables.values():
            for record in table:
                version = record.read(snapshot)
                assert version == record.latest, (
                    "the freshest snapshot must read the newest version"
                )
