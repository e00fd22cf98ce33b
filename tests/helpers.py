"""Helpers shared by the test modules."""

import weakref
from contextlib import contextmanager
from unittest import mock

from repro.sites.data_site import DataSite


def run_process(env, process):
    """Step ``env`` until ``process`` finishes; return its value.

    Built on :meth:`~repro.sim.core.Environment.step`, so it dispatches
    exactly the events ``env.run`` would, in the same order, and stops
    as soon as the process has its result. A failed process re-raises
    its exception here; a queue that drains first (a deadlock) raises
    ``SimulationError`` from ``step``.
    """
    while process.is_alive:
        env.step()
    if not process.ok:
        process.defuse()
        raise process.value
    return process.value


def written_chains(database):
    """Key -> retained ``(origin, seq)`` chain of every row ``database``
    holds that a transaction wrote. A row whose latest version is still
    its initial ``(0, 0)`` was created by a read at this site alone and
    is never replicated, so it is left out."""
    return {
        record.key: record.versions()
        for table in database.tables.values()
        for record in table
        if record.latest.seq
    }


def assert_converged(databases):
    """Every database in ``databases`` retains the same versions of the
    same written rows as the first one: key for key, stamp for stamp."""
    reference, *others = (written_chains(database) for database in databases)
    for index, chains in enumerate(others, start=1):
        unmatched = reference.keys() ^ chains.keys()
        assert not unmatched, (
            f"databases 0 and {index} disagree on which rows were written: "
            f"{list(unmatched)[:5]}"
        )
        for key, chain in reference.items():
            assert chains[key] == chain, (
                f"divergence on {key}: {chain} at database 0, "
                f"{chains[key]} at database {index}"
            )


@contextmanager
def mastership_oracle():
    """Check single mastership at every instant, in every cluster built
    inside the block.

    A site gains partitions only through ``DataSite.grant_mastership``
    and ``DataSite.complete_restart`` (recovery replays its markers);
    both are wrapped, and each gain is checked against the mastered
    sets of the cluster's other live sites at that instant. Yields the
    list of violations, ``(time, gaining site, other site, partitions)``,
    which a correct protocol leaves empty.
    """
    violations = []
    peers = weakref.WeakKeyDictionary()
    connect = DataSite.connect
    grant = DataSite.grant_mastership
    restart = DataSite.complete_restart

    def check(site, partitions):
        assert site in peers, "build the cluster inside the oracle's block"
        gained = set(partitions)
        for other in peers[site]:
            shared = other.mastered & gained
            if other is not site and other.alive and shared:
                violations.append(
                    (site.env.now, site.index, other.index, tuple(sorted(shared)))
                )

    def connect_spy(self, sites):
        peers[self] = list(sites)
        connect(self, sites)

    def grant_spy(self, partitions, release_vv, source=None):
        grant_vv = yield from grant(self, partitions, release_vv, source)
        check(self, partitions)
        return grant_vv

    def restart_spy(self, database, svv, mastered):
        restart(self, database, svv, mastered)
        check(self, self.mastered)

    with mock.patch.object(DataSite, "connect", connect_spy), \
            mock.patch.object(DataSite, "grant_mastership", grant_spy), \
            mock.patch.object(DataSite, "complete_restart", restart_spy):
        yield violations
