"""Helpers shared by the test modules."""


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
