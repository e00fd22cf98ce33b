"""Unit tests for the MVCC storage engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import ClusterConfig
from repro.sim.core import Environment, SimulationError
from repro.storage import Database, LockTable, Table, Version
from repro.storage.table import MAX_SEQ
from repro.systems.base import Cluster
from repro.versioning import VersionVector
from tests.helpers import run_process


def one_row(max_versions=4):
    """A one-row table and the live view of that row."""
    table = Table("t", max_versions)
    table.insert(1)
    return table, table.get(1)


def insert(db, key):
    """Create ``key``'s row at ``db`` outside any transaction."""
    table_name, primary_key = key
    db.table(table_name).insert(primary_key)


class TestVersionedRecord:
    def test_initial_version_visible_to_zero_snapshot(self):
        _, record = one_row()
        snapshot = VersionVector.zeros(3)
        assert record.read(snapshot) == Version(0, 0)

    def test_snapshot_read_sees_only_visible_versions(self):
        table, record = one_row()
        table.install(1, origin=0, seq=1)
        table.install(1, origin=0, seq=2)
        old_snapshot = VersionVector([1, 0])
        new_snapshot = VersionVector([2, 0])
        assert record.read(old_snapshot) == Version(0, 1)
        assert record.read(new_snapshot) == Version(0, 2)

    def test_reads_select_newest_visible_across_origins(self):
        table, record = one_row()
        table.install(1, origin=0, seq=1)
        table.install(1, origin=1, seq=1)
        # Snapshot that saw only site 0's update.
        assert record.read(VersionVector([1, 0])) == Version(0, 1)
        # Snapshot that saw both; application order makes s1's newest.
        assert record.read(VersionVector([1, 1])) == Version(1, 1)

    def test_version_chain_pruned_to_max(self):
        table, record = one_row()
        for seq in range(1, 10):
            table.install(1, origin=0, seq=seq)
        assert record.version_count == 4
        assert [version.seq for version in record.versions()] == [6, 7, 8, 9]

    def test_pruned_snapshot_falls_back_to_oldest_retained(self):
        table, record = one_row()
        for seq in range(1, 10):
            table.install(1, origin=0, seq=seq)
        ancient = VersionVector([1, 0])
        assert not record.has_visible(ancient)
        assert record.read(ancient) == Version(0, 6)
        assert table.read(1, ancient.counts) == (0, 6)
        assert table.stale_reads == 1

    def test_invalid_commit_sequence_rejected(self):
        table, record = one_row()
        with pytest.raises(ValueError):
            table.install(1, origin=0, seq=0)
        assert record.version_count == 1

    def test_latest_ignores_snapshots(self):
        table, record = one_row()
        table.install(1, origin=1, seq=5)
        assert record.latest == Version(1, 5)

    def test_view_is_live_and_names_its_key(self):
        table, record = one_row()
        assert record.key == ("t", 1)
        assert record == table.get(1)
        table.install(1, origin=0, seq=1)
        assert record.latest == Version(0, 1)


#: The store under test against the naive model it replaces: one list
#: per row, append every version, truncate to the last ``max_versions``.
_STRIDES = [1, 2, 4, 7]
_KEYS = [(table, pk) for table in ("a", "b") for pk in range(2)]
_key = st.sampled_from(_KEYS)


def _install(key):
    return st.tuples(st.just("install"), key, st.integers(0, 2))


_op = st.one_of(
    st.tuples(st.just("insert"), _key),
    _install(_key),
    st.tuples(st.just("read"), _key,
              st.lists(st.integers(0, 120), min_size=3, max_size=3)),
)


@st.composite
def _interleavings(draw):
    """``(max_versions, ops)`` whose ops lap one row's ring at least twice.

    Hypothesis lists average five elements, so a plain list of ops
    leaves every ring short of its first overwrite; the hot row's
    installs are drawn separately and shuffled in among the rest (an
    op's commit sequence is its position, so any order is valid).
    """
    max_versions = draw(st.sampled_from(_STRIDES))
    hot = draw(st.lists(_install(st.just(draw(_key))),
                        min_size=2 * max_versions + 1,
                        max_size=4 * max_versions + 2))
    rest = draw(st.lists(_op, min_size=10, max_size=60))
    return max_versions, draw(st.permutations(hot + rest))


class NaiveStore:
    """Append-then-truncate ``(origin, seq)`` lists, one per row."""

    def __init__(self, max_versions):
        self.max_versions = max_versions
        self.chains = {}
        #: Versions ever installed per row, the first (0, 0) included.
        self.installed = {}
        self.stale_reads = 0

    def _chain(self, key):
        if key not in self.chains:
            self.insert(key)
        return self.chains[key]

    def insert(self, key):
        if key in self.chains:
            raise KeyError(key)
        self.chains[key] = [(0, 0)]
        self.installed[key] = 1

    def install(self, key, origin, seq):
        chain = self._chain(key)
        chain.append((origin, seq))
        del chain[:-self.max_versions]
        self.installed[key] += 1

    def read(self, key, counts):
        chain = self._chain(key)
        for origin, seq in reversed(chain):
            if seq <= counts[origin]:
                return origin, seq
        self.stale_reads += 1
        return chain[0]


def replay(ops, dbs, models, route):
    """Apply ``ops`` to ``dbs[site]`` and ``models[site]``, ``site``
    drawn from ``route``; every read stamp and stale count agrees."""
    for seq, ((op, key, *args), site) in enumerate(zip(ops, route), start=1):
        db, model = dbs[site], models[site]
        if op == "insert":
            if key in model.chains:
                with pytest.raises(KeyError):
                    insert(db, key)
            else:
                insert(db, key)
                model.insert(key)
        elif op == "install":
            (origin,) = args
            db.install_many((key,), origin, seq)
            model.install(key, origin, seq)
        else:
            (counts,) = args
            assert db.read(key, VersionVector(counts)) == model.read(key, counts)
        assert db.stale_reads == model.stale_reads


def assert_same_chains(db, model):
    """Every cold observable of ``db`` but its row numbers equals the
    naive model's; keys the model never created are absent."""
    assert db.stale_reads == model.stale_reads
    assert db.row_count() == len(model.chains)
    assert db.version_count() == sum(map(len, model.chains.values()))
    for key in _KEYS:
        if key not in model.chains:
            assert db.record(key) is None
    for key, chain in model.chains.items():
        record = db.record(key)
        assert record.key == key
        assert [
            (version.origin, version.seq) for version in record.versions()
        ] == chain
        assert record.version_count == len(chain) <= model.max_versions
        latest = record.latest
        assert (latest.origin, latest.seq) == chain[-1]


def assert_same_rows(db, model):
    """Every cold observable of ``db`` equals the naive model's."""
    assert_same_chains(db, model)
    # Rows are numbered in creation order, per table.
    for name, table in db.tables.items():
        created = [pk for table_name, pk in model.chains if table_name == name]
        assert [record.primary_key for record in table] == created
        assert [record.row for record in table] == list(range(len(created)))


class TestColumnStoreMatchesNaiveModel:
    """The table-level ring must be indistinguishable from the per-row
    model it replaced, before and after a row's ring wraps."""

    @settings(max_examples=120, deadline=None)
    @given(_interleavings())
    def test_every_observable_agrees(self, interleaving):
        """Random interleavings of insert / install / read over several
        keys and tables, one row installed into often enough to
        overwrite each of its slots twice or more."""
        max_versions, ops = interleaving
        db = Database(Environment(), max_versions=max_versions)
        model = NaiveStore(max_versions)
        replay(ops, [db], [model], [0] * len(ops))
        assert max(model.installed.values()) > 2 * max_versions
        assert_same_rows(db, model)

    @settings(max_examples=120, deadline=None)
    @given(_interleavings(), st.data())
    def test_two_replicas_sharing_one_map_each_agree(self, interleaving, data):
        """The same interleavings split between two databases sharing
        one row index: each agrees with its own model, holds only the
        rows it created, and iterates them in the group's numbering,
        which follows first touch at either database."""
        max_versions, ops = interleaving
        route = data.draw(st.lists(st.integers(0, 1), min_size=len(ops),
                                   max_size=len(ops)))
        env, row_index = Environment(), {}
        dbs = [Database(env, max_versions, row_index=row_index) for _ in range(2)]
        models = [NaiveStore(max_versions), NaiveStore(max_versions)]
        replay(ops, dbs, models, route)
        for name, rows in row_index.items():
            assert list(rows) == list(dict.fromkeys(
                pk for _, (table_name, pk), *_ in ops if table_name == name
            ))
            assert list(rows.values()) == list(range(len(rows)))
        for db, model in zip(dbs, models):
            assert_same_chains(db, model)
            assert db.row_index is row_index
            for name, table in db.tables.items():
                rows = row_index[name]
                assert table._rows is rows
                held = [pk for pk in rows if (name, pk) in model.chains]
                assert [record.primary_key for record in table] == held
                assert [record.row for record in table] == [rows[pk] for pk in held]

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(_STRIDES + [3, 5, 6]),
           st.lists(st.integers(0, 3), min_size=30, max_size=120),
           st.integers(0, 130))
    def test_long_chain_on_one_row(self, max_versions, origins, horizon):
        """One row, thirty to 120 installs: every ring size laps four
        times or more; the chain, and a read at every prefix of it,
        match the model."""
        db = Database(Environment(), max_versions=max_versions)
        model = NaiveStore(max_versions)
        key = ("t", 1)
        insert(db, key)
        model.insert(key)
        counts = [horizon] * 4
        for seq, origin in enumerate(origins, start=1):
            db.install_many((key,), origin, seq)
            model.install(key, origin, seq)
            assert db.read(key, VersionVector(counts)) == model.read(key, counts)
        assert model.installed[key] > 4 * max_versions
        assert_same_rows(db, model)

    @pytest.mark.parametrize("max_versions", _STRIDES)
    def test_never_installed_row_reports_the_loaders_version(self, max_versions):
        """An inserted row and a row created by its first read hold the
        same single version, stamped (0, 0)."""
        db = Database(Environment(), max_versions=max_versions)
        insert(db, ("t", 1))
        assert db.read(("t", 2), VersionVector.zeros(2)) == (0, 0)  # read creates
        for pk in (1, 2):
            assert db.record(("t", pk)).versions() == (Version(0, 0),)
        assert db.version_count() == 2


class TestTable:
    def test_insert_and_get(self):
        table = Table("accounts", 4)
        table.insert(1)
        assert table.get(1).latest == Version(0, 0)
        assert table.get(2) is None
        assert 1 in table
        assert len(table) == 1

    def test_duplicate_insert_rejected(self):
        table = Table("accounts", 4)
        table.insert(1)
        with pytest.raises(KeyError):
            table.insert(1)

    def test_insert_numbers_rows_in_creation_order(self):
        table = Table("accounts", 4)
        assert [table.insert(pk) for pk in ("x", "y", "z")] == [0, 1, 2]
        assert table.get("y").row == 1

    def test_version_count(self):
        table = Table("t", 4)
        table.insert(1)
        table.insert(2)
        table.install(2, 0, 1)
        assert table.version_count() == 3

    def test_origins_are_two_byte_site_indices(self):
        table = Table("t", 4)
        table.install(1, 65_535, 1)  # the last site ClusterConfig admits
        assert table.chain(0) == [(0, 0), (65_535, 1)]
        with pytest.raises(OverflowError):
            table.install(1, 65_536, 2)

    def test_seqs_are_four_bytes_and_checked_at_install(self):
        """A seq outside 1 … 2³²−1 is refused by name before it can
        reach the 4-byte column, where it would raise ``OverflowError``
        mid-run; the largest one fits."""
        table = Table("t", 4)
        assert table._seqs.itemsize == table._installs.itemsize == 4
        table.install(1, 0, MAX_SEQ)
        assert MAX_SEQ == 2**32 - 1
        assert table.chain(0) == [(0, 0), (0, MAX_SEQ)]
        for seq in (0, -1, 2**32, 2**63):
            with pytest.raises(ValueError) as raised:
                table.install(1, 0, seq)
            assert str(raised.value) == (
                f"commit sequence must be in 1 .. 4294967295, got {seq}"
            )
        assert table.get(1).version_count == 2

    def test_bytes_per_row(self, retained_bytes):
        """50 000 int-keyed rows at the paper's four versions: the key
        and its dict slot, four 2-byte origins, four 4-byte seqs and one
        4-byte install counter (173 B a row with a value slot per
        version, 141 B without)."""
        table = Table("t", 4)

        def load():
            for key in range(50_000):
                table.insert(key)

        _, used = retained_bytes(load)
        assert len(table) == 50_000
        assert used / 50_000 <= 150

    def test_bytes_per_row_at_an_extra_replica(self, retained_bytes):
        """A second table sharing the first one's row map keeps only
        its columns: ``(2 + 4) × 4 + 4`` = 28 B a row, plus the arrays'
        growth slack."""
        first = Table("t", 4)
        for key in range(50_000):
            first.insert(key)
        replica = Table("t", 4, first._rows)

        def load():
            for key in range(50_000):
                replica.insert(key)

        _, used = retained_bytes(load)
        assert len(replica) == 50_000
        assert used / 50_000 <= 35


class TestSharedRowIndex:
    """Replicas sharing one key -> row map keep presence per site."""

    def replicas(self, count=2):
        env, row_index = Environment(), {}
        return [Database(env, max_versions=4, row_index=row_index)
                for _ in range(count)]

    def test_row_created_by_a_read_is_absent_at_the_other_replica(self):
        here, there = self.replicas()
        insert(here, ("t", 1))
        insert(there, ("t", 1))
        assert here.read(("t", 2), VersionVector.zeros(1)) == (0, 0)  # creates
        table = there.table("t")
        assert ("t", 2) not in {record.key for record in table}
        assert 2 not in table and table.get(2) is None
        assert there.record(("t", 2)) is None
        assert len(table) == there.row_count() == 1
        assert there.version_count() == 1
        assert 2 in here.table("t") and here.row_count() == 2
        # Installing it later at the other replica reuses the number.
        there.install_many([("t", 2)], origin=0, seq=1)
        assert there.record(("t", 2)).row == here.record(("t", 2)).row == 1
        assert there.version_count() == 3

    def test_columns_grow_past_rows_only_other_replicas_hold(self):
        here, there = self.replicas()
        for pk in range(5):
            insert(here, ("t", pk))
        there.install_many([("t", 4)], origin=0, seq=1)
        table = there.table("t")
        assert len(table._installs) == 5 and len(table) == 1
        assert [record.row for record in table] == [4]
        assert [record.primary_key for record in table] == [4]
        assert table.get(4).versions()[-1] == Version(0, 1)
        assert there.version_count() == 2

    def test_duplicate_insert_raises_per_site(self):
        here, there = self.replicas()
        insert(here, ("t", 1))
        insert(there, ("t", 1))  # the other replica does not hold it yet
        for db in (here, there):
            with pytest.raises(KeyError):
                insert(db, ("t", 1))
        assert here.row_count() == there.row_count() == 1

    def test_replicated_sites_share_one_map_per_table(self):
        first, second = (Cluster(ClusterConfig(num_sites=3)) for _ in range(2))
        for cluster in (first, second):
            for site in cluster.sites:
                for key in [("t", pk) for pk in range(4)] + [("u", pk) for pk in range(2)]:
                    insert(site.database, key)
        for cluster in (first, second):
            databases = [site.database for site in cluster.sites]
            for name in ("t", "u"):
                rows = databases[0].tables[name]._rows
                assert all(db.tables[name]._rows is rows for db in databases)
            assert databases[0].tables["t"]._rows is not databases[0].tables["u"]._rows
        assert (first.sites[0].database.tables["t"]._rows
                is not second.sites[0].database.tables["t"]._rows)

    def test_partitioned_sites_keep_their_own_maps(self):
        cluster = Cluster(ClusterConfig(num_sites=3), replicated=False)
        for pk in range(6):
            insert(cluster.sites[pk % 3].database, ("t", pk))
        maps = [site.database.tables["t"]._rows for site in cluster.sites]
        assert len({id(rows) for rows in maps}) == 3
        assert [sorted(rows.values()) for rows in maps] == [[0, 1]] * 3


class TestLockTable:
    def test_uncontended_acquire_is_immediate(self):
        env = Environment()
        locks = LockTable(env)
        event = locks.acquire("k")
        assert event.triggered
        assert locks.is_locked("k")
        locks.release("k")
        assert not locks.is_locked("k")

    def test_fifo_contention(self):
        env = Environment()
        locks = LockTable(env)
        order = []

        def worker(label):
            yield locks.acquire("k")
            order.append(label)
            yield env.timeout(1.0)
            locks.release("k")

        for label in "abc":
            env.process(worker(label))
        env.run()
        assert order == ["a", "b", "c"]
        assert locks.contended_acquires == 2
        assert locks.total_acquires == 3

    def test_release_unlocked_rejected(self):
        env = Environment()
        locks = LockTable(env)
        with pytest.raises(SimulationError):
            locks.release("missing")

    def test_acquire_all_sorted_prevents_deadlock(self):
        env = Environment()
        locks = LockTable(env)
        done = []

        def worker(label, keys):
            yield from locks.acquire_all(keys)
            yield env.timeout(1.0)
            locks.release_all(keys)
            done.append(label)

        # Opposite declaration orders would deadlock without sorting.
        env.process(worker("x", ["a", "b"]))
        env.process(worker("y", ["b", "a"]))
        env.run()
        assert sorted(done) == ["x", "y"]

    def test_acquire_all_deduplicates(self):
        env = Environment()
        locks = LockTable(env)

        def worker():
            yield from locks.acquire_all(["a", "a"])
            locks.release_all(["a", "a"])

        process = env.process(worker())
        run_process(env, process)
        assert not locks.is_locked("a")


class TestDatabase:
    def make_db(self):
        return Database(Environment(), max_versions=4)

    def test_load_and_read(self):
        """A row inserted outside any transaction reads as (0, 0)."""
        db = self.make_db()
        insert(db, ("accounts", 1))
        assert db.read(("accounts", 1), VersionVector.zeros(2)) == (0, 0)
        assert db.row_count() == 1

    def test_install_many(self):
        db = self.make_db()
        db.install_many([("t", 1), ("u", 2)], origin=1, seq=3)
        snapshot = VersionVector([0, 3])
        assert db.read(("t", 1), snapshot) == (1, 3)
        assert db.read(("u", 2), snapshot) == (1, 3)
        assert db.read(("t", 1), VersionVector([0, 2])) == (0, 0)

    def test_read_of_missing_key_creates_empty_record(self):
        db = self.make_db()
        assert db.read(("t", 99), VersionVector.zeros(1)) == (0, 0)
        assert db.row_count() == 1

    def test_stale_read_counter(self):
        db = self.make_db()
        insert(db, ("t", 1))
        for seq in range(1, 8):
            db.install_many([("t", 1)], origin=0, seq=seq)
        assert db.read(("t", 1), VersionVector([1])) == (0, 4)
        assert db.stale_reads == 1

    def test_invalid_max_versions(self):
        with pytest.raises(ValueError):
            Database(Environment(), max_versions=0)

    def test_row_and_version_counts(self):
        db = self.make_db()
        insert(db, ("a", 1))
        insert(db, ("b", 2))
        db.install_many([("a", 1)], origin=0, seq=1)
        assert db.row_count() == 2
        assert db.version_count() == 3
