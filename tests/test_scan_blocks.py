"""Scans as shared partition blocks (DESIGN.md §8, "Scan representation").

``Transaction.scan_set`` is a tuple of blocks — immutable key sequences
that each lie inside one placement unit. Four things are pinned here:

* the generators: every block is non-empty and single-unit, and the
  flattened key stream is the one the flat-tuple generators produced
  (digests taken at the parent commit, plus the old YCSB scan and TPC-C
  Stock-Level generators kept below as references);
* ``KeyRange``: the range-backed block YCSB hands out behaves as the
  key tuple it stands for, and builds that tuple only when iterated;
* the router: the partition-store's per-block grouping yields the
  ``(site, point reads, scanned count)`` sub-reads of the old per-key
  grouping, which lives on below as the oracle;
* the cost: routing a 1000-key scan hashes O(blocks) keys, not O(keys),
  builds no key tuple, and a cached block retains O(1) bytes.
"""

import hashlib
import pickle
import random
from collections.abc import MutableSequence, Sequence
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import ClusterConfig
from repro.systems import Cluster, build_system
from repro.transactions import KeyRange, Transaction
from repro.workloads import WORKLOAD_REGISTRY, build_workload
from repro.workloads.ycsb import TABLE
from tests.helpers import run_process

#: Small configurations that still produce every shape of scan: YCSB
#: scans that wrap around the partition order, TPC-C Stock-Levels whose
#: recent orders drew half their stock from remote warehouses.
PARAMS = {
    "ycsb": dict(num_partitions=40, rmw_fraction=0.3, affinity_txns=7),
    "tpcc": dict(warehouses=3, items=120, customers_per_district=60,
                 neworder_remote_fraction=0.5, stocklevel_weight=0.3,
                 neworder_weight=0.4, payment_weight=0.3),
    "smallbank": dict(),
}

#: sha256 prefix of ``repr((txn_type, all_keys()))`` over 200 turns of
#: client 0, computed when ``scan_set`` was still one flat key tuple.
KEY_STREAM_DIGESTS = {
    ("smallbank", 0): "d8e6311605645bb3",
    ("smallbank", 1): "a2e34a2682107a00",
    ("smallbank", 2): "885a47bab431f284",
    ("tpcc", 0): "307de9b089b95193",
    ("tpcc", 1): "9f2af180cde4e1d1",
    ("tpcc", 2): "b010a6930c3c707b",
    ("ycsb", 0): "72a6b99b2285c58c",
    ("ycsb", 1): "ced398c514b9a89a",
    ("ycsb", 2): "e3edea3f9b4620d1",
}


def make(name):
    return build_workload(name, **PARAMS[name])


def turns_of(workload, seed, turns):
    rng = random.Random(seed)
    pool = workload.client_pool(1)
    return [pool.turn(0, rng, float(step)).txn for step in range(turns)]


def assert_is_a_block(block):
    """The ``ScanBlock`` contract: a non-empty immutable key sequence."""
    assert isinstance(block, Sequence) and not isinstance(block, MutableSequence)
    assert len(block) >= 1 and block[0] == next(iter(block))


def key_stream_digest(txns):
    digest = hashlib.sha256()
    for txn in txns:
        digest.update(repr((txn.txn_type, txn.all_keys())).encode())
    return digest.hexdigest()[:16]


# -- the flat-tuple generators, as they were before blocks ----------------------


def flat_ycsb_scan(workload, base, rng):
    cfg = workload.config
    length = rng.randint(cfg.scan_min_partitions, cfg.scan_max_partitions)
    keys = []
    for step in range(length):
        start = workload._neighbour(base, step) * cfg.keys_per_partition
        keys.extend((TABLE, start + offset) for offset in range(cfg.keys_per_partition))
    return tuple(keys)


def flat_stocklevel(workload, warehouse, rng):
    district = rng.randrange(workload.config.districts_per_warehouse)
    recent = workload._recent_lines.get((warehouse, district), [])
    scans = [("district", (warehouse, district))]
    seen = set()
    for supplier, item in recent:
        scans.append(("order_line", (warehouse, district, supplier, item)))
        if (supplier, item) not in seen:
            seen.add((supplier, item))
            scans.append(("stock", (supplier, item)))
    return tuple(scans)


class TestGeneratedBlocks:
    def test_every_registered_workload_is_covered(self):
        assert set(PARAMS) == set(WORKLOAD_REGISTRY)
        assert {name for name, _ in KEY_STREAM_DIGESTS} == set(WORKLOAD_REGISTRY)

    @pytest.mark.parametrize("name,seed", sorted(KEY_STREAM_DIGESTS))
    def test_blocks_are_nonempty_single_unit_and_flatten_to_the_old_stream(
        self, name, seed
    ):
        workload = make(name)
        txns = turns_of(workload, seed, 200)
        multi_block = 0
        for txn in txns:
            for block in txn.scan_set:
                assert_is_a_block(block)
                assert len({workload.placement_unit_of(key) for key in block}) == 1
            assert txn.scan_count == sum(len(block) for block in txn.scan_set)
            multi_block += len(txn.scan_set) > 1
        if name != "smallbank":  # SmallBank never scans
            assert multi_block > 10
        assert key_stream_digest(txns) == KEY_STREAM_DIGESTS[name, seed]

    @given(st.integers(0, 39), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_ycsb_scan_flattens_to_the_old_generator(self, base, seed):
        workload = make("ycsb")
        workload.shuffle_correlations(random.Random(seed))
        txn = workload._make_scan(base, 0, random.Random(seed))
        assert txn.all_keys() == flat_ycsb_scan(workload, base, random.Random(seed))
        # Shared, not copied: the blocks are the workload's cached ranges.
        again = workload._make_scan(base, 1, random.Random(seed))
        assert all(a is b for a, b in zip(txn.scan_set, again.scan_set))

    @given(st.integers(0, 10_000), st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_stock_level_flattens_to_the_old_generator(self, seed, orders):
        workload = make("tpcc")
        rng = random.Random(seed)
        warehouse = rng.randrange(workload.config.warehouses)
        for _ in range(orders):
            workload._make_neworder(0, warehouse, rng)
        txn = workload._make_stocklevel(0, warehouse, random.Random(seed))
        assert txn.all_keys() == flat_stocklevel(workload, warehouse, random.Random(seed))
        units = [workload.placement_unit_of(block[0]) for block in txn.scan_set]
        # Consecutive keys of one warehouse are one block, never split.
        assert all(a != b for a, b in zip(units, units[1:]))


# -- the range-backed block against the tuple the parent built ------------------


def parent_scan_block(table, start, length):
    """What ``YCSBWorkload._scan_block`` built at the parent commit."""
    return tuple((table, start + offset) for offset in range(length))


class TestKeyRange:
    @given(st.sampled_from([TABLE, "t"]), st.integers(0, 10**6),
           st.integers(1, 300), st.data())
    @settings(max_examples=100, deadline=None)
    def test_behaves_as_the_key_tuple_it_stands_for(self, table, start, length, data):
        block = KeyRange(table, range(start, start + length))
        keys = parent_scan_block(table, start, length)
        index = data.draw(st.integers(-length, length - 1))
        probes = [keys[index], (table, start - 1), (table, start + length),
                  ("other", start), (table,), start]

        def answers(sequence):
            return (
                len(sequence),
                [sequence[i] for i in (0, -1, index)],
                [probe in sequence for probe in probes],
                list(reversed(sequence)),
            )

        assert answers(block) == answers(keys)
        for beyond in (length, -length - 1):
            with pytest.raises(IndexError):
                block[beyond]
        assert block._keys is None  # none of the above built the tuple
        assert tuple(block) == keys and list(block) == list(keys)
        # Materialised now: the same questions, answered off the kept tuple.
        assert answers(block) == answers(keys)
        assert block[1:3] == keys[1:3]
        assert block.index(keys[index]) == keys.index(keys[index])
        assert_is_a_block(block)

        twin = KeyRange(table, range(start, start + length))
        assert twin == block and hash(twin) == hash(block)
        assert len({twin, block}) == 1
        assert twin != KeyRange(table, range(start, start + length + 1))
        assert twin != KeyRange(table + "2", range(start, start + length))

        clone = pickle.loads(pickle.dumps(block))
        assert clone == block and tuple(clone) == keys
        assert len(pickle.dumps(block)) < 120  # the range, not the kept tuple

    def test_iterating_twice_yields_the_same_key_objects(self):
        block = KeyRange(TABLE, range(500, 600))
        assert (len(block), block[0], block[-1]) == (100, (TABLE, 500), (TABLE, 599))
        assert block._keys is None  # len() and [i] leave it unmaterialised
        first, second = list(block), list(block)
        assert all(a is b for a, b in zip(first, second))
        assert block[7] is first[7]

    def test_an_empty_range_is_not_a_block(self):
        with pytest.raises(ValueError, match="non-empty"):
            KeyRange(TABLE, range(5, 5))

    def test_a_cached_block_costs_bytes_per_partition_not_per_key(self, retained_bytes):
        """One ``_scan_block`` per partition of a 2 000-partition YCSB:
        9.6 KB per block as a tuple of 100 boxed keys, 168 B as a range."""
        workload = build_workload("ycsb", num_partitions=2000)
        blocks, used = retained_bytes(
            lambda: [workload._scan_block(partition) for partition in range(2000)]
        )
        assert blocks == workload._scan_blocks
        assert used / 2000 <= 300


# -- the per-key router, as it was before blocks --------------------------------


def targets_per_key(system, txn):
    """``(site, point reads, scanned count)`` per unit: every point and
    scanned key is resolved and bucketed on its own."""
    reads, scans, static = {}, {}, []
    flat_scan = tuple(chain.from_iterable(txn.scan_set))
    for source, bucket in ((txn.read_set, reads), (flat_scan, scans)):
        for key in source:
            unit = system.unit_of(key)
            if unit is None:
                static.append(key)
            else:
                bucket.setdefault(unit, []).append(key)
    units = sorted(set(reads) | set(scans))
    if units:
        reads.setdefault(units[0], []).extend(static)
    elif static:
        reads[0] = static
        units = [0]
    return [
        (system.placement.get(unit, 0), tuple(reads.get(unit, ())),
         len(scans.get(unit, ())))
        for unit in units
    ]


def targets_per_block(system, txn):
    return [
        (system.placement.get(unit, 0), keys, sum(len(block) for block in blocks))
        for unit, keys, blocks in system._group_by_unit(txn)
    ]


def partition_store(workload, num_sites):
    cluster = Cluster(ClusterConfig(num_sites=num_sites), replicated=False)
    return build_system(
        "partition-store", cluster, scheme=workload.scheme,
        placement=workload.fixed_placement(num_sites),
        unit_of=workload.placement_unit_of,
    )


#: Static-table material to splice into generated reads: TPC-C's item
#: table is replicated everywhere (unit ``None``).
static_keys = st.lists(st.integers(0, 119).map(lambda item: ("item", item)), max_size=4)
static_blocks = st.lists(
    st.tuples(st.integers(0, 20), static_keys.filter(bool).map(tuple)), max_size=3
)


def spliced(txn, extra_reads, blocks_at):
    """``txn`` as a read of the same keys plus static reads and blocks."""
    scan_set = list(txn.scan_set)
    for position, block in blocks_at:
        scan_set.insert(min(position, len(scan_set)), block)
    return Transaction(
        txn.txn_type, txn.client_id,
        read_set=txn.read_set + tuple(extra_reads), scan_set=tuple(scan_set),
    )


class TestBlockRouterMatchesPerKeyRouter:
    @given(st.integers(0, 10_000), st.integers(2, 5), static_keys, static_blocks)
    @settings(max_examples=60, deadline=None)
    def test_tpcc_warehouse_placement(self, seed, num_sites, extra_reads, blocks_at):
        workload = make("tpcc")
        system = partition_store(workload, num_sites)
        multi_unit = 0
        for txn in turns_of(workload, seed, 60):
            txn = spliced(txn, extra_reads, blocks_at)
            expected = targets_per_key(system, txn)
            assert targets_per_block(system, txn) == expected
            multi_unit += len(expected) > 1
        assert multi_unit  # scatter-gather shapes were exercised

    @given(st.integers(0, 10_000), st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_ycsb_range_placement(self, seed, num_sites):
        workload = make("ycsb")
        workload.shuffle_correlations(random.Random(seed))
        system = partition_store(workload, num_sites)
        for txn in turns_of(workload, seed, 40):
            txn = spliced(txn, (), ())
            assert targets_per_block(system, txn) == targets_per_key(system, txn)

    def test_static_only_read_runs_at_unit_zero(self):
        system = partition_store(make("tpcc"), 3)
        txn = Transaction(
            "r", 0, read_set=(("item", 1),), scan_set=((("item", 2), ("item", 3)),)
        )
        assert targets_per_block(system, txn) == targets_per_key(system, txn) == [
            (system.placement[0], (("item", 1), ("item", 2), ("item", 3)), 0)
        ]


class CountedKey(tuple):
    """A key that counts how often it is hashed (one per dict probe)."""

    hashed = 0

    def __hash__(self):
        CountedKey.hashed += 1
        return tuple.__hash__(self)


def test_routing_a_scan_hashes_blocks_not_keys():
    """One 1000-key scan through ``_submit_read``: the per-key router
    probed its memo and a bucket dict for every key (≥ 1000 hashes);
    the block router touches each block's first key only."""
    workload = build_workload("ycsb", num_partitions=40)
    system = partition_store(workload, 4)
    blocks = tuple(
        tuple(CountedKey((TABLE, partition * 100 + offset)) for offset in range(100))
        for partition in range(5, 15)
    )
    txn = Transaction("scan", 0, scan_set=blocks)
    session = system.new_session(0)
    CountedKey.hashed = 0
    env = system.cluster.env
    outcome = run_process(env, env.process(system.submit(txn, session)))
    assert outcome.committed and outcome.distributed
    assert system.scatter_gather_reads == 1
    assert CountedKey.hashed <= 2 * len(blocks)


@pytest.mark.parametrize(
    "name", ["partition-store", "dynamast", "single-master", "multi-master"]
)
def test_submitting_a_scan_builds_no_key_tuple(name):
    """A 1000-key YCSB scan end to end: routers and sites ask a block
    for its length and first key only, so no ``KeyRange`` materialises
    (LEAP, which ships per record, is the one system that iterates)."""
    workload = build_workload("ycsb", num_partitions=40)
    cluster = Cluster(
        ClusterConfig(num_sites=4),
        replicated=name != "partition-store",
    )
    kwargs = {"scheme": workload.scheme}
    if name in ("partition-store", "multi-master"):
        kwargs["placement"] = workload.fixed_placement(4)
    system = build_system(name, cluster, **kwargs)
    blocks = tuple(workload._scan_block(partition) for partition in range(5, 15))
    txn = Transaction("scan", 0, scan_set=blocks)
    env = cluster.env
    outcome = run_process(
        env, env.process(system.submit(txn, system.new_session(0)))
    )
    assert outcome.committed and txn.scan_count == 1000
    assert all(block._keys is None for block in blocks)
