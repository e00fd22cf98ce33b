"""Golden-trace identity pins for the optimized hot paths.

The tentpole performance work (event-loop slimming in ``sim/core``,
lazy statistics folding in ``core/statistics``, lock/vector fast paths)
must not move a single simulated event or statistic. These tests pin:

* the exact wakeup/completion ordering of a kernel scenario that
  exercises timeouts (including same-time tie-breaks), success and
  failure propagation, ``AllOf``/``AnyOf``, resource contention,
  readers-writer locks, stores, and interrupts;
* the exact numeric snapshots of :class:`AccessStatistics` under a
  seeded observe/query interleaving that exercises sampling, the
  inter-transaction window, expiry, and the retention cap.

The digests were recorded on the pre-optimization code; regenerate them
only for an intentional simulated-behavior change (see CONTRIBUTING.md,
"Updating fingerprints").
"""

import hashlib
import json
import random

from repro.core.partitions import PartitionTable
from repro.core.statistics import AccessStatistics, StatisticsConfig
from repro.sim.core import Environment, SimulationError
from repro.sim.resources import Resource, RWLock, Store

#: sha256[:16] of the kernel scenario's full event trace.
KERNEL_TRACE_DIGEST = "725edf95bc4aa69a"

#: The first entries of that trace, spelled out so a divergence is
#: debuggable without re-deriving the whole scenario by hand.
KERNEL_TRACE_HEAD = [
    (0.1, "read-acquire:ra"),
    (0.5, "tick:c:0"),
    (0.75, "caught:boom"),
    (0.8, "put:0"),
    (0.8, "got:0"),
    (1.0, "tick:a:0"),
]

#: sha256[:16] of the statistics observe/query interleaving.
STATISTICS_DIGEST = "56d7576def153bc6"


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()[:16]


def run_kernel_scenario():
    """A dense kernel workout; returns the (time, label) trace."""
    env = Environment()
    trace = []

    def log(label):
        trace.append((round(env.now, 9), label))

    # -- timeouts with ties: same deadline, creation order breaks it --
    def ticker(name, delay, repeats):
        for index in range(repeats):
            yield env.timeout(delay)
            log(f"tick:{name}:{index}")

    env.process(ticker("a", 1.0, 4))
    env.process(ticker("b", 1.0, 4))
    env.process(ticker("c", 0.5, 6))

    # -- events: success value, failure propagation, defuse ----------
    gate = env.event()

    def opener():
        yield env.timeout(1.25)
        log("open-gate")
        gate.succeed("opened")

    def waiter(name):
        value = yield gate
        log(f"gate:{name}:{value}")

    env.process(opener())
    env.process(waiter("w1"))
    env.process(waiter("w2"))

    def failer():
        yield env.timeout(0.75)
        raise RuntimeError("boom")

    doomed = env.process(failer())

    def catcher():
        try:
            yield doomed
        except RuntimeError as exc:
            log(f"caught:{exc}")

    env.process(catcher())

    # -- conditions: AllOf ordering, AnyOf first-wins ----------------
    def all_waiter():
        values = yield env.all_of([env.timeout(2.0, "x"), env.timeout(1.5, "y")])
        log(f"all:{values}")

    def any_waiter():
        value = yield env.any_of([env.timeout(3.0, "slow"), env.timeout(2.5, "fast")])
        log(f"any:{value}")

    env.process(all_waiter())
    env.process(any_waiter())

    # -- resources: contention, queueing, helper generator ------------
    cpu = Resource(env, capacity=2)

    def worker(name, hold):
        yield from cpu.use(hold)
        log(f"done:{name}")

    for index, hold in enumerate((1.0, 1.0, 0.5, 0.25)):
        env.process(worker(f"r{index}", hold))

    # -- readers-writer lock: fairness and downgrade -----------------
    rw = RWLock(env)

    def reader(name, at, hold):
        yield env.timeout(at)
        yield rw.acquire_read()
        log(f"read-acquire:{name}")
        yield env.timeout(hold)
        rw.release_read()
        log(f"read-release:{name}")

    def writer(name, at, hold):
        yield env.timeout(at)
        yield rw.acquire_write()
        log(f"write-acquire:{name}")
        yield env.timeout(hold)
        rw.downgrade()
        log(f"downgrade:{name}")
        yield env.timeout(hold)
        rw.release_read()

    env.process(reader("ra", 0.1, 1.0))
    env.process(writer("wa", 0.2, 0.6))
    env.process(reader("rb", 0.3, 0.4))

    # -- stores: put-then-get and get-then-put ------------------------
    box = Store(env)

    def producer():
        for index in range(3):
            yield env.timeout(0.8)
            box.put(index)
            log(f"put:{index}")

    def consumer():
        for _ in range(3):
            item = yield box.get()
            log(f"got:{item}")

    env.process(consumer())
    env.process(producer())

    # -- interrupts: mid-wait unwind runs finally blocks -------------
    def victim():
        try:
            yield env.timeout(50.0)
        except SimulationError:
            log("victim-unwound")
        finally:
            log("victim-finally")

    target = env.process(victim())

    def assassin():
        yield env.timeout(2.2)
        target.interrupt(SimulationError("killed"))
        log("interrupted")

    env.process(assassin())

    env.run(until=40.0)
    log(f"end:{env.now}")
    return trace


class TestKernelGoldenTrace:
    def test_trace_matches_golden_digest(self):
        trace = run_kernel_scenario()
        assert trace[: len(KERNEL_TRACE_HEAD)] == KERNEL_TRACE_HEAD
        assert _digest(trace) == KERNEL_TRACE_DIGEST, (
            "kernel event ordering diverged from the pre-optimization "
            "golden trace — an optimization changed simulated behavior"
        )

    def test_trace_is_reproducible(self):
        assert run_kernel_scenario() == run_kernel_scenario()


#: The scenario feeds the statistics a seeded 85 % thinning of its
#: write sets (the golden digest was taken when the statistics drew
#: this sample themselves, from a ``Random(11)``).
STATISTICS_CONFIG = StatisticsConfig(
    inter_txn_window_ms=20.0,
    expiry_ms=120.0,
    max_samples=24,
    max_inter_pairs=16,
)


def run_statistics_scenario():
    """Seeded observe/query interleaving; returns the snapshot payload."""
    stats = AccessStatistics(STATISTICS_CONFIG)
    stats.follow_masters(
        PartitionTable(Environment(), {p: p % 3 for p in range(12)}), 3
    )
    sampler = random.Random(11)
    driver = random.Random(97)
    snapshots = []
    now = 0.0
    sampled = 0
    for step in range(400):
        now += driver.random() * 4.0
        client = driver.randrange(6)
        width = driver.randint(1, 4)
        partitions = [driver.randrange(12) for _ in range(width)]
        if sampler.random() < 0.85:
            stats.observe(now, client, partitions)
            sampled += 1
        if step % 7 == 3:
            first = driver.randrange(12)
            second = driver.randrange(12)
            # Write fraction, access fraction, the Eq. 6 / Eq. 7
            # conditional probabilities and the intra partners of
            # ``first``, all from the folded counts.
            writes = stats.partition_writes.get(first, 0.0)
            samples = stats._sample_count
            intra = stats.co_intra.get(first, {})
            inter = stats.co_inter.get(first, {})
            snapshots.append([
                round(writes / samples if samples else 0.0, 12),
                round(stats.access_fraction(first), 12),
                round(intra.get(second, 0.0) / writes if writes else 0.0, 12),
                round(inter.get(second, 0.0) / writes if writes else 0.0, 12),
                sorted((key, round(value, 9)) for key, value in intra.items()),
                [
                    round(load, 12)
                    for load in stats.site_write_loads()
                ],
            ])
    return {
        "observed": 400,
        "sampled": sampled,
        "total_writes": float(stats._sample_count),
        "partition_writes": sorted(stats.partition_writes.items()),
        "co_intra": sorted(
            (left, sorted(row.items())) for left, row in stats.co_intra.items()
        ),
        "co_inter": sorted(
            (left, sorted(row.items())) for left, row in stats.co_inter.items()
        ),
        "snapshots": snapshots,
    }


class TestStatisticsGolden:
    def test_snapshots_match_golden_digest(self):
        payload = run_statistics_scenario()
        assert _digest(payload) == STATISTICS_DIGEST, (
            "statistics snapshots diverged from the pre-optimization "
            "golden values — lazy folding changed observable state"
        )

    def test_queries_do_not_perturb_state(self):
        """Issuing extra queries between observes (which folds pending
        samples at different points) must not change the end state."""
        baseline = run_statistics_scenario()
        stats = AccessStatistics(STATISTICS_CONFIG)
        sampler = random.Random(11)
        driver = random.Random(97)
        now = 0.0
        for step in range(400):
            now += driver.random() * 4.0
            client = driver.randrange(6)
            width = driver.randint(1, 4)
            partitions = [driver.randrange(12) for _ in range(width)]
            if sampler.random() < 0.85:
                stats.observe(now, client, partitions)
            # Query every step instead of every 7th.
            stats.partition_writes  # folds
            stats.access_fraction(1)
            if step % 7 == 3:
                _ = (driver.randrange(12), driver.randrange(12))  # keep draws aligned
        assert sorted(stats.partition_writes.items()) == baseline["partition_writes"]
        assert stats._sample_count == baseline["total_writes"]
