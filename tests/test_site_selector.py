"""Tests for the site selector: routing and the remastering protocol."""

from repro.core.site_selector import SiteSelector
from repro.core.strategy import StrategyWeights
from repro.partitioning.schemes import PartitionScheme
from repro.sim.config import ClusterConfig
from repro.systems.base import Cluster, Session
from repro.transactions import Transaction
from repro.versioning import VersionVector
from tests.helpers import run_process


def make_selector(num_sites=2, num_partitions=4, placement=None, weights=None):
    cluster = Cluster(ClusterConfig(num_sites=num_sites))
    scheme = PartitionScheme(lambda key: key[1], num_partitions)
    if placement is None:
        placement = scheme.round_robin_placement(num_sites)
    cluster.place_partitions(placement)
    selector = SiteSelector(cluster, scheme, placement, weights=weights)
    return cluster, scheme, selector


def write_txn(*partitions, client_id=0):
    return Transaction(
        "w", client_id, write_set=tuple(("t", p) for p in partitions)
    )


class TestRouteUpdate:
    def test_single_master_write_routes_without_remastering(self):
        cluster, _, selector = make_selector()
        txn = write_txn(0)  # partition 0 -> site 0

        def run():
            return (yield from selector.route_update(txn))

        process = cluster.env.process(run())
        route = run_process(cluster.env, process)
        assert route.site == 0
        assert not route.remastered
        assert route.min_vv is None
        assert selector.updates_routed == 1
        assert selector.updates_remastered == 0
        # The txn is registered in flight at the routed site.
        assert cluster.activity.active(0, 0) == 1

    def test_distributed_write_set_triggers_remastering(self):
        cluster, _, selector = make_selector()
        txn = write_txn(0, 1)  # partitions at sites 0 and 1

        def run():
            return (yield from selector.route_update(txn))

        process = cluster.env.process(run())
        route = run_process(cluster.env, process)
        assert route.remastered
        assert route.min_vv is not None
        # Both partitions now mastered at the chosen site.
        masters = selector.table.masters_of([0, 1])
        assert masters == {route.site}
        site = cluster.sites[route.site]
        assert {0, 1} <= site.mastered
        assert selector.remaster_rate() == 1.0

    def test_second_transaction_amortizes_remastering(self):
        cluster, _, selector = make_selector()

        def run():
            first = yield from selector.route_update(write_txn(0, 1))
            cluster.activity.finish(first.site, first.partitions)
            second = yield from selector.route_update(write_txn(0, 1))
            cluster.activity.finish(second.site, second.partitions)
            return first, second

        process = cluster.env.process(run())
        first, second = run_process(cluster.env, process)
        assert first.remastered
        assert not second.remastered
        assert second.site == first.site
        assert selector.remaster_rate() == 0.5

    def test_remastered_partition_usable_at_new_master(self):
        """Full flow: route, remaster, execute at the new master."""
        cluster, _, selector = make_selector()

        def run():
            txn = write_txn(0, 1)
            route = yield from selector.route_update(txn)
            tvv = yield from cluster.sites[route.site].execute_update(
                txn, route.min_vv, partitions=route.partitions
            )
            return route, tvv

        process = cluster.env.process(run())
        route, tvv = run_process(cluster.env, process)
        assert tvv[route.site] >= 1

    def test_concurrent_same_write_set_share_remastering(self):
        """A blocked transaction benefits from the first one's move."""
        cluster, _, selector = make_selector()
        routes = []

        def client(txn):
            route = yield from selector.route_update(txn)
            routes.append(route)
            cluster.activity.finish(route.site, route.partitions)

        cluster.env.process(client(write_txn(0, 1, client_id=0)))
        cluster.env.process(client(write_txn(0, 1, client_id=1)))
        cluster.env.run()
        assert len(routes) == 2
        remastered_flags = sorted(route.remastered for route in routes)
        assert remastered_flags == [False, True]
        assert routes[0].site == routes[1].site
        assert selector.remaster_operations <= 1

    def test_release_waits_for_registered_transaction(self):
        """A txn routed first must commit before its partition moves."""
        cluster, _, selector = make_selector()
        order = []
        # Pre-load the statistics so site 0 looks heavily loaded: the
        # strategy will pick site 1 as the remastering destination,
        # forcing partition 0 to move away from the in-flight holder.
        for time in range(10):
            selector.statistics.observe(float(time), 9, [2])

        def slow_holder():
            txn = write_txn(0, client_id=0)
            txn.extra_cpu_ms = 30.0
            route = yield from selector.route_update(txn)
            yield from cluster.sites[route.site].execute_update(
                txn, route.min_vv, partitions=route.partitions
            )
            order.append(("holder-commit", cluster.env.now))

        def remasterer():
            yield cluster.env.timeout(1.0)
            txn = write_txn(0, 3, client_id=1)
            route = yield from selector.route_update(txn)
            assert route.site == 1
            order.append(("remastered", cluster.env.now))
            cluster.activity.finish(route.site, route.partitions)

        cluster.env.process(slow_holder())
        cluster.env.process(remasterer())
        cluster.env.run()
        assert order[0][0] == "holder-commit"
        assert order[1][0] == "remastered"

    def test_route_counts_tracked(self):
        cluster, _, selector = make_selector()

        def run():
            route = yield from selector.route_update(write_txn(0))
            cluster.activity.finish(route.site, route.partitions)
            route = yield from selector.route_update(write_txn(2))
            cluster.activity.finish(route.site, route.partitions)

        cluster.env.process(run())
        cluster.env.run()
        fractions = selector.route_fractions()
        assert fractions == [1.0, 0.0]  # partitions 0 and 2 both at site 0


class TestRouteRead:
    def test_read_routes_to_fresh_site(self):
        cluster, _, selector = make_selector()
        session = Session(0, VersionVector.zeros(2))

        def run():
            txn = Transaction("r", 0, read_set=(("t", 0),))
            return (yield from selector.route_read(txn, session))

        process = cluster.env.process(run())
        site = run_process(cluster.env, process)
        assert site in (0, 1)
        assert selector.reads_routed == 1

    def test_read_avoids_stale_site(self):
        cluster, _, selector = make_selector()
        # Client has seen update 3 from site 0; site 1 lags.
        cluster.sites[0].svv[0] = 3
        session = Session(0, VersionVector([3, 0]))

        def run():
            sites = []
            for _ in range(20):
                txn = Transaction("r", 0, read_set=(("t", 0),))
                sites.append((yield from selector.route_read(txn, session)))
            return sites

        process = cluster.env.process(run())
        sites = run_process(cluster.env, process)
        assert set(sites) == {0}

    def test_read_spreads_over_fresh_sites(self):
        cluster, _, selector = make_selector(num_sites=4)
        session = Session(0, VersionVector.zeros(4))

        def run():
            sites = []
            for _ in range(80):
                txn = Transaction("r", 0, read_set=(("t", 0),))
                sites.append((yield from selector.route_read(txn, session)))
            return sites

        process = cluster.env.process(run())
        sites = run_process(cluster.env, process)
        assert set(sites) == {0, 1, 2, 3}

    def test_no_fresh_site_picks_least_lagging(self):
        cluster, _, selector = make_selector()
        cluster.sites[0].svv[1] = 1
        session = Session(0, VersionVector([5, 5]))

        def run():
            txn = Transaction("r", 0, read_set=(("t", 0),))
            return (yield from selector.route_read(txn, session))

        process = cluster.env.process(run())
        assert run_process(cluster.env, process) == 0


class TestStatisticsFollowTheWeights:
    """The selector maintains only the statistics its weights read."""

    def route_pair_then_single(self, weights):
        cluster, _, selector = make_selector(weights=weights)

        def run():
            for txn in (write_txn(0, 1), write_txn(2)):  # same client, within Δt
                route = yield from selector.route_update(txn)
                cluster.activity.finish(route.site, route.partitions)

        run_process(cluster.env, cluster.env.process(run()))
        return selector.statistics

    def test_zero_inter_weight_keeps_no_inter_rows(self):
        statistics = self.route_pair_then_single(StrategyWeights.for_ycsb())
        assert not statistics.track_inter
        assert statistics.co_intra and not statistics.co_inter

    def test_nonzero_inter_weight_keeps_them(self):
        statistics = self.route_pair_then_single(StrategyWeights.for_tpcc())
        assert statistics.track_inter
        assert statistics.co_inter

    def test_site_loads_follow_the_selector_table(self):
        cluster, _, selector = make_selector()

        def run():
            route = yield from selector.route_update(write_txn(0, 1))
            cluster.activity.finish(route.site, route.partitions)
            return route

        route = run_process(cluster.env, cluster.env.process(run()))
        loads = selector.statistics.site_write_loads()
        assert loads[route.site] == 1.0 and sum(loads) == 1.0
