"""Tests for the network model and RPC helper."""

import pytest

from repro.sim.core import Environment
from repro.sim.network import Network, NetworkConfig
from repro.sites.messages import RPC_BYTES, remote_call
from repro.transactions import Transaction
from tests.helpers import run_process


class TestNetwork:
    def test_delay_includes_size_term(self):
        env = Environment()
        network = Network(
            env, NetworkConfig(one_way_latency_ms=1.0, bandwidth_bytes_per_ms=1000.0)
        )
        assert network.delay_for(0) == 1.0
        assert network.delay_for(2000) == 3.0

    def test_transfer_advances_clock_and_accounts(self):
        env = Environment()
        network = Network(env, NetworkConfig(one_way_latency_ms=0.5))
        done = []

        def proc():
            network.account("test", 100)
            yield env.timeout(network.leg_delay(0, 1, 100))
            done.append(env.now)

        env.process(proc())
        env.run()
        assert done and done[0] >= 0.5
        assert network.traffic.bytes_by_category["test"] == 100
        assert network.traffic.messages_by_category["test"] == 1

    def test_total_bytes(self):
        env = Environment()
        network = Network(env, NetworkConfig())
        network.traffic.record("a", 10)
        network.traffic.record("b", 5)
        network.traffic.record("a", 1)
        assert network.traffic.total_bytes() == 16


class TestRemoteCall:
    def test_wraps_handler_with_two_hops(self):
        env = Environment()
        network = Network(env, NetworkConfig(one_way_latency_ms=1.0))
        results = []

        def handler():
            yield env.timeout(3.0)
            return "payload"

        def caller():
            value = yield from remote_call(network, handler())
            results.append((env.now, value))

        env.process(caller())
        env.run()
        when, value = results[0]
        assert value == "payload"
        # Two 1 ms hops + 3 ms of handler work (+ tiny size term).
        assert when == pytest.approx(5.0, abs=0.01)

    def test_accounts_network_timing_on_txn(self):
        env = Environment()
        network = Network(env, NetworkConfig(one_way_latency_ms=1.0))
        txn = Transaction("w", 0, write_set=(("t", 1),))

        def handler():
            return "ok"
            yield  # pragma: no cover

        def caller():
            yield from remote_call(network, handler(), txn=txn)

        process = env.process(caller())
        run_process(env, process)
        assert txn.timings["network"] == pytest.approx(2.0, abs=0.01)

    def test_traffic_category(self):
        env = Environment()
        network = Network(env, NetworkConfig())

        def handler():
            return None
            yield  # pragma: no cover

        def caller():
            yield from remote_call(network, handler(), category="remaster")

        process = env.process(caller())
        run_process(env, process)
        assert network.traffic.bytes_by_category["remaster"] == 2 * RPC_BYTES
