"""Tests for the network model and RPC helper."""

import pytest

from repro.faults.errors import TransactionAborted
from repro.sim.core import Environment
from repro.sim.network import BANDWIDTH_BYTES_PER_MS, ONE_WAY_LATENCY_MS, Network
from repro.sites.messages import RPC_BYTES, remote_call
from repro.transactions import Transaction
from tests.helpers import run_process


class TestNetwork:
    def test_delay_includes_size_term(self):
        env = Environment()
        network = Network(env)
        assert network.delay_for(0) == ONE_WAY_LATENCY_MS
        two_ms_of_bytes = int(2 * BANDWIDTH_BYTES_PER_MS)
        assert network.delay_for(two_ms_of_bytes) == ONE_WAY_LATENCY_MS + 2.0

    def test_transfer_advances_clock_and_accounts(self):
        env = Environment()
        network = Network(env)
        done = []

        def proc():
            network.account("test", 100)
            yield env.timeout(network.leg_delay(0, 1, 100))
            done.append(env.now)

        env.process(proc())
        env.run()
        assert done and done[0] >= ONE_WAY_LATENCY_MS
        assert network.traffic.bytes_by_category["test"] == 100
        assert network.traffic.messages_by_category["test"] == 1

    def test_total_bytes(self):
        env = Environment()
        network = Network(env)
        network.traffic.record("a", 10)
        network.traffic.record("b", 5)
        network.traffic.record("a", 1)
        assert network.traffic.total_bytes() == 16


class TestRemoteCall:
    def test_wraps_handler_with_two_hops(self):
        env = Environment()
        network = Network(env)
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
        # Two hops + 3 ms of handler work (+ tiny size term).
        assert when == pytest.approx(2 * ONE_WAY_LATENCY_MS + 3.0, abs=0.01)

    def test_accounts_network_timing_on_txn(self):
        env = Environment()
        network = Network(env)
        txn = Transaction("w", 0, write_set=(("t", 1),))

        def handler():
            return "ok"
            yield  # pragma: no cover

        def caller():
            yield from remote_call(network, handler(), txn=txn)

        process = env.process(caller())
        run_process(env, process)
        assert txn.timings["network"] == pytest.approx(2 * ONE_WAY_LATENCY_MS, abs=0.01)

    def test_raising_handler_leaves_only_the_request_leg_timed(self):
        env = Environment()
        network = Network(env)
        txn = Transaction("w", 0, write_set=(("t", 1),))

        def handler():
            yield env.timeout(3.0)
            raise TransactionAborted("conflict", "refused")

        def caller():
            yield from remote_call(network, handler(), txn=txn)

        with pytest.raises(TransactionAborted):
            run_process(env, env.process(caller()))
        assert txn.timings == {"network": network.delay_for(RPC_BYTES)}

    def test_traffic_category(self):
        env = Environment()
        network = Network(env)

        def handler():
            return None
            yield  # pragma: no cover

        def caller():
            yield from remote_call(network, handler(), category="remaster")

        process = env.process(caller())
        run_process(env, process)
        assert network.traffic.bytes_by_category["remaster"] == 2 * RPC_BYTES
