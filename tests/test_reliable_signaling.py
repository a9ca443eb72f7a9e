"""Unit tests for the reliable-request layer of the signaling framework.

Two plain :class:`SignalingNode` endpoints over one lossy/interruptible
link: retransmission with capped exponential backoff, correlation-id
matching, receiver-side duplicate suppression with cached-response
replay, give-up on attempt budget / deadline, and TTL-bounded state.
"""

from dataclasses import dataclass

import pytest

from repro.lte.signaling import (
    KIND_REQUEST,
    SIGNALING_PORT,
    SignalingEnvelope,
    SignalingNode,
)
from repro.net import Host, Link, Simulator


@dataclass
class Ping:
    payload: str = "ping"


@dataclass
class Pong:
    payload: str = "pong"


class World:
    """client --(link)-- server, with handler-run and reply logs."""

    def __init__(self, delay=0.001):
        self.sim = Simulator()
        self.client_host = Host(self.sim, "client-host",
                                address="10.0.0.1")
        self.server_host = Host(self.sim, "server-host",
                                address="10.0.0.2")
        self.link = Link(self.sim, "cs", self.client_host,
                         self.server_host, bandwidth_bps=1e9,
                         delay_s=delay)
        self.client = SignalingNode(self.client_host, "client")
        self.server = SignalingNode(self.server_host, "server")
        self.handler_runs = 0
        self.pongs = []
        self.server.on(Ping, self._serve)
        self.client.on(Pong, lambda src, msg: self.pongs.append(msg))

    def _serve(self, src_ip, message):
        self.handler_runs += 1
        self.server.send(src_ip, Pong(f"re:{message.payload}"))

    @property
    def uplink(self):
        return self.link.a_to_b      # client -> server

    @property
    def downlink(self):
        return self.link.b_to_a      # server -> client


class TestHappyPath:
    def test_request_completes_without_retransmission(self):
        world = World()
        world.client.send_request(world.server_host.address, Ping())
        world.sim.run()
        assert world.pongs == [Pong("re:ping")]
        assert world.handler_runs == 1
        assert world.client.requests_completed == 1
        assert world.client.retransmissions == 0
        assert world.client.reliable_stats()["requests_outstanding"] == 0

    def test_plain_send_bypasses_reliability(self):
        world = World()
        world.client.send(world.server_host.address, Ping())
        world.sim.run()
        # The reply is a plain datagram too: no correlation state at all.
        assert world.handler_runs == 1
        assert world.client.requests_sent == 0
        assert world.server.reliable_stats()["response_cache_size"] == 0


class TestRetransmission:
    def test_lost_request_is_retransmitted_until_delivered(self):
        world = World()
        world.uplink.set_up(False)
        world.sim.schedule(1.0, world.uplink.set_up, True)
        world.client.send_request(world.server_host.address, Ping())
        world.sim.run()
        assert world.pongs == [Pong("re:ping")]
        assert world.handler_runs == 1
        assert world.client.retransmissions >= 1
        assert world.client.requests_completed == 1
        assert world.client.requests_failed == 0

    def test_lost_response_replayed_from_cache_not_reexecuted(self):
        world = World()
        # The response direction is dark just long enough to eat the
        # first reply; the client's retransmission then hits the dedup
        # cache and the server replays without re-running the handler.
        world.downlink.set_up(False)
        world.sim.schedule(0.2, world.downlink.set_up, True)
        world.client.send_request(world.server_host.address, Ping())
        world.sim.run()
        assert world.pongs == [Pong("re:ping")]
        assert world.handler_runs == 1           # exactly once
        assert world.server.dup_requests >= 1
        assert world.server.dup_responses_replayed >= 1
        assert world.client.requests_completed == 1

    def test_backoff_grows_and_caps(self):
        world = World()
        world.uplink.set_up(False)               # nothing ever arrives
        fired = []
        world.client.send_request(
            world.server_host.address, Ping(), max_attempts=6,
            on_retransmit=lambda msg, attempt: fired.append(world.sim.now))
        world.sim.run()
        assert len(fired) == 5
        gaps = [b - a for a, b in zip(fired, fired[1:])]
        # Nominal gaps 0.8, 1.6, 3.0, 3.0 (x2 backoff capped at 3.0),
        # each with +/-10% jitter.
        assert gaps == sorted(gaps) or gaps[-1] == pytest.approx(
            gaps[-2], rel=0.25)
        for gap, nominal in zip(gaps, (0.8, 1.6, 3.0, 3.0)):
            assert gap == pytest.approx(nominal, rel=0.11)

    def test_jitter_is_deterministic_per_node_name(self):
        def retransmit_times():
            world = World()
            world.uplink.set_up(False)
            fired = []
            world.client.send_request(
                world.server_host.address, Ping(),
                on_retransmit=lambda m, a: fired.append(world.sim.now))
            world.sim.run()
            return fired

        assert retransmit_times() == retransmit_times()

    def test_jitter_generator_is_seeded_when_a_timer_is_first_armed(self):
        import random
        world = World()
        world.client.send(world.server_host.address, Ping())
        world.sim.run()
        assert "_retx_rng" not in vars(world.client)     # plain sends
        assert "_retx_rng" not in vars(world.server)
        reference = random.Random("retx:client")
        reference.random()                  # the first timer's draw
        world.client.send_request(world.server_host.address, Ping())
        world.sim.run()
        assert world.client._retx_rng.random() == reference.random()
        assert "_retx_rng" not in vars(world.server)     # only answered


class TestGiveUp:
    def test_attempt_budget_exhaustion_reports_failure(self):
        world = World()
        world.uplink.set_up(False)
        gave_up = []
        world.client.send_request(world.server_host.address, Ping(),
                                  on_give_up=gave_up.append)
        world.sim.run()
        assert gave_up == [Ping()]
        assert world.client.requests_failed == 1
        assert world.client.requests_completed == 0
        # 5 attempts total = 4 retransmissions, then clean state.
        assert world.client.retransmissions == 4
        assert world.client.reliable_stats()["requests_outstanding"] == 0

    def test_deadline_bounds_retransmission(self):
        world = World()
        world.uplink.set_up(False)
        gave_up = []
        world.client.send_request(world.server_host.address, Ping(),
                                  max_attempts=10_000, deadline=2.0,
                                  on_give_up=gave_up.append)
        world.sim.run()
        assert gave_up == [Ping()]
        # The first timeout at or after the deadline stops the retry
        # loop: bounded by deadline + capped timeout + jitter.
        assert world.sim.now <= 2.0 + 3.0 * 1.1

    def test_cancel_stops_retransmission(self):
        world = World()
        world.uplink.set_up(False)
        correlation_id = world.client.send_request(
            world.server_host.address, Ping())
        assert world.client.cancel_request(correlation_id)
        world.sim.run()
        assert world.client.retransmissions == 0
        assert world.client.requests_failed == 0
        assert not world.client.cancel_request(correlation_id)


class TestReceiverState:
    def test_late_duplicate_request_replays_and_response_is_dropped(self):
        world = World()
        correlation_id = world.client.send_request(
            world.server_host.address, Ping())
        world.sim.run()
        assert world.client.requests_completed == 1
        # A straggler copy of the request arrives after completion: the
        # server replays its cached response, and the client (with no
        # pending entry) must drop it rather than double side effects.
        world.client.socket.send_to(
            world.server_host.address, SIGNALING_PORT, 256,
            SignalingEnvelope(Ping(), correlation_id=correlation_id,
                              kind=KIND_REQUEST, attempt=2))
        world.sim.run()
        assert world.handler_runs == 1
        assert world.server.dup_responses_replayed == 1
        assert world.client.responses_unmatched == 1
        assert len(world.pongs) == 1

    def test_dedup_cache_is_ttl_bounded(self):
        world = World()
        world.server.response_cache_ttl = 1.0
        world.client.send_request(world.server_host.address, Ping())
        world.sim.run()
        assert world.server.reliable_stats()["response_cache_size"] == 1
        # The next request past the TTL sweeps the stale entry out.
        world.sim.schedule(5.0, world.client.send_request,
                           world.server_host.address, Ping())
        world.sim.run()
        assert world.handler_runs == 2
        assert world.server.reliable_stats()["response_cache_size"] == 1
