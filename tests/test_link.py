"""Unit + property tests for links, token buckets, and address pools."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import AddressPool, Packet, Simulator, TokenBucket, same_prefix
from repro.net.link import SimplexLink


def make_packet(size=1000, dst="10.0.0.2"):
    return Packet(src="10.0.0.1", dst=dst, protocol=17, size=size)


class TestTokenBucket:
    def test_starts_full(self):
        bucket = TokenBucket(rate_bps=8000, burst_bytes=5000)
        assert bucket.tokens_at(0.0) == 5000

    def test_consume_and_refill(self):
        bucket = TokenBucket(rate_bps=8000, burst_bytes=5000)  # 1000 B/s
        bucket.consume(5000, now=0.0)
        assert bucket.tokens_at(0.0) == 0
        assert bucket.tokens_at(2.0) == pytest.approx(2000)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate_bps=8000, burst_bytes=5000)
        assert bucket.tokens_at(100.0) == 5000

    def test_delay_until_conforming(self):
        bucket = TokenBucket(rate_bps=8000, burst_bytes=1000)
        bucket.consume(1000, now=0.0)
        # need 500 bytes = 4000 bits at 8000 bps = 0.5 s
        assert bucket.delay_until_conforming(500, now=0.0) == pytest.approx(0.5)

    def test_conforming_packet_has_zero_delay(self):
        bucket = TokenBucket(rate_bps=8000, burst_bytes=1000)
        assert bucket.delay_until_conforming(1000, now=0.0) == 0.0

    def test_reset_refills(self):
        bucket = TokenBucket(rate_bps=8000, burst_bytes=1000)
        bucket.consume(1000, now=0.0)
        bucket.reset(now=0.0)
        assert bucket.tokens_at(0.0) == 1000

    def test_set_rate(self):
        bucket = TokenBucket(rate_bps=8000, burst_bytes=1000)
        bucket.consume(1000, now=0.0)
        bucket.set_rate(16000)
        assert bucket.tokens_at(0.5) == pytest.approx(1000)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(0, 100)
        with pytest.raises(ValueError):
            TokenBucket(100, 0)

    @given(rate=st.floats(min_value=1e3, max_value=1e8),
           burst=st.floats(min_value=100, max_value=1e6),
           size=st.integers(min_value=1, max_value=100_000))
    @settings(max_examples=50, deadline=None)
    def test_tokens_never_exceed_burst(self, rate, burst, size):
        bucket = TokenBucket(rate, burst)
        bucket.consume(size, now=0.0)
        for t in (0.1, 1.0, 100.0):
            assert bucket.tokens_at(t) <= burst + 1e-6


class TestSimplexLink:
    def _make(self, sim, **kwargs):
        defaults = dict(bandwidth_bps=8e6, delay_s=0.01, loss_rate=0.0)
        defaults.update(kwargs)
        return SimplexLink(sim, "test", **defaults)

    def test_delivery_latency_is_serialization_plus_propagation(self):
        sim = Simulator()
        link = self._make(sim, bandwidth_bps=8000, delay_s=0.5)
        arrivals = []
        link.receiver = lambda p: arrivals.append(sim.now)
        link.send(make_packet(size=1000))  # 1000 B at 1000 B/s = 1 s
        sim.run()
        assert arrivals == [pytest.approx(1.5)]

    def test_fifo_serialization_backlog(self):
        sim = Simulator()
        link = self._make(sim, bandwidth_bps=8000, delay_s=0.0)
        arrivals = []
        link.receiver = lambda p: arrivals.append(sim.now)
        link.send(make_packet(size=1000))
        link.send(make_packet(size=1000))
        sim.run()
        assert arrivals == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_queue_limit_drops(self):
        sim = Simulator()
        link = self._make(sim, queue_limit_bytes=2500)
        assert link.send(make_packet(size=1000))
        assert link.send(make_packet(size=1000))
        assert not link.send(make_packet(size=1000))
        assert link.stats.dropped_queue == 1

    def test_down_link_drops_at_entry(self):
        sim = Simulator()
        link = self._make(sim)
        link.set_up(False)
        assert not link.send(make_packet())
        assert link.stats.dropped_down == 1

    def test_down_link_drops_in_flight(self):
        sim = Simulator()
        link = self._make(sim, bandwidth_bps=8000, delay_s=1.0)
        delivered = []
        link.receiver = lambda p: delivered.append(p)
        link.send(make_packet(size=1000))
        sim.schedule(0.5, link.set_up, False)
        sim.run()
        assert delivered == []
        assert link.stats.dropped_down == 1

    def test_interrupt_recovers(self):
        sim = Simulator()
        link = self._make(sim)
        delivered = []
        link.receiver = lambda p: delivered.append(p)
        link.interrupt(1.0)
        sim.schedule(2.0, link.send, make_packet())
        sim.run()
        assert len(delivered) == 1

    def test_pause_delays_without_loss(self):
        sim = Simulator()
        link = self._make(sim, bandwidth_bps=8e6, delay_s=0.01)
        arrivals = []
        link.receiver = lambda p: arrivals.append(sim.now)
        link.send(make_packet(size=1000))
        link.pause(1.0)
        link.send(make_packet(size=1000))
        sim.run()
        # Both packets survive, delivered at/after the pause end, in order.
        assert len(arrivals) == 2
        assert all(t >= 1.0 for t in arrivals)
        assert arrivals == sorted(arrivals)

    def test_pause_expires(self):
        sim = Simulator()
        link = self._make(sim, bandwidth_bps=8e6, delay_s=0.0)
        arrivals = []
        link.receiver = lambda p: arrivals.append(sim.now)
        link.pause(0.5)
        sim.schedule(1.0, link.send, make_packet(size=1000))
        sim.run()
        assert arrivals and arrivals[0] == pytest.approx(1.001, rel=0.01)

    def test_flush_discards_queue(self):
        sim = Simulator()
        link = self._make(sim, bandwidth_bps=8000, delay_s=0.0)
        delivered = []
        link.receiver = lambda p: delivered.append(p)
        for _ in range(5):
            link.send(make_packet(size=1000))
        sim.schedule(0.5, link.flush)
        sim.run()
        assert len(delivered) == 0
        assert link.queued_bytes == 0

    def test_random_loss_rate(self):
        sim = Simulator()
        link = self._make(sim, loss_rate=0.5, queue_limit_bytes=10**9)
        delivered = []
        link.receiver = lambda p: delivered.append(p)
        for _ in range(1000):
            link.send(make_packet(size=100))
        sim.run()
        assert 350 < len(delivered) < 650

    def _drop_pattern(self, name, n=300, loss_rate=0.5):
        """Boolean delivery pattern of ``n`` sends over a lossy link."""
        sim = Simulator()
        link = SimplexLink(sim, name, bandwidth_bps=8e6, delay_s=0.001,
                           loss_rate=loss_rate, queue_limit_bytes=10**9)
        delivered = set()
        link.receiver = lambda p: delivered.add(p.packet_id)
        ids = []
        for _ in range(n):
            packet = make_packet(size=100)
            ids.append(packet.packet_id)
            link.send(packet)
        sim.run()
        return tuple(pid in delivered for pid in ids)

    def test_loss_decorrelated_across_links(self):
        # Every link used to default to random.Random(0): two lossy
        # links dropped the *same* packet indices in lockstep.  Seeds
        # are now derived from the link name.
        a = self._drop_pattern("radio-a")
        b = self._drop_pattern("radio-b")
        assert a != b
        # ... while staying individually plausible at loss_rate=0.5.
        assert 0.3 < sum(a) / len(a) < 0.7
        assert 0.3 < sum(b) / len(b) < 0.7

    def test_loss_reproducible_for_same_name(self):
        # Name-derived seeding keeps identically-seeded runs identical:
        # the same link name must reproduce the same drop pattern.
        assert self._drop_pattern("radio-a") == self._drop_pattern("radio-a")

    def test_explicit_rng_still_honored(self):
        import random
        sim = Simulator()
        link = SimplexLink(sim, "custom", bandwidth_bps=8e6, delay_s=0.001,
                           loss_rate=0.5, rng=random.Random(123))
        reference = random.Random(123)
        assert link.rng.random() == reference.random()

    def test_generator_is_seeded_at_first_draw_with_the_name_seed(self):
        import random
        import zlib
        sim = Simulator()
        lossless = self._make(sim)
        lossless.receiver = lambda p: None
        for _ in range(5):
            lossless.send(make_packet(size=100))
        sim.run()
        assert lossless._rng is None            # never drew, never seeded
        lossy = SimplexLink(sim, "radio-a", bandwidth_bps=8e6,
                            delay_s=0.001, loss_rate=0.5)
        assert lossy._rng is None
        expected = random.Random(zlib.crc32(b"radio-a")).random()
        assert lossy.rng.random() == expected
        assert lossy.rng is lossy.rng

    def test_duplex_halves_draw_from_their_own_names(self):
        # Pinned because lossy digests hang on it: a ``Link``'s ``rng``
        # argument has never reached its halves (ROADMAP), each is seeded
        # by its own half name, and policing stays on.
        import random
        import zlib
        from repro.net import Host, Link
        sim = Simulator()
        link = Link(sim, "wan", Host(sim, "a", address="10.0.0.1"),
                    Host(sim, "b", address="10.0.1.1"), bandwidth_bps=8e6,
                    delay_s=0.001, loss_rate=0.1, rng=random.Random(5))
        for half, name in ((link.a_to_b, b"wan:a->b"),
                           (link.b_to_a, b"wan:b->a")):
            assert half.police is True
            assert half.rng.random() \
                == random.Random(zlib.crc32(name)).random()

    def test_policing_drops_nonconforming(self):
        sim = Simulator()
        bucket = TokenBucket(rate_bps=8000, burst_bytes=1000)
        link = self._make(sim, shaper=bucket, police=True)
        assert link.send(make_packet(size=1000))
        assert not link.send(make_packet(size=1000))
        assert link.stats.dropped_police == 1

    def test_shaping_queues_nonconforming(self):
        sim = Simulator()
        bucket = TokenBucket(rate_bps=8000, burst_bytes=1000)
        link = self._make(sim, bandwidth_bps=8e9, delay_s=0.0,
                          shaper=bucket, police=False)
        arrivals = []
        link.receiver = lambda p: arrivals.append(sim.now)
        link.send(make_packet(size=1000))
        link.send(make_packet(size=1000))
        sim.run()
        assert arrivals[0] == pytest.approx(0.0, abs=1e-3)
        assert arrivals[1] == pytest.approx(1.0, abs=1e-2)

    def test_set_bandwidth_affects_new_packets(self):
        sim = Simulator()
        link = self._make(sim, bandwidth_bps=8000, delay_s=0.0)
        arrivals = []
        link.receiver = lambda p: arrivals.append(sim.now)
        link.set_bandwidth(16000)
        link.send(make_packet(size=1000))
        sim.run()
        assert arrivals == [pytest.approx(0.5)]

    def test_invalid_parameters(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            self._make(sim, bandwidth_bps=0)
        with pytest.raises(ValueError):
            self._make(sim, loss_rate=1.5)


class TestAddressPool:
    def test_allocates_under_prefix(self):
        pool = AddressPool("10.1.2")
        addr = pool.allocate()
        assert addr.startswith("10.1.2.")
        assert pool.owns(addr)

    def test_allocations_are_unique(self):
        pool = AddressPool("10.1.2")
        addrs = {pool.allocate() for _ in range(50)}
        assert len(addrs) == 50

    def test_release_allows_reuse(self):
        pool = AddressPool("10.1.2", first_host=2, last_host=2)
        addr = pool.allocate()
        with pytest.raises(RuntimeError):
            pool.allocate()
        pool.release(addr)
        assert pool.allocate() == addr

    def test_release_unknown_is_noop(self):
        pool = AddressPool("10.1.2")
        pool.release("10.1.2.200")  # never allocated

    def test_invalid_prefix_rejected(self):
        with pytest.raises(ValueError):
            AddressPool("10.1.2.3")
        with pytest.raises(ValueError):
            AddressPool("10.300.1")

    def test_same_prefix_helper(self):
        assert same_prefix("10.1.2.3", "10.1.2.9")
        assert not same_prefix("10.1.2.3", "10.1.3.3")

    def test_allocated_count(self):
        pool = AddressPool("10.1.2")
        pool.allocate()
        pool.allocate()
        assert pool.allocated_count == 2
