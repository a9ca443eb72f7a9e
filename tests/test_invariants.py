"""Stateful property-based tests on core data structures (hypothesis).

Each machine drives a component through random operation sequences and
checks the invariants the rest of the system leans on.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.net import AddressPool, TokenBucket
from repro.net.endpoint import Reassembly


class AddressPoolMachine(RuleBasedStateMachine):
    """Allocate/release in any order: no double allocation, no leaks."""

    def __init__(self):
        super().__init__()
        self.pool = AddressPool("10.77.0", first_host=2, last_host=30)
        self.held: set = set()

    @rule()
    def allocate(self):
        try:
            address = self.pool.allocate()
        except RuntimeError:
            assert len(self.held) == 29  # pool genuinely exhausted
            return
        assert address not in self.held
        assert self.pool.owns(address)
        self.held.add(address)

    @precondition(lambda self: self.held)
    @rule(data=st.data())
    def release(self, data):
        address = data.draw(st.sampled_from(sorted(self.held)))
        self.pool.release(address)
        self.held.remove(address)

    @invariant()
    def accounting_consistent(self):
        assert self.pool.allocated_count == len(self.held)


TestAddressPool = AddressPoolMachine.TestCase
TestAddressPool.settings = settings(max_examples=25,
                                    stateful_step_count=40,
                                    deadline=None)


class ReceiverEquivalenceMachine(RuleBasedStateMachine):
    """The MPTCP / QUIC stream reassembly against a reference model.

    Random (offset, length) ranges — duplicated, overlapping, out of
    order — must deliver exactly the union of contiguous-from-zero bytes,
    exactly once.
    """

    def __init__(self):
        super().__init__()
        self.receiver = Reassembly()
        self.covered: set = set()
        self.delivered = 0

    @rule(offset=st.integers(min_value=0, max_value=400),
          length=st.integers(min_value=1, max_value=120))
    def receive(self, offset, length):
        self.covered.update(range(offset, offset + length))
        self.delivered += self.receiver.receive(offset, length)

    @invariant()
    def delivery_matches_reference(self):
        expected = 0
        while expected in self.covered:
            expected += 1
        assert self.delivered == expected
        assert self.receiver.delivered == expected


TestReceiverEquivalence = ReceiverEquivalenceMachine.TestCase
TestReceiverEquivalence.settings = settings(max_examples=30,
                                            stateful_step_count=30,
                                            deadline=None)


class TestTokenBucketConformance:
    @given(rate=st.floats(min_value=1e4, max_value=1e7),
           burst=st.floats(min_value=1e3, max_value=1e5),
           sizes=st.lists(st.integers(min_value=100, max_value=1500),
                          min_size=5, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_long_run_rate_never_exceeded(self, rate, burst, sizes):
        """A greedy sender policed by the bucket cannot beat
        burst + rate * time over any horizon."""
        bucket = TokenBucket(rate, burst)
        now = 0.0
        sent = 0
        for size in sizes:
            wait = bucket.delay_until_conforming(size, now)
            now += wait
            bucket.consume(size, now)
            sent += size
            assert sent <= burst + rate / 8.0 * now + 1e-6

    @given(rate=st.floats(min_value=1e4, max_value=1e7),
           burst=st.floats(min_value=1e3, max_value=1e5))
    @settings(max_examples=40, deadline=None)
    def test_conforming_delay_is_exact(self, rate, burst):
        """After waiting exactly the conforming delay, the packet fits."""
        bucket = TokenBucket(rate, burst)
        bucket.consume(int(burst), now=0.0)
        size = 1000
        delay = bucket.delay_until_conforming(size, now=0.0)
        assert bucket.delay_until_conforming(size, now=delay) < 1e-6
