"""The op stream between two shard hosts, under an adverse link.

Two :class:`ShardHost` s on one lossy link, no frontend: the receiver's
SAP is replaced by a recorder, so what these tests pin is only the
stream's own promise — every queued op reaches the receiver's ``apply``
exactly once and in order (journal), or the whole slice does whatever
the arrival pattern (closed stream) — under seeded loss, ack loss,
app-level duplicates and a restart with a batch in flight.  Plain
``random.Random(seed)``: tier-1 needs no ``hypothesis``.
"""

import itertools
import random

import pytest

from repro.core.shardhost import (
    STANDBY,
    HandoffBegin,
    OpBatch,
    OpBatchAck,
    ShardHost,
)
from repro.crypto.keypool import pooled_keypair
from repro.net import Host, Link, Simulator

RESET = ("reset",)


class Pair:
    """A primary and its standby on one link with ``loss`` each way."""

    def __init__(self, seed, loss, duplicates=1 / 3):
        self.duplicates = duplicates
        self.rng = random.Random(seed)
        self.sim = sim = Simulator()
        key = pooled_keypair(0)
        hosts = [Host(sim, "a", address="52.21.0.1"),
                 Host(sim, "b", address="52.22.0.1")]
        self.link = Link(sim, f"pair{seed}", hosts[0], hosts[1], 1e9, 0.002,
                         loss_rate=loss)
        for host, peer in (hosts, hosts[::-1]):
            host.add_route(peer.address.rsplit(".", 1)[0], self.link)
        # A closed stream is addressed to the frontend: here, the peer.
        self.sender = ShardHost(
            hosts[0], 0, "b.test", key, key.public_key,
            frontend_ip=hosts[1].address, peer_ip=hosts[1].address)
        self.receiver = ShardHost(
            hosts[1], 0, "b.test", key, key.public_key,
            frontend_ip=hosts[0].address, peer_ip=hosts[0].address,
            is_replica=True)
        self.applied = []
        self.receiver.sap.apply = self.applied.append
        self.batches = []
        self.acks = []
        self.receiver.on(OpBatch, self._deliver)
        self.sender.on(OpBatchAck, self._ack)

    def _deliver(self, src_ip, batch):
        """Record the batch and, one time in three, deliver it again
        later: an app-level duplicate the transport cannot dedup."""
        self.batches.append(batch)
        if self.rng.random() < self.duplicates:
            self.sim.schedule(self.rng.uniform(0.0, 1.0),
                              self.receiver._handle_op_batch, src_ip, batch)
        self.receiver._handle_op_batch(src_ip, batch)

    def _ack(self, src_ip, ack):
        self.acks.append(ack)
        self.sender._handle_op_ack(src_ip, ack)

    def handoff(self, handoff_id, ops):
        self.sender.sap.export = lambda owners: list(ops)
        self.sender._handle_handoff_begin(
            self.receiver.host.address,
            HandoffBegin(handoff_id=handoff_id, target_shard=0,
                         moving_ids=("sub",)))


def journal_with_a_restart(seed, on_send=None):
    """40 journal ops over 6 s on a 20 % lossy link that goes dark just
    before the stream restarts with a batch in flight.  ``on_send(batch,
    now)`` sees every op batch the sender transmits, retransmissions
    too."""
    pair = Pair(seed, loss=0.2)
    sim, rng, stream = pair.sim, pair.rng, pair.sender._streams[STANDBY]
    queued, snapshot = [], []
    if on_send is not None:
        transmit = pair.sender._transmit_request

        def recording(correlation_id, pending):
            on_send(pending.message, sim.now)
            transmit(correlation_id, pending)

        pair.sender._transmit_request = recording

    def queue():
        queued.append(("op", len(queued)))
        pair.sender._queue_op(queued[-1])

    def restart():
        # Mid-flight: the link was dark, so the last batch is unacked.
        assert stream.inflight is not None
        snapshot.extend(queued)
        stream.restart([RESET] + snapshot)

    restart_at = rng.uniform(2.0, 4.0)
    for _ in range(40):
        sim.schedule(rng.uniform(0.0, 6.0), queue)
    sim.schedule(restart_at - 0.08, queue)
    sim.schedule(restart_at - 0.1, pair.link.set_up, False)
    sim.schedule(restart_at, restart)
    sim.schedule(restart_at + 0.05, pair.link.set_up, True)
    sim.run(until=30.0)
    return pair, stream, queued, snapshot


@pytest.mark.parametrize("seed", range(12))
def test_journal_applies_each_op_once_in_order_across_a_restart(seed):
    pair, stream, queued, snapshot = journal_with_a_restart(seed)
    assert not stream.stopped and pair.sender.repl_backlog_ops == 0
    applied = pair.applied
    cut = len(applied) - 1 - applied[::-1].index(RESET)
    # Before the restart: a prefix of what was queued, nothing twice.
    assert applied[:cut] == queued[:cut]
    assert cut <= len(snapshot)
    # From the reset on: the snapshot, then every later op, once each,
    # and never a batch cut before the restart.
    assert applied[cut:] == [RESET] + queued
    assert pair.receiver._applied == {STANDBY: (1, stream.seq)}
    assert pair.receiver.repl_ops_applied == len(applied)
    # The restarted generation is acked (every ack before the restart may
    # be lost).  An old-generation ack can still arrive after it: an
    # app-level duplicate of an old batch is re-acked.  But each such ack
    # is for a batch delivered before the receiver moved to the new
    # generation, never a new one.
    first = [ack.restart for ack in pair.acks].index(1)
    before = {batch.ack() for batch in
              itertools.takewhile(lambda b: b.restart == 0, pair.batches)}
    assert {ack for ack in pair.acks[first:] if ack.restart == 0} <= before
    # Duplicates and retransmissions did reach the receiver.
    assert len(pair.batches) > stream.seq


@pytest.mark.parametrize("seed", range(12))
def test_restart_cancels_the_request_in_flight(seed):
    """The batch in flight at the restart carries the old restart count,
    so each retransmission of it could only make the receiver replay an
    ack the stream ignores: once restarted, the sender sends only the
    new generation."""
    sent = []
    pair, _, _, _ = journal_with_a_restart(
        seed, lambda batch, now: sent.append((batch.restart, now)))
    restarted_at = min(at for restart, at in sent if restart == 1)
    assert [at for restart, at in sent
            if restart == 0 and at >= restarted_at] == []
    assert pair.sender.requests_cancelled == 1


@pytest.mark.parametrize("seed", range(12))
def test_closed_stream_delivers_the_slice_whatever_the_arrival_pattern(
        seed):
    pair = Pair(seed, loss=0.3)
    ops = [("op", index) for index in range(pair.rng.randint(1, 40))]
    pair.handoff(7, ops)
    pair.sim.run(until=120.0)
    assert pair.applied == ops
    stream = pair.sender._streams[7]
    assert stream.finished and stream.inflight is None
    assert stream.seq == -(-len(ops) // 8)          # 8 ops per batch
    assert [ack.seq for ack in pair.acks if ack.last][:1] == [stream.seq]
    assert pair.receiver._applied == {7: (0, stream.seq)}
    # Export slices are not journal ops of the standby's stream.
    assert pair.receiver.repl_ops_applied == 0


def test_closed_stream_joined_midway_applies_what_it_sees():
    """A handoff target that fails over mid-stream: its promoted standby
    first sees seq 3 and must apply and ack it, or the stream stalls."""
    pair = Pair(0, loss=0.0, duplicates=0.0)
    ops = [("op", index) for index in range(30)]
    pair.handoff(7, ops)
    pair.sim.run(until=0.010)                       # two batches in
    assert pair.receiver._applied == {7: (0, 2)}
    pair.receiver._applied.clear()                  # ...a new receiver
    pair.sim.run(until=5.0)
    assert pair.applied == ops
    assert pair.sender._streams[7].finished


def test_empty_slice_still_completes_with_last():
    pair = Pair(3, loss=0.3)
    pair.handoff(9, [])
    pair.sim.run(until=60.0)
    assert pair.applied == []
    assert {(batch.seq, batch.ops, batch.last)
            for batch in pair.batches} == {(1, (), True)}
    assert any(ack.last for ack in pair.acks)
    stream = pair.sender._streams[9]
    assert stream.finished and stream.inflight is None


def test_receiver_keeps_one_entry_per_stream_and_a_crash_clears_it():
    pair = Pair(1, loss=0.1)
    for index in range(20):
        pair.sim.schedule(0.1 * index, pair.sender._queue_op, ("op", index))
    pair.sim.schedule(0.5, pair.handoff, 1, [("a", n) for n in range(20)])
    pair.sim.schedule(1.0, pair.handoff, 2, [("b", n) for n in range(3)])
    pair.sim.run(until=60.0)
    assert len(pair.applied) == 43
    assert set(pair.receiver._applied) == {STANDBY, 1, 2}
    assert len(pair.batches) > len(pair.receiver._applied)
    pair.receiver.crash()
    assert pair.receiver._applied == {}
    assert pair.receiver._applied_seq == 0
    pair.sender.crash()
    assert set(pair.sender._streams) == {STANDBY}
    assert pair.sender._streams[STANDBY].stopped
