"""The incremental SACK scoreboard against the full scans it replaced.

``tcp.py`` keeps the receiver's merged SACK blocks and the sender's
pipe / retransmit / loss bookkeeping incrementally, so per-packet cost
does not grow with the window.  The sort-and-merge and scan-everything
versions live on here as the references: every test drives the real
``TcpConnection`` and holds it equal to them after *every* packet.
Equivalence and counted work only - nothing here reads a clock.
"""

import random
import sys

import pytest

from repro.net import Host, Link, Packet, Simulator, TcpConnection, TcpListener
from repro.net.mptcp import DssMapping
from repro.net.packet import PROTO_TCP
from repro.net.tcp import ACK, DEFAULT_MSS as MSS, DUPACK_THRESHOLD, Segment


# ---------------------------------------------------------------------------
# References: the code the scoreboard replaced
# ---------------------------------------------------------------------------

def reference_sack_ranges(reorder: dict) -> tuple:
    """Sort every held segment, merge what overlaps or touches."""
    if not reorder:
        return ()
    spans = sorted((seq, seq + length)
                   for seq, (length, _, _) in reorder.items())
    merged = [list(spans[0])]
    for start, end in spans[1:]:
        if start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return tuple((start, end - start) for start, end in merged)


class ReferenceReceiver:
    """The receive path with no block index: scan the whole buffer for
    a segment covering ``rcv_nxt`` until there is none, then sweep out
    what fell below it."""

    def __init__(self):
        self.rcv_nxt = 0
        self.reorder: dict = {}
        self.delivered: list = []

    def _deliver(self, seq: int, length: int, meta) -> None:
        trim = self.rcv_nxt - seq
        self.delivered.append((length - trim,
                               meta.advance(trim) if trim else meta))
        self.rcv_nxt = seq + length

    def receive(self, seq: int, length: int, meta) -> None:
        if seq + length <= self.rcv_nxt:
            return
        if seq > self.rcv_nxt:
            self.reorder[seq] = (length, meta, False)
            return
        self._deliver(seq, length, meta)
        while True:
            match = next((s for s, (span, _, _) in self.reorder.items()
                          if s <= self.rcv_nxt < s + span), None)
            if match is None:
                break
            span, held_meta, _ = self.reorder.pop(match)
            self._deliver(match, span, held_meta)
        for stale in [s for s, (span, _, _) in self.reorder.items()
                      if s + span <= self.rcv_nxt]:
            del self.reorder[stale]


def reference_sacked(chunks, ranges) -> set:
    """Two-pointer walk of the whole chunk list against the ranges: the
    seqs of every chunk lying wholly inside one."""
    inside = set()
    if not ranges:
        return inside
    index = 0
    start, length = ranges[0]
    end = start + length
    for chunk in chunks:
        while chunk.seq >= end:
            index += 1
            if index >= len(ranges):
                return inside
            start, length = ranges[index]
            end = start + length
        if start <= chunk.seq and chunk.end <= end:
            inside.add(chunk.seq)
    return inside


def reference_loss_cutoff(conn) -> int:
    """Highest SACKed end by scanning back from the tail, minus the
    dup-ACK threshold; 0 when nothing outstanding is SACKed."""
    for chunk in reversed(conn._sent_chunks):
        if chunk.sacked:
            return chunk.end - DUPACK_THRESHOLD * conn.mss
    return 0


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

def lone_endpoint() -> TcpConnection:
    """An established connection on a host with no link: packets are
    handed to it directly and whatever it sends goes nowhere."""
    host = Host(Simulator(), "rx", address="10.0.0.2")
    conn = TcpConnection(host, "10.0.0.1", 80, local_port=5000)
    conn.state = "ESTABLISHED"
    return conn


def feed(conn: TcpConnection, seq: int, length: int, flags: int = 0,
         sack: tuple = ()) -> None:
    segment = Segment(80, conn.local_port, seq, 0, flags,
                      payload_len=length, meta=DssMapping(seq), sack=sack)
    conn.handle_packet(Packet(src="10.0.0.1", dst="10.0.0.2",
                              protocol=PROTO_TCP, size=40 + length,
                              payload=segment))


def arrivals(rng: random.Random, total: int = 40_000) -> list:
    """(seq, length) arrivals covering ``[0, total)``: a base cut into
    segments and delivered in a locally shuffled order, plus duplicates,
    same-seq re-arrivals of another length, and unaligned overlaps."""
    base = []
    seq = 0
    while seq < total:
        length = min(rng.choice((100, 700, 1400, 1400, 1400)), total - seq)
        base.append((seq, length))
        seq += length
    # Shuffle within a sliding window so holes open, merge and fill.
    order = sorted(base, key=lambda s: s[0] + rng.uniform(0, 12_000))
    out = []
    for seq, length in order:
        out.append((seq, length))
        roll = rng.random()
        if roll < 0.15:                     # exact duplicate, maybe late
            out.insert(rng.randrange(len(out) + 1), (seq, length))
        elif roll < 0.30:                   # same seq, shorter or longer
            other = length + rng.choice((-90, -1, 60, 900))
            out.insert(rng.randrange(len(out) + 1),
                       (seq, min(max(1, other), total - seq)))
        elif roll < 0.45:                   # unaligned span over neighbours
            start = min(max(0, seq + rng.randrange(-2_000, 2_000)),
                        total - 1)
            out.append((start, min(rng.randrange(1, 3_000), total - start)))
    return out


# ---------------------------------------------------------------------------
# (a) receiver: blocks == sort-and-merge, delivery exact-once in order
# ---------------------------------------------------------------------------

class TestReceiverBlocks:
    @pytest.mark.parametrize("seed", range(8))
    def test_blocks_and_delivery_match_reference_after_every_packet(
            self, seed):
        rng = random.Random(seed)
        conn = lone_endpoint()
        got = []
        conn.on_data = lambda nbytes, meta: got.append((nbytes, meta))
        ref = ReferenceReceiver()
        saw_blocks = 0
        for seq, length in arrivals(rng):
            feed(conn, seq, length)
            ref.receive(seq, length, DssMapping(seq))
            assert conn._sack_ranges() == reference_sack_ranges(conn._reorder)
            assert list(conn._reorder.items()) == list(ref.reorder.items())
            assert conn.rcv_nxt == ref.rcv_nxt
            assert got == ref.delivered
            saw_blocks = max(saw_blocks, len(conn._sack_ranges()))
        assert saw_blocks >= 3              # the schedule did open holes
        # Exact-once, in order: each delivery starts where the last ended.
        position = 0
        for nbytes, meta in got:
            assert nbytes > 0 and meta.conn_seq == position
            position += nbytes
        assert position == conn.rcv_nxt >= 40_000
        assert not conn._reorder and conn._sack_ranges() == ()

    def test_shorter_same_seq_arrival_shrinks_and_splits_a_block(self):
        conn = lone_endpoint()
        feed(conn, 100, 50)
        feed(conn, 150, 10)
        assert conn._sack_ranges() == ((100, 60),)
        feed(conn, 100, 20)                 # overwrites the 50-byte one
        assert conn._sack_ranges() == ((100, 20), (150, 10)) \
            == reference_sack_ranges(conn._reorder)
        feed(conn, 100, 80)                 # longer again: bridges both
        assert conn._sack_ranges() == ((100, 80),) \
            == reference_sack_ranges(conn._reorder)

    def test_in_order_segment_past_a_block_drops_it_whole(self):
        conn = lone_endpoint()
        feed(conn, 200, 100)
        feed(conn, 1_000, 100)
        feed(conn, 0, 500)                  # covers the first block
        assert conn.rcv_nxt == 500
        assert conn._reorder == {1_000: (100, DssMapping(1_000), False)}
        assert conn._sack_ranges() == ((1_000, 100),)


# ---------------------------------------------------------------------------
# (b) sender: pipe, retransmit hint, SACK marks and loss marks stay exact
# ---------------------------------------------------------------------------

class TestSenderScoreboard:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_invariants_hold_after_every_packet_of_a_lossy_transfer(
            self, seed, monkeypatch):
        sim = Simulator()
        a = Host(sim, "a", address="10.0.0.1")
        b = Host(sim, "b", address="10.0.0.2")
        link = Link(sim, f"ab{seed}", a, b, bandwidth_bps=20e6, delay_s=0.02,
                    loss_rate=0.03)
        received = []

        def accept(conn):
            conn.on_data = lambda nbytes, meta: received.append(nbytes)

        TcpListener(b, 80, accept)
        client = TcpConnection(a, "10.0.0.2", 80)
        shadow_sacked: set = set()          # seqs the reference has SACKed
        checked = [0]
        original = TcpConnection.handle_packet

        def handle_and_check(conn, packet):
            original(conn, packet)
            if conn is not client:
                return
            checked[0] += 1
            chunks = conn._sent_chunks
            assert all(low.end == high.seq
                       for low, high in zip(chunks, chunks[1:]))
            pipe = conn._pipe
            assert pipe == conn._recompute_pipe()
            waiting = [c for c in chunks if c.lost and not c.retransmitted]
            assert conn._rtx_pending == len(waiting)
            segment = packet.payload
            if segment.flags & ACK:
                shadow_sacked.update(reference_sacked(chunks, segment.sack))
            outstanding = {c.seq for c in chunks}
            assert {c.seq for c in chunks if c.sacked} \
                == shadow_sacked & outstanding
            cutoff = reference_loss_cutoff(conn)
            assert not [c for c in chunks if c.end <= cutoff
                        and not (c.sacked or c.lost or c.retransmitted)]

        monkeypatch.setattr(TcpConnection, "handle_packet", handle_and_check)
        client.on_established = lambda: client.send(1_500_000)
        client.connect()
        sim.schedule(0.5, link.interrupt, 0.6)      # force an RTO as well
        sim.run(until=60.0)
        assert sum(received) == 1_500_000
        assert checked[0] > 500
        assert client.stats.fast_retransmits > 0 and client.stats.timeouts > 0
        assert not client._sent_chunks and client._rtx_pending == 0


# ---------------------------------------------------------------------------
# (c) counted scaling guards: work per ACK must not grow with the window
# ---------------------------------------------------------------------------

def _calls_during(action) -> int:
    """Python and C function calls made while ``action()`` runs."""
    calls = [0]

    def count(frame, event, arg):
        if event in ("call", "c_call"):
            calls[0] += 1

    sys.setprofile(count)
    try:
        action()
    finally:
        sys.setprofile(None)
    return calls[0]


class _CountingList(list):
    """A chunk list that counts every element the sender looks at."""

    visits = 0

    def __iter__(self):
        for item in list.__iter__(self):
            self.visits += 1
            yield item

    def __reversed__(self):
        for item in list.__reversed__(self):
            self.visits += 1
            yield item

    def __getitem__(self, index):
        if not isinstance(index, slice):
            self.visits += 1
        return list.__getitem__(self, index)


class TestWorkPerAckDoesNotGrowWithTheWindow:
    @staticmethod
    def _receiver_calls_per_ack(segments: int) -> float:
        """One hole at 0, then ``segments`` arrivals above it: every one
        is buffered and answered with a SACK-carrying ACK."""
        conn = lone_endpoint()

        def drive():
            for index in range(1, segments + 1):
                feed(conn, index * MSS, MSS)

        calls = _calls_during(drive)
        assert conn._sack_ranges() == ((MSS, segments * MSS),)
        return calls / segments

    def test_receiver(self):
        # The sort-and-merge it replaced grows ~8x here (one generator
        # step per held segment per ACK).
        small = self._receiver_calls_per_ack(256)
        large = self._receiver_calls_per_ack(2_048)
        assert large < 2 * small

    @staticmethod
    def _sender_visits_per_ack(segments: int) -> float:
        """``segments`` chunks in flight, the first one lost: each ACK
        SACKs one more chunk above the hole."""
        conn = lone_endpoint()
        conn.cwnd = conn.peer_window = segments * MSS
        conn.send(segments * MSS)
        assert len(conn._sent_chunks) == segments
        counted = _CountingList(conn._sent_chunks)
        conn._sent_chunks = counted
        for index in range(2, segments + 1):
            feed(conn, 0, 0, flags=ACK, sack=((MSS, (index - 1) * MSS),))
        assert all(chunk.sacked for chunk in counted[1:])
        assert counted[0].lost and counted[0].retransmitted
        assert conn.stats.fast_retransmits == 1
        return counted.visits / (segments - 1)

    def test_sender(self):
        # The full scans it replaced visit every chunk per ACK: ~8x.
        small = self._sender_visits_per_ack(256)
        large = self._sender_visits_per_ack(2_048)
        assert large < 2 * small
