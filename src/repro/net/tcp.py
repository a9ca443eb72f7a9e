"""A packet-level TCP (Reno with SACK-based loss recovery) implementation.

This models the pieces of TCP whose *dynamics* the CellBricks evaluation
depends on (§6.2): the three-way handshake a new MPTCP subflow pays after a
bTelco switch, slow-start ramp-up (the source of the post-handover
throughput spike in Fig 8/9), congestion avoidance, SACK-based fast
recovery (what deployed Linux stacks — the paper's v4.19 kernel — actually
run), and exponentially backed-off retransmission timeouts (what stalls
the *baseline* TCP flow when the radio blanks during a handover).

Data is modeled as byte *counts*, not byte contents — applications frame
their own messages on top — but sequence-number bookkeeping, cumulative +
selective ACKs, out-of-order reassembly, and per-segment metadata (used by
MPTCP's DSS mapping) are all real.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Optional

from .node import Host
from .packet import (
    IP_HEADER,
    PROTO_TCP,
    TCP_HEADER,
    TCP_TIMESTAMP_OPTION,
    FlowKey,
    Packet,
)
from .sim import Simulator, Timer

DEFAULT_MSS = 1400
HEADER_OVERHEAD = IP_HEADER + TCP_HEADER + TCP_TIMESTAMP_OPTION

# Flags
SYN = 0x02
ACK = 0x10
FIN = 0x01
RST = 0x04

MIN_RTO = 0.2     # Linux-style 200 ms floor
MAX_RTO = 60.0
INITIAL_RTO = 1.0
DUPACK_THRESHOLD = 3
INITIAL_CWND_SEGMENTS = 10  # RFC 6928 IW10, as deployed Linux kernels use


@dataclass(slots=True)
class Segment:
    """A TCP segment (header fields + payload byte count)."""

    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: int
    payload_len: int = 0
    meta: object = None          # MPTCP DSS mapping / MP option / app tag
    sack: tuple = ()             # ((seq, len), ...) selective-ack ranges
    sent_at: float = 0.0

    @property
    def is_syn(self) -> bool:
        return bool(self.flags & SYN)

    @property
    def is_fin(self) -> bool:
        return bool(self.flags & FIN)

    @property
    def is_rst(self) -> bool:
        return bool(self.flags & RST)


@dataclass(slots=True)
class _SentChunk:
    seq: int
    length: int
    sent_at: float
    end: int = 0                 # seq + length, precomputed (hot path)
    retransmitted: bool = False
    sacked: bool = False
    lost: bool = False
    meta: object = None
    is_fin: bool = False

    def __post_init__(self):
        self.end = self.seq + self.length


_chunk_end = attrgetter("end")


@dataclass(slots=True)
class TcpStats:
    """Per-connection counters surfaced to benchmarks and tests."""

    bytes_sent: int = 0
    bytes_acked: int = 0
    bytes_received: int = 0
    segments_sent: int = 0
    segments_received: int = 0
    retransmissions: int = 0
    timeouts: int = 0
    fast_retransmits: int = 0
    rtt_samples: int = 0
    srtt: float = 0.0


class TcpConnection:
    """One direction-agnostic TCP endpoint.

    Lifecycle::

        conn = TcpConnection(host, remote_ip, remote_port)
        conn.on_established = ...
        conn.connect()          # active open (3WHS)
        conn.send(100_000)      # queue bytes
        conn.close()            # FIN after the queue drains

    Passive opens are created by :class:`TcpListener`.  ``on_data`` fires
    with ``(nbytes, meta)`` for each in-order segment delivered.
    """

    def __init__(self, host: Host, remote_ip: str, remote_port: int,
                 local_port: int = 0, mss: int = DEFAULT_MSS,
                 receive_window: int = 1024 * 1024):
        self.sim: Simulator = host.sim
        self.host = host
        self.local_ip = host.address
        self.local_port = local_port or host.allocate_port()
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.mss = mss
        self.receive_window = receive_window

        self.state = "CLOSED"
        self.stats = TcpStats()

        # Sender state
        self.snd_una = 0
        self.snd_nxt = 0
        self.cwnd = INITIAL_CWND_SEGMENTS * mss
        self.ssthresh = receive_window
        self.peer_window = receive_window
        self.in_recovery = False
        self.recover = 0
        self.rto = INITIAL_RTO
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self._send_queue: deque[tuple[int, object]] = deque()  # (remaining, meta)
        self._queued_bytes = 0
        self._sent_chunks: list[_SentChunk] = []
        self._pipe = 0  # incrementally-maintained bytes_in_flight
        #: chunks that are ``lost and not retransmitted`` - what the
        #: retransmit scan in ``_try_transmit`` exists to find.
        self._rtx_pending = 0
        #: SACK scoreboard: ``{seq: len}`` of the ranges the last SACK
        #: applied in full, the highest ``end`` ever SACKed, and how many
        #: leading chunks loss detection has already settled.
        self._sack_applied: dict[int, int] = {}
        self._highest_sacked = 0
        self._loss_settled = 0
        self._fin_queued = False
        self._fin_sent = False
        self._rtx_timer = Timer(self.sim, self._on_rto)

        # Receiver state
        self.rcv_nxt = 0
        self._reorder: dict[int, tuple[int, object, bool]] = {}
        #: the merge of everything in ``_reorder``: sorted ``(seq, len)``
        #: blocks that neither overlap nor touch, kept in wire format.
        self._sack_blocks: list[tuple[int, int]] = []
        self._peer_fin_seq: Optional[int] = None

        # Callbacks
        self.on_established: Optional[Callable[[], None]] = None
        self.on_data: Optional[Callable[[int, object], None]] = None
        self.on_close: Optional[Callable[[], None]] = None
        self.on_fail: Optional[Callable[[str], None]] = None
        self.on_chunks_acked: Optional[Callable[[list], None]] = None

        self._flow_key: Optional[FlowKey] = None
        # Optional MPTCP option object carried on our SYN (MP_CAPABLE /
        # MP_JOIN); TcpListener copies the peer's onto accepted connections.
        self.syn_meta: object = None
        self.syn_retries = 0
        self.max_syn_retries = 6
        self.connect_started_at: Optional[float] = None
        self.established_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def connect(self) -> None:
        """Active open: send a SYN and register the flow."""
        if self.state != "CLOSED":
            raise RuntimeError(f"connect() in state {self.state}")
        self.local_ip = self.host.address
        self._register()
        self.state = "SYN_SENT"
        self.connect_started_at = self.sim.now
        self._send_control(SYN, seq=self.snd_nxt)
        self.snd_nxt += 1  # SYN consumes a sequence number
        self._rtx_timer.start(self.rto)

    def _accept_from(self, packet: Packet, segment: Segment) -> None:
        """Passive open (invoked by TcpListener on an incoming SYN)."""
        self.remote_ip = packet.src
        self.remote_port = segment.src_port
        self.local_ip = self.host.address
        self._register()
        self.state = "SYN_RCVD"
        self.rcv_nxt = segment.seq + 1
        self._send_control(SYN | ACK, seq=self.snd_nxt)
        self.snd_nxt += 1
        self._rtx_timer.start(self.rto)

    def _register(self) -> None:
        self._flow_key = FlowKey(self.local_ip, self.local_port,
                                 self.remote_ip, self.remote_port)
        self.host.register_flow(self._flow_key, self)

    def _unregister(self) -> None:
        if self._flow_key is not None:
            self.host.unregister_flow(self._flow_key)
            self._flow_key = None

    def abort(self, reason: str = "aborted") -> None:
        """Tear the connection down immediately (no FIN exchange)."""
        self._rtx_timer.stop()
        self._unregister()
        if self.state not in ("CLOSED", "DONE"):
            self.state = "DONE"
            if self.on_fail is not None:
                self.on_fail(reason)

    def close(self) -> None:
        """Graceful close: FIN once all queued data has been sent."""
        if self.state in ("CLOSED", "DONE", "FIN_WAIT", "CLOSING"):
            return
        self._fin_queued = True
        self._try_transmit()

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, nbytes: int, meta: object = None) -> None:
        """Queue ``nbytes`` of application data for transmission."""
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        if self._fin_queued:
            raise RuntimeError("cannot send after close()")
        self._send_queue.append((nbytes, meta))
        self._queued_bytes += nbytes
        if self.state == "ESTABLISHED":
            self._try_transmit()

    @property
    def bytes_in_flight(self) -> int:
        """SACK 'pipe': bytes believed to be in the network."""
        return self._pipe

    @staticmethod
    def _counted(chunk: _SentChunk) -> bool:
        """Whether a chunk contributes to the pipe estimate."""
        return not chunk.sacked and (not chunk.lost or chunk.retransmitted)

    def _recompute_pipe(self) -> int:
        """O(n) pipe recomputation (RTO path and test invariants)."""
        self._pipe = sum(c.length for c in self._sent_chunks
                         if self._counted(c))
        return self._pipe

    @property
    def queued_bytes(self) -> int:
        return self._queued_bytes

    def take_unsent_ranges(self) -> list[tuple[int, object]]:
        """Drain and return the not-yet-transmitted queue.

        MPTCP calls this when abandoning a dead subflow so queued data can
        be re-injected on the replacement subflow.
        """
        queue = list(self._send_queue)
        self._send_queue.clear()
        self._queued_bytes = 0
        return queue

    def unacked_chunks(self) -> list:
        """Snapshot of sent-but-unacknowledged chunks (for re-injection)."""
        return [c for c in self._sent_chunks if not c.is_fin]

    def _window(self) -> int:
        return min(self.cwnd, self.peer_window)

    def _try_transmit(self) -> None:
        if self.state != "ESTABLISHED":
            return
        budget = self._window() - self.bytes_in_flight
        # Retransmissions of known-lost chunks take priority.
        if self._rtx_pending:
            for chunk in self._sent_chunks:
                if budget < chunk.length:
                    break
                if chunk.lost and not chunk.retransmitted:
                    self._retransmit_chunk(chunk)
                    budget -= chunk.length
                    if not self._rtx_pending:
                        break
        while self._send_queue and budget >= min(self.mss,
                                                 self._send_queue[0][0]):
            remaining, meta = self._send_queue[0]
            length = min(self.mss, remaining, budget)
            if length <= 0:
                break
            self._emit_data(self.snd_nxt, length, meta, chunk=None)
            self.snd_nxt += length
            budget -= length
            if length == remaining:
                self._send_queue.popleft()
            else:
                # Splitting a queued range: metas that carry a stream offset
                # (MPTCP DSS mappings) advance past the part just sent.
                rest_meta = meta.advance(length) if hasattr(meta, "advance") \
                    else meta
                self._send_queue[0] = (remaining - length, rest_meta)
            self._queued_bytes -= length
        if self._fin_queued and not self._fin_sent and not self._send_queue:
            self._emit_fin()

    def _emit_data(self, seq: int, length: int, meta: object,
                   chunk: Optional[_SentChunk]) -> None:
        segment = Segment(self.local_port, self.remote_port, seq,
                          self.rcv_nxt, ACK, payload_len=length, meta=meta,
                          sent_at=self.sim.now)
        packet = Packet(src=self.local_ip, dst=self.remote_ip,
                        protocol=PROTO_TCP, size=HEADER_OVERHEAD + length,
                        payload=segment)
        self.host.send_packet(packet)
        self.stats.segments_sent += 1
        self.stats.bytes_sent += length
        if chunk is None:
            self._sent_chunks.append(
                _SentChunk(seq, length, self.sim.now, meta=meta))
            self._pipe += length
        if not self._rtx_timer.armed:
            self._rtx_timer.start(self.rto)

    def _retransmit_chunk(self, chunk: _SentChunk) -> None:
        if chunk.lost and not chunk.retransmitted and not chunk.sacked:
            self._pipe += chunk.length
            self._rtx_pending -= 1
        chunk.retransmitted = True
        chunk.sent_at = self.sim.now
        self.stats.retransmissions += 1
        if chunk.is_fin:
            self._send_control(FIN | ACK, seq=chunk.seq)
        else:
            self._emit_data(chunk.seq, chunk.length, chunk.meta, chunk=chunk)

    def _emit_fin(self) -> None:
        self._fin_sent = True
        self.state = "FIN_WAIT"
        self._send_control(FIN | ACK, seq=self.snd_nxt)
        self._sent_chunks.append(_SentChunk(self.snd_nxt, 1, self.sim.now,
                                            is_fin=True))
        self._pipe += 1
        self.snd_nxt += 1
        if not self._rtx_timer.armed:
            self._rtx_timer.start(self.rto)

    def _send_control(self, flags: int, seq: int) -> None:
        meta = self.syn_meta if flags & SYN else None
        segment = Segment(self.local_port, self.remote_port, seq,
                          self.rcv_nxt, flags, meta=meta,
                          sent_at=self.sim.now)
        packet = Packet(src=self.local_ip, dst=self.remote_ip,
                        protocol=PROTO_TCP, size=HEADER_OVERHEAD,
                        payload=segment)
        self.host.send_packet(packet)
        self.stats.segments_sent += 1

    def _send_ack(self) -> None:
        segment = Segment(self.local_port, self.remote_port, self.snd_nxt,
                          self.rcv_nxt, ACK, sack=self._sack_ranges(),
                          sent_at=self.sim.now)
        packet = Packet(src=self.local_ip, dst=self.remote_ip,
                        protocol=PROTO_TCP, size=HEADER_OVERHEAD,
                        payload=segment)
        self.host.send_packet(packet)
        self.stats.segments_sent += 1

    def _sack_ranges(self) -> tuple:
        """Merged out-of-order ranges advertised to the peer."""
        return tuple(self._sack_blocks)

    def _sack_insert(self, start: int, end: int) -> None:
        """Merge ``[start, end)`` into the SACK blocks: O(log blocks) to
        find its place, plus the neighbours it overlaps or touches."""
        blocks = self._sack_blocks
        first = bisect_left(blocks, (start,))
        if first:
            below, length = blocks[first - 1]
            if below + length >= start:
                first -= 1
                start = below
                end = max(end, below + length)
        last = first
        while last < len(blocks):
            above, length = blocks[last]
            if above > end:
                break
            end = max(end, above + length)
            last += 1
        blocks[first:last] = ((start, end - start),)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def handle_packet(self, packet: Packet) -> None:
        segment: Segment = packet.payload
        self.stats.segments_received += 1
        if segment.is_rst:
            self.abort("reset by peer")
            return

        if self.state == "SYN_SENT":
            if segment.is_syn and segment.flags & ACK:
                self.rcv_nxt = segment.seq + 1
                self._establish()
                self._send_ack()
            return

        if self.state == "SYN_RCVD":
            if segment.is_syn:
                return  # duplicate SYN; our SYN-ACK rtx timer handles it
            if segment.flags & ACK and segment.ack >= self.snd_nxt:
                self._establish()
                # Fall through: the ACK may carry data.

        if self.state not in ("ESTABLISHED", "FIN_WAIT", "CLOSING"):
            return

        if segment.flags & ACK:
            self._process_ack(segment)
        if segment.payload_len > 0 or segment.is_fin:
            self._process_payload(segment)

    def _establish(self) -> None:
        self.state = "ESTABLISHED"
        self.established_at = self.sim.now
        self.snd_una = self.snd_nxt
        self._rtx_timer.stop()
        self._sent_chunks.clear()
        self._pipe = 0
        self._rtx_pending = 0
        self._loss_settled = 0
        self.rto = INITIAL_RTO
        if self.connect_started_at is not None and self.srtt is None:
            self._sample_rtt(self.sim.now - self.connect_started_at)
        if self.on_established is not None:
            self.on_established()
        self._try_transmit()

    # -- ACK processing ---------------------------------------------------
    def _process_ack(self, segment: Segment) -> None:
        ack = segment.ack
        newly_acked = 0
        acked_chunks: list[_SentChunk] = []
        if ack > self.snd_una:
            newly_acked = ack - self.snd_una
            self.snd_una = ack
            acked_chunks = self._pop_acked_chunks(ack)
            for chunk in acked_chunks:
                if not chunk.retransmitted and not chunk.sacked:
                    self._sample_rtt(self.sim.now - chunk.sent_at)
            self.stats.bytes_acked += sum(
                c.length for c in acked_chunks if not c.is_fin)

        # Apply SACK information.
        sacked_progress = self._apply_sack(segment.sack)

        # Loss detection (SACK-based, RFC 6675 style) - only new SACK
        # information can newly qualify a chunk as lost.
        newly_lost = self._detect_losses() if segment.sack else False
        if newly_lost and not self.in_recovery:
            self._enter_recovery()

        if newly_acked:
            if self.in_recovery:
                if ack >= self.recover:
                    self._exit_recovery()
            else:
                self._grow_cwnd(newly_acked)
            if self._sent_chunks:
                self._rtx_timer.start(self.rto)
            else:
                self._rtx_timer.stop()
            if self.on_chunks_acked is not None and acked_chunks:
                self.on_chunks_acked(acked_chunks)
            if any(c.is_fin for c in acked_chunks):
                self._on_fin_acked()

        if newly_acked or sacked_progress or newly_lost:
            self._try_transmit()

    def _pop_acked_chunks(self, ack: int) -> list:
        # _sent_chunks is seq-sorted, so a cumulative ACK covers a prefix.
        chunks = self._sent_chunks
        split = 0
        while split < len(chunks) and chunks[split].end <= ack:
            split += 1
        if split == 0:
            return []
        acked = chunks[:split]
        del chunks[:split]
        self._loss_settled = max(0, self._loss_settled - split)
        for chunk in acked:
            if self._counted(chunk):
                self._pipe -= chunk.length
            elif not chunk.sacked:
                self._rtx_pending -= 1
        return acked

    def _apply_sack(self, ranges: tuple) -> bool:
        """Mark chunks lying wholly inside a SACK range.

        ``sacked`` never clears and chunks sent later start at or above
        the ``snd_nxt`` of the time, so the part of a range the previous
        SACK already applied cannot hold an unmarked chunk: only ranges
        that are new or grew are walked, from the old edge on.  (They
        come out of a set; marking is order-independent.)
        """
        if not ranges:
            return False
        progress = False
        chunks = self._sent_chunks
        applied = self._sack_applied
        self._sack_applied = fresh = dict(ranges)
        for start, length in fresh.items() - applied.items():
            end = start + length
            if end > self.snd_nxt:
                del fresh[start]  # not ours to have sent yet: no memo
            edge = start + applied.get(start, 0)
            index = bisect_right(chunks, edge, key=_chunk_end)
            while index < len(chunks):
                chunk = chunks[index]
                if chunk.end > end:
                    break
                index += 1
                if chunk.sacked or chunk.seq < start:
                    continue
                if self._counted(chunk):
                    self._pipe -= chunk.length
                else:
                    self._rtx_pending -= 1
                chunk.sacked = True
                chunk.lost = False
                progress = True
                if chunk.end > self._highest_sacked:
                    self._highest_sacked = chunk.end
        return progress

    def _detect_losses(self) -> bool:
        """Mark chunks lost when DUPACK_THRESHOLD segments above them have
        been SACKed (simplified RFC 6675 rule).

        A chunk at or below the cutoff is settled for good once looked
        at: it is SACKed, or lost (marked here or by an RTO), and neither
        state returns to "fresh and unSACKed".  The cutoff only rises, so
        each call resumes where the last one stopped.
        """
        highest_sacked = self._highest_sacked
        if highest_sacked <= self.snd_una:
            return False  # no SACKed chunk is outstanding
        cutoff = highest_sacked - DUPACK_THRESHOLD * self.mss
        chunks = self._sent_chunks
        index = self._loss_settled
        newly = False
        while index < len(chunks):
            chunk = chunks[index]
            if chunk.end > cutoff:
                break  # seq-sorted: nothing further can qualify
            index += 1
            # Re-lost retransmissions are only re-marked after an RTO;
            # fresh transmissions are marked immediately.
            if not (chunk.sacked or chunk.lost or chunk.retransmitted):
                self._pipe -= chunk.length
                self._rtx_pending += 1
                chunk.lost = True
                newly = True
        self._loss_settled = index
        return newly

    def _grow_cwnd(self, acked_bytes: int) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd += min(acked_bytes, self.mss)  # slow start (ABC)
        else:
            self.cwnd += max(1, self.mss * self.mss // self.cwnd)
        self.cwnd = min(self.cwnd, self.receive_window)

    def _enter_recovery(self) -> None:
        self.stats.fast_retransmits += 1
        self.recover = self.snd_nxt
        self.ssthresh = max(self.bytes_in_flight // 2, 2 * self.mss)
        self.cwnd = self.ssthresh
        self.in_recovery = True

    def _exit_recovery(self) -> None:
        self.in_recovery = False
        self.cwnd = self.ssthresh

    # -- timeouts ----------------------------------------------------------
    def _on_rto(self) -> None:
        if self.state == "SYN_SENT":
            self.syn_retries += 1
            if self.syn_retries > self.max_syn_retries:
                self.abort("connect timed out")
                return
            self._send_control(SYN, seq=0)
            self.rto = min(self.rto * 2, MAX_RTO)
            self._rtx_timer.start(self.rto)
            return
        if self.state == "SYN_RCVD":
            self._send_control(SYN | ACK, seq=0)
            self.rto = min(self.rto * 2, MAX_RTO)
            self._rtx_timer.start(self.rto)
            return
        if not self._sent_chunks:
            return
        self.stats.timeouts += 1
        self.ssthresh = max(self.bytes_in_flight // 2, 2 * self.mss)
        self.cwnd = self.mss
        self.in_recovery = False
        self.rto = min(self.rto * 2, MAX_RTO)
        self._rtx_pending = 0
        for chunk in self._sent_chunks:
            if not chunk.sacked:
                chunk.lost = True
                chunk.retransmitted = False
                self._rtx_pending += 1
        self._recompute_pipe()
        self._try_transmit()
        self._rtx_timer.start(self.rto)

    def _sample_rtt(self, rtt: float) -> None:
        self.stats.rtt_samples += 1
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - rtt)
            self.srtt = 0.875 * self.srtt + 0.125 * rtt
        self.stats.srtt = self.srtt
        self.rto = min(MAX_RTO, max(MIN_RTO, self.srtt + 4 * self.rttvar))

    # -- payload processing --------------------------------------------------
    def _process_payload(self, segment: Segment) -> None:
        seq = segment.seq
        if segment.is_fin:
            self._peer_fin_seq = seq + segment.payload_len
        if segment.payload_len > 0:
            if seq + segment.payload_len <= self.rcv_nxt:
                self._send_ack()  # duplicate
                return
            if seq > self.rcv_nxt:
                self._buffer_out_of_order(segment)
                self._send_ack()  # dup ACK with SACK signals the hole
                return
            trim = self.rcv_nxt - seq
            meta = segment.meta
            if trim > 0 and hasattr(meta, "advance"):
                meta = meta.advance(trim)
            self._deliver(segment.payload_len - trim, meta)
            self.rcv_nxt = seq + segment.payload_len
            self._drain_reorder()
        if (self._peer_fin_seq is not None
                and self.rcv_nxt >= self._peer_fin_seq):
            self.rcv_nxt = self._peer_fin_seq + 1
            self._send_ack()
            self._on_peer_fin()
            return
        self._send_ack()

    def _buffer_out_of_order(self, segment: Segment) -> None:
        """Hold a segment above ``rcv_nxt`` and keep the SACK blocks equal
        to the merge of everything held."""
        seq = segment.seq
        length = segment.payload_len
        held = self._reorder.get(seq)
        self._reorder[seq] = (length, segment.meta, segment.is_fin)
        if held is None or held[0] < length:
            self._sack_insert(seq, seq + length)
        elif held[0] > length:
            # A shorter segment replaced a longer one at the same seq:
            # coverage may have shrunk, so rebuild rather than guess.
            self._sack_blocks.clear()
            for start, (span, _, _) in self._reorder.items():
                self._sack_insert(start, start + span)

    def _drain_reorder(self) -> None:
        """Deliver what became contiguous with ``rcv_nxt``.

        Blocks never touch, so only the lowest can be reachable, and a
        reachable block drains whole: every byte of it is covered by a
        held segment, so delivery runs to its end and whatever else it
        held is then stale.
        """
        blocks = self._sack_blocks
        if not blocks or blocks[0][0] > self.rcv_nxt:
            return  # the hole at rcv_nxt is still open
        reorder = self._reorder
        while blocks and blocks[0][0] <= self.rcv_nxt:
            start, span = blocks.pop(0)
            block_end = start + span
            while self.rcv_nxt < block_end:
                # First held segment covering rcv_nxt, in arrival order.
                for seq, entry in reorder.items():
                    if seq <= self.rcv_nxt < seq + entry[0]:
                        break
                length, meta, is_fin = reorder.pop(seq)
                trim = self.rcv_nxt - seq
                if trim > 0 and hasattr(meta, "advance"):
                    meta = meta.advance(trim)
                self._deliver(length - trim, meta)
                self.rcv_nxt = seq + length
                if is_fin:
                    self._peer_fin_seq = self.rcv_nxt
        stale = [s for s, entry in reorder.items()
                 if s + entry[0] <= self.rcv_nxt]
        for s in stale:
            del reorder[s]

    def _deliver(self, nbytes: int, meta: object) -> None:
        if nbytes <= 0:
            return
        self.stats.bytes_received += nbytes
        if self.on_data is not None:
            self.on_data(nbytes, meta)

    # -- teardown -----------------------------------------------------------
    def _on_peer_fin(self) -> None:
        if self.state == "ESTABLISHED":
            # Passive close: finish sending, then FIN back.
            self.close()
        elif self.state in ("FIN_WAIT", "CLOSING"):
            self._finish()

    def _on_fin_acked(self) -> None:
        if self._peer_fin_seq is not None and self.rcv_nxt > self._peer_fin_seq:
            self._finish()
        elif self.state == "FIN_WAIT":
            self.state = "CLOSING"

    def _finish(self) -> None:
        if self.state == "DONE":
            return
        self.state = "DONE"
        self._rtx_timer.stop()
        self._unregister()
        if self.on_close is not None:
            self.on_close()


class TcpListener:
    """A passive TCP endpoint accepting connections on a port."""

    def __init__(self, host: Host, port: int,
                 on_accept: Callable[[TcpConnection], None],
                 mss: int = DEFAULT_MSS):
        self.host = host
        self.port = port
        self.on_accept = on_accept
        self.mss = mss
        host.register_listener(PROTO_TCP, port, self)
        self.accepted = 0

    def handle_packet(self, packet: Packet) -> None:
        segment: Segment = packet.payload
        if not segment.is_syn or segment.flags & ACK:
            return
        connection = TcpConnection(self.host, packet.src, segment.src_port,
                                   local_port=self.port, mss=self.mss)
        connection.syn_meta = segment.meta  # MPTCP option from the peer SYN
        self.accepted += 1
        self.on_accept(connection)
        connection._accept_from(packet, segment)

    def close(self) -> None:
        self.host.unregister_listener(PROTO_TCP, self.port)
