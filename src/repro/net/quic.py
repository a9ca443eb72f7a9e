"""A QUIC-style transport with connection migration.

§4.2 names two host-side answers to CellBricks' IP churn: MPTCP (what the
prototype uses) and QUIC — "these protocols have explicit connection
identifiers within their L4 header and use IP addresses only for packet
delivery".  The paper leaves QUIC "to future work"; this module builds it
so the two approaches can be compared (the XTRA-QUIC benchmark):

* connection IDs — packets are demultiplexed by CID, not 4-tuple, so a
  client address change needs *no new connection state*;
* **connection migration** — when the client's address changes it sends a
  PATH_CHALLENGE from the new address; the server validates the path
  (echoes PATH_RESPONSE) and re-points the connection.  One round trip,
  no handshake, no subflow, no 500 ms worker wait;
* a Reno-style congestion controller with packet-number loss detection
  (packet threshold 3) and a probe timeout (PTO), per RFC 9002's shape;
* stream data as (offset, length) ranges with exact-once in-order
  delivery, like the MPTCP DSS machinery.

Modeled simplifications: a 1-RTT handshake, a single stream, ACKs on
every packet, and no flow control (the simulator's receivers consume
instantly).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from .endpoint import Reassembly, TracedEndpoint
from .node import Host, UdpSocket
from .packet import UNSPECIFIED
from .sim import Simulator, Timer

QUIC_MAX_PAYLOAD = 1350   # QUIC's typical UDP payload budget
QUIC_HEADER = 28          # short header + auth tag, approximate
INITIAL_WINDOW = 10 * QUIC_MAX_PAYLOAD
MIN_PTO = 0.2
MAX_PTO = 60.0
PACKET_LOSS_THRESHOLD = 3
FIRST_CONNECTION_ID = 0x51C0    # of a run: cids are per-Simulator


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StreamFrame:
    offset: int
    length: int


@dataclass(frozen=True)
class AckFrame:
    largest: int
    acked: tuple          # packet numbers (bounded set per ACK)


@dataclass(frozen=True)
class HandshakeFrame:
    is_response: bool = False


@dataclass(frozen=True)
class PathChallenge:
    token: int


@dataclass(frozen=True)
class PathResponse:
    token: int


@dataclass(frozen=True)
class QuicDatagram:
    """What rides inside the UDP payload."""

    cid: int
    packet_number: int
    frames: tuple


@dataclass(slots=True)
class _SentPacket:
    packet_number: int
    frames: tuple
    sent_at: float
    in_flight_bytes: int


class QuicEndpoint(TracedEndpoint):
    """Shared sender/receiver machinery for one side of a connection."""

    obs_layer = "quic"

    def __init__(self, host: Host, cid: int):
        self.host = host
        self.sim: Simulator = host.sim
        self.cid = cid
        self.socket: Optional[UdpSocket] = None
        self.peer_ip: Optional[str] = None
        self.peer_port: Optional[int] = None

        # Sender state
        self.next_packet_number = 0
        self.cwnd = INITIAL_WINDOW
        self.ssthresh = float("inf")
        self.bytes_in_flight = 0
        self.stream_offset = 0          # next offset to assign
        self._send_queue = 0            # bytes queued, not yet framed
        self._retransmit: deque[StreamFrame] = deque()
        #: ack-eliciting packets neither acknowledged nor declared lost,
        #: in packet-number order (dicts keep insertion order).
        self._sent: dict[int, _SentPacket] = {}
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self._pto_timer = Timer(self.sim, self._on_pto)
        self._pto_count = 0
        self.established = False

        # Receiver state
        self._receiver = Reassembly()
        self._largest_received = -1
        self._recent_received: list[int] = []

        # Callbacks
        self.on_data: Optional[Callable[[int], None]] = None
        self.on_established: Optional[Callable[[], None]] = None

        self.stats_packets_sent = 0
        self.stats_packets_lost = 0
        self.migrations = 0

    # -- sending ------------------------------------------------------------
    def send(self, nbytes: int) -> None:
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        self._send_queue += nbytes
        self._pump()

    def _pump(self) -> None:
        if not self.established or self.peer_ip is None:
            return
        while self.bytes_in_flight < self.cwnd:
            frame = self._next_stream_frame()
            if frame is None:
                break
            self._emit([frame], in_flight=frame.length)

    def _next_stream_frame(self) -> Optional[StreamFrame]:
        if self._retransmit:
            return self._retransmit.popleft()
        if self._send_queue <= 0:
            return None
        length = min(QUIC_MAX_PAYLOAD, self._send_queue)
        frame = StreamFrame(offset=self.stream_offset, length=length)
        self.stream_offset += length
        self._send_queue -= length
        return frame

    def _emit(self, frames: list, in_flight: int = 0,
              to_ip: Optional[str] = None, to_port: Optional[int] = None
              ) -> None:
        pn = self.next_packet_number
        self.next_packet_number += 1
        datagram = QuicDatagram(cid=self.cid, packet_number=pn,
                                frames=tuple(frames))
        payload = QUIC_HEADER + sum(
            f.length for f in frames if isinstance(f, StreamFrame))
        self.socket.send_to(to_ip or self.peer_ip,
                            to_port or self.peer_port, payload, datagram)
        self.stats_packets_sent += 1
        if in_flight:
            self._sent[pn] = _SentPacket(pn, tuple(frames), self.sim.now,
                                         in_flight)
            self.bytes_in_flight += in_flight
            if not self._pto_timer.armed:
                self._pto_timer.start(self._pto_interval())

    # -- receiving -------------------------------------------------------------
    def handle_datagram(self, src_ip: str, src_port: int,
                        datagram: QuicDatagram) -> None:
        if datagram.cid != self.cid:
            return
        ack_worthy = False
        for frame in datagram.frames:
            if isinstance(frame, StreamFrame):
                delivered = self._receiver.receive(frame.offset, frame.length)
                ack_worthy = True
                if delivered and self.on_data is not None:
                    self.on_data(delivered)
            elif isinstance(frame, AckFrame):
                self._process_ack(frame)
            elif isinstance(frame, PathChallenge):
                self._on_path_challenge(src_ip, src_port, frame)
            elif isinstance(frame, PathResponse):
                self._on_path_response(src_ip, src_port, frame)
            elif isinstance(frame, HandshakeFrame):
                self._on_handshake(src_ip, src_port, frame)
        if ack_worthy:
            self._track_and_ack(datagram.packet_number)

    def _track_and_ack(self, packet_number: int) -> None:
        self._largest_received = max(self._largest_received, packet_number)
        self._recent_received.append(packet_number)
        if len(self._recent_received) > 32:
            self._recent_received = self._recent_received[-32:]
        ack = AckFrame(largest=self._largest_received,
                       acked=tuple(self._recent_received))
        self._emit([ack])

    # -- ACK processing / loss detection -------------------------------------------
    def _process_ack(self, ack: AckFrame) -> None:
        newly_acked = 0
        for pn in ack.acked:
            packet = self._sent.pop(pn, None)
            if packet is None:
                continue
            self.bytes_in_flight -= packet.in_flight_bytes
            newly_acked += packet.in_flight_bytes
            if pn == ack.largest:
                self._sample_rtt(self.sim.now - packet.sent_at)
        if newly_acked:
            self._pto_count = 0
            self._grow_cwnd(newly_acked)
        lost = self._detect_losses(ack.largest)
        if lost:
            self._on_congestion()
        if self._sent:
            self._pto_timer.start(self._pto_interval())
        else:
            self._pto_timer.stop()
        self._pump()

    def _detect_losses(self, largest_acked: int) -> bool:
        lost = []
        for pn in self._sent:
            if pn + PACKET_LOSS_THRESHOLD > largest_acked:
                break  # pn-ordered: nothing further can qualify
            lost.append(pn)
        for pn in lost:
            self._declare_lost(self._sent.pop(pn))
        return bool(lost)

    def _declare_lost(self, packet: _SentPacket) -> None:
        self.stats_packets_lost += 1
        self.bytes_in_flight -= packet.in_flight_bytes
        for frame in packet.frames:
            if isinstance(frame, StreamFrame):
                self._retransmit.append(frame)

    def _grow_cwnd(self, acked_bytes: int) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd += min(acked_bytes, QUIC_MAX_PAYLOAD)
        else:
            self.cwnd += max(
                1, QUIC_MAX_PAYLOAD * QUIC_MAX_PAYLOAD // int(self.cwnd))

    def _on_congestion(self) -> None:
        self.ssthresh = max(self.bytes_in_flight // 2, 2 * QUIC_MAX_PAYLOAD)
        self.cwnd = max(self.ssthresh, 2 * QUIC_MAX_PAYLOAD)

    def _sample_rtt(self, rtt: float) -> None:
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - rtt)
            self.srtt = 0.875 * self.srtt + 0.125 * rtt

    def _pto_interval(self) -> float:
        base = (self.srtt or 0.5) + 4 * self.rttvar + 0.001
        return min(MAX_PTO, max(MIN_PTO, base * (2 ** self._pto_count)))

    def _on_pto(self) -> None:
        if not self._sent:
            return
        self._pto_count += 1
        self.retransmit_outstanding()
        if self._sent:
            self._pto_timer.start(self._pto_interval())

    def retransmit_outstanding(self) -> None:
        """Declare all outstanding data lost and rebuild from slow start.

        Used by the probe timeout and by path migration (RFC 9002 resets
        the congestion controller on a path change; in-flight data from
        the old path is not coming back)."""
        for packet in self._sent.values():
            self._declare_lost(packet)
        self._sent.clear()
        self.ssthresh = max(self.cwnd // 2, 2 * QUIC_MAX_PAYLOAD)
        self.cwnd = 2 * QUIC_MAX_PAYLOAD
        self._pump()

    def close(self) -> None:
        """Stop timers and drop pending state (CONNECTION_CLOSE-lite)."""
        self._pto_timer.stop()
        self._send_queue = 0
        self._retransmit.clear()
        self._sent.clear()
        self.bytes_in_flight = 0

    # -- path management hooks (overridden per side) ---------------------------------
    def _on_handshake(self, src_ip: str, src_port: int,
                      frame: HandshakeFrame) -> None:
        raise NotImplementedError

    def _on_path_challenge(self, src_ip: str, src_port: int,
                           challenge: PathChallenge) -> None:
        # Echo from wherever it came; the peer validates the round trip.
        self._emit([PathResponse(token=challenge.token)],
                   to_ip=src_ip, to_port=src_port)

    def _on_path_response(self, src_ip: str, src_port: int,
                          response: PathResponse) -> None:
        pass


class QuicConnection(QuicEndpoint):
    """Client side: handshake + address-change-driven migration."""

    def __init__(self, host: Host, server_ip: str, server_port: int):
        super().__init__(
            host, cid=host.sim.sequence("quic.cid", FIRST_CONNECTION_ID))
        self.peer_ip = server_ip
        self.peer_port = server_port
        self.socket = UdpSocket(host)
        self.socket.on_datagram = self._on_udp
        self._handshake_timer = Timer(self.sim, self._send_handshake)
        self._challenge_timer = Timer(self.sim, self._resend_challenge)
        self._challenge_token = 0
        self._path_pending = False
        self._handshake_span = None
        self._path_span = None
        host.add_address_listener(self._on_address_change)

    def connect(self) -> None:
        self._send_handshake()

    def _send_handshake(self) -> None:
        if self._handshake_span is None:
            self._handshake_span = self._obs_begin_span("quic.handshake",
                                                        cid=self.cid)
        else:
            self._obs_instant("quic.handshake_retx", cid=self.cid)
        self._emit([HandshakeFrame()])
        self._handshake_timer.start(1.0)

    def _on_udp(self, src_ip: str, src_port: int, body: object,
                sent_at: float) -> None:
        if isinstance(body, QuicDatagram):
            self.handle_datagram(src_ip, src_port, body)

    def _on_handshake(self, src_ip: str, src_port: int,
                      frame: HandshakeFrame) -> None:
        if frame.is_response and not self.established:
            self.established = True
            self._obs_finish(self._handshake_span)
            self._handshake_timer.stop()
            if self.on_established is not None:
                self.on_established()
            self._pump()

    # -- migration -----------------------------------------------------------------
    def _on_address_change(self, old_ip: str, new_ip: str) -> None:
        if new_ip == UNSPECIFIED or not self.established:
            return
        # New address: validate the new path immediately.  No worker
        # delay, no handshake - this is QUIC's advantage over MPTCP here.
        self.migrations += 1
        self._challenge_token += 1
        self._path_pending = True
        self._obs_finish(self._path_span, status="superseded")
        self._path_span = self._obs_begin_span(
            "quic.path_validation", new_local=new_ip,
            token=self._challenge_token)
        self._emit([PathChallenge(token=self._challenge_token)])
        # RFC 9000 §8.2.1: PATH_CHALLENGE is retransmitted if the probe
        # is lost (a real risk here — the challenge races the radio
        # interruption that accompanies the switch).
        self._challenge_timer.start(self._pto_interval())

    def _resend_challenge(self) -> None:
        if not self._path_pending:
            return
        self._obs_instant("quic.path_challenge_retx",
                          token=self._challenge_token)
        self._emit([PathChallenge(token=self._challenge_token)])
        self._challenge_timer.start(self._pto_interval())

    def _on_path_response(self, src_ip: str, src_port: int,
                          response: PathResponse) -> None:
        if self._path_pending and response.token == self._challenge_token:
            self._path_pending = False
            self._challenge_timer.stop()
            self._obs_finish(self._path_span)
            self._path_span = None
            # Path validated: resume sending; anything lost during the
            # blackout is recovered by normal loss detection/PTO.
            self._pump()


class QuicServerConnection(QuicEndpoint):
    """Server side: adopts whatever validated address the client uses."""

    def __init__(self, host: Host, socket: UdpSocket, cid: int,
                 client_ip: str, client_port: int):
        super().__init__(host, cid=cid)
        self.socket = socket
        self.peer_ip = client_ip
        self.peer_port = client_port
        self.established = True

    def handle_datagram(self, src_ip: str, src_port: int,
                        datagram: QuicDatagram) -> None:
        if (src_ip, src_port) != (self.peer_ip, self.peer_port):
            # A known CID from a new address: adopt it (RFC 9000 migrates
            # on the highest-numbered packet from a new path; the CID
            # match stands in for packet protection here) and answer the
            # accompanying PATH_CHALLENGE, validating the path.  Data in
            # flight towards the old address is gone: reset the congestion
            # controller and retransmit immediately (RFC 9002 §B.4-ish).
            self.peer_ip = src_ip
            self.peer_port = src_port
            self.migrations += 1
            self._obs_instant("quic.peer_migrated", cid=self.cid,
                              new_peer=src_ip)
            self.retransmit_outstanding()
        super().handle_datagram(src_ip, src_port, datagram)

    def _on_handshake(self, src_ip: str, src_port: int,
                      frame: HandshakeFrame) -> None:
        if not frame.is_response:
            self._emit([HandshakeFrame(is_response=True)],
                       to_ip=src_ip, to_port=src_port)


class QuicListener:
    """Accepts QUIC connections on a UDP port, demuxing by CID."""

    def __init__(self, host: Host, port: int,
                 on_connection: Callable[[QuicServerConnection], None]):
        self.host = host
        self.socket = UdpSocket(host, port)
        self.socket.on_datagram = self._on_udp
        self.on_connection = on_connection
        self.connections: dict[int, QuicServerConnection] = {}

    def _on_udp(self, src_ip: str, src_port: int, body: object,
                sent_at: float) -> None:
        if not isinstance(body, QuicDatagram):
            return
        connection = self.connections.get(body.cid)
        if connection is None:
            is_handshake = any(isinstance(f, HandshakeFrame)
                               and not f.is_response
                               for f in body.frames)
            if not is_handshake:
                return  # stray packet for an unknown connection
            connection = QuicServerConnection(self.host, self.socket,
                                              body.cid, src_ip, src_port)
            self.connections[body.cid] = connection
            self.on_connection(connection)
        connection.handle_datagram(src_ip, src_port, body)

    def close(self) -> None:
        self.socket.close()
