"""VoIP: RTP-over-UDP with SIP re-INVITE on IP change (Table 1).

VoIP does not ride on TCP, so CellBricks handles its mobility with the
SIP re-invite mechanism (§6.2(iv)): when the UE's address changes, the
(modified-pjsua-like) client sends a re-INVITE from the new address and
both endpoints continue the RTP session there.

The call model is G.711: 50 packets/s of 160-byte payloads each way.
Quality is summarized as MOS via the E-model from the measured loss,
delay, and jitter (:mod:`repro.analysis.mos`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.mos import mos_from_network_stats
from repro.analysis.stats import mean
from repro.net import Host, Simulator, Timer, UdpSocket

RTP_PORT = 4000
SIP_PORT = 5060
PACKET_INTERVAL = 0.02      # 20 ms framing
RTP_PAYLOAD = 172           # 160 B G.711 + 12 B RTP header
REINVITE_SIZE = 600
SIP_RETRY_INTERVAL = 0.5    # SIP Timer A style INVITE retransmission


@dataclass
class RtpStats:
    """Receiver-side RTP statistics (one direction)."""

    received: int = 0
    expected_max_seq: int = 0
    delays: list = field(default_factory=list)

    @property
    def loss_rate(self) -> float:
        if self.expected_max_seq == 0:
            return 0.0
        return max(0.0, 1.0 - self.received / self.expected_max_seq)

    @property
    def avg_delay_ms(self) -> float:
        return mean(self.delays) * 1000 if self.delays else 0.0

    @property
    def jitter_ms(self) -> float:
        """Mean absolute inter-arrival delay variation (RFC 3550 style)."""
        if len(self.delays) < 2:
            return 0.0
        variations = [abs(self.delays[i] - self.delays[i - 1])
                      for i in range(1, len(self.delays))]
        return mean(variations) * 1000

    @property
    def mos(self) -> float:
        return mos_from_network_stats(self.avg_delay_ms, self.jitter_ms,
                                      self.loss_rate)


class _RtpEndpoint:
    """Shared send/receive machinery for both call legs."""

    def __init__(self, host: Host, rtp_port: int):
        self.host = host
        self.sim: Simulator = host.sim
        self.rtp = UdpSocket(host, rtp_port)
        self.rtp.on_datagram = self._on_rtp
        self.stats = RtpStats()
        self.peer_ip: Optional[str] = None
        self.peer_port: Optional[int] = None
        self._seq = 0
        self._running = False
        self._stop_at = 0.0

    def start_streaming(self, duration: float) -> None:
        self._running = True
        self._stop_at = self.sim.now + duration
        self._send_frame()

    def _send_frame(self) -> None:
        if not self._running or self.sim.now >= self._stop_at:
            self._running = False
            return
        if self.peer_ip is not None:
            self._seq += 1
            self.rtp.send_to(self.peer_ip, self.peer_port, RTP_PAYLOAD,
                             (self._seq, self.sim.now))
        self.sim.schedule(PACKET_INTERVAL, self._send_frame)

    def _on_rtp(self, src_ip: str, src_port: int, body: object,
                sent_at: float) -> None:
        seq, t_sent = body
        self.stats.received += 1
        self.stats.expected_max_seq = max(self.stats.expected_max_seq, seq)
        self.stats.delays.append(self.sim.now - t_sent)


class VoipCallee(_RtpEndpoint):
    """The server-side call leg; follows re-INVITEs to the new address."""

    def __init__(self, host: Host):
        super().__init__(host, RTP_PORT)
        self.sip = UdpSocket(host, SIP_PORT)
        self.sip.on_datagram = self._on_sip
        self.reinvites = 0

    def _on_sip(self, src_ip: str, src_port: int, body: object,
                sent_at: float) -> None:
        kind, rtp_port = body
        if kind in ("INVITE", "re-INVITE"):
            if kind == "re-INVITE":
                self.reinvites += 1
            self.peer_ip = src_ip
            self.peer_port = rtp_port
            self.sip.send_to(src_ip, src_port, 200, ("200 OK", self.rtp.port))


class VoipCaller(_RtpEndpoint):
    """The UE-side call leg (a pjsua-like client with re-invite support)."""

    def __init__(self, host: Host, callee_ip: str):
        super().__init__(host, RTP_PORT + 1)
        self.callee_ip = callee_ip
        self.sip = UdpSocket(host)
        self.sip.on_datagram = self._on_sip_reply
        self.reinvites_sent = 0
        self._sip_retry_timer = Timer(self.sim, self._retry_invite)
        self._pending_invite: Optional[str] = None
        host.add_address_listener(self._on_address_change)

    def call(self, duration: float) -> None:
        """INVITE, then stream for ``duration`` seconds."""
        self._invite("INVITE")
        self.start_streaming(duration)

    def _invite(self, kind: str) -> None:
        # SIP retransmits INVITEs until a final response (Timer A); that
        # is what carries a re-INVITE across the radio gap of a handover.
        self._pending_invite = kind
        self.sip.send_to(self.callee_ip, SIP_PORT, REINVITE_SIZE,
                         (kind, self.rtp.port))
        self._sip_retry_timer.start(SIP_RETRY_INTERVAL)

    def _retry_invite(self) -> None:
        if self._pending_invite is None:
            return
        self.sip.send_to(self.callee_ip, SIP_PORT, REINVITE_SIZE,
                         (self._pending_invite, self.rtp.port))
        self._sip_retry_timer.start(SIP_RETRY_INTERVAL)

    def _on_sip_reply(self, src_ip: str, src_port: int, body: object,
                      sent_at: float) -> None:
        status, rtp_port = body
        if status == "200 OK":
            self._pending_invite = None
            self._sip_retry_timer.stop()
            self.peer_ip = self.callee_ip
            self.peer_port = rtp_port

    def _on_address_change(self, old_ip: str, new_ip: str) -> None:
        if new_ip != "0.0.0.0" and self._running:
            # "a host sends a SIP re-Invite message to its peer upon IP
            # changes allowing both endpoints to set up new RTP sessions".
            self.reinvites_sent += 1
            self._invite("re-INVITE")


def make_call(ue_host: Host, server_host: Host, duration: float
              ) -> tuple[VoipCaller, VoipCallee]:
    """Set up a two-way call; returns (caller, callee) for stats reading.

    Downlink quality (what the user hears) is ``caller.stats``; uplink is
    ``callee.stats``.
    """
    callee = VoipCallee(server_host)
    caller = VoipCaller(ue_host, server_host.address)
    caller.call(duration)
    callee.start_streaming(duration)
    return caller, callee
