"""ICMP-style ping over UDP: the paper's latency benchmark (Table 1)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.stats import percentile
from repro.net import Host, Simulator, UdpSocket

PING_PORT = 7
PING_INTERVAL = 1.0                    # seconds between echo requests
PING_SIZE = 64


class PingServer:
    """UDP echo responder."""

    def __init__(self, host: Host):
        self.socket = UdpSocket(host, PING_PORT)
        self.socket.on_datagram = self._echo
        self.echoed = 0

    def _echo(self, src_ip: str, src_port: int, body: object,
              sent_at: float) -> None:
        self.echoed += 1
        self.socket.send_to(src_ip, src_port, PING_SIZE, body)


@dataclass
class PingStats:
    rtts: list = field(default_factory=list)
    sent: int = 0

    @property
    def received(self) -> int:
        return len(self.rtts)

    @property
    def p50_ms(self) -> float:
        return percentile(self.rtts, 50) * 1000 if self.rtts else float("nan")


class PingClient:
    """Sends one echo request per interval; tracks RTT samples.

    Requests sent while the UE has no address (mid-handover in
    CellBricks) simply count as lost — like a real ping process would
    observe.
    """

    def __init__(self, host: Host, server_ip: str):
        self.host = host
        self.sim: Simulator = host.sim
        self.server_ip = server_ip
        self.stats = PingStats()
        self.socket = UdpSocket(host)
        self.socket.on_datagram = self._on_reply
        self._seq = 0
        self._stop_at: Optional[float] = None

    def start(self, duration: float) -> None:
        self._stop_at = self.sim.now + duration
        self._tick()

    def _tick(self) -> None:
        if self.sim.now >= self._stop_at:
            return
        self.stats.sent += 1
        self._seq += 1
        self.socket.send_to(self.server_ip, PING_PORT, PING_SIZE,
                            (self._seq, self.sim.now))
        self.sim.schedule(PING_INTERVAL, self._tick)

    def _on_reply(self, src_ip: str, src_port: int, body: object,
                  sent_at: float) -> None:
        _seq, t_sent = body
        self.stats.rtts.append(self.sim.now - t_sent)
