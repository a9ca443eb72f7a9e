"""ICMP-style ping over UDP: the paper's latency benchmark (Table 1)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.stats import percentile
from repro.net import Host, Simulator, UdpSocket

PING_PORT = 7
PING_SIZE = 64


class PingServer:
    """UDP echo responder."""

    def __init__(self, host: Host, port: int = PING_PORT):
        self.socket = UdpSocket(host, port)
        self.socket.on_datagram = self._echo
        self.echoed = 0

    def _echo(self, src_ip: str, src_port: int, body: object,
              sent_at: float) -> None:
        self.echoed += 1
        self.socket.send_to(src_ip, src_port, PING_SIZE, body)

    def close(self) -> None:
        self.socket.close()


@dataclass
class PingStats:
    rtts: list = field(default_factory=list)
    sent: int = 0

    @property
    def received(self) -> int:
        return len(self.rtts)

    @property
    def loss_rate(self) -> float:
        return 1.0 - self.received / self.sent if self.sent else 0.0

    @property
    def p50_ms(self) -> float:
        return percentile(self.rtts, 50) * 1000 if self.rtts else float("nan")


class PingClient:
    """Sends one echo request per interval; tracks RTT samples.

    Requests sent while the UE has no address (mid-handover in
    CellBricks) simply count as lost — like a real ping process would
    observe.
    """

    def __init__(self, host: Host, server_ip: str, interval: float = 1.0,
                 port: int = PING_PORT):
        self.host = host
        self.sim: Simulator = host.sim
        self.server_ip = server_ip
        self.interval = interval
        self.port = port
        self.stats = PingStats()
        self.socket = UdpSocket(host)
        self.socket.on_datagram = self._on_reply
        self._seq = 0
        self._running = False
        self._stop_at: Optional[float] = None

    def start(self, duration: float) -> None:
        self._running = True
        self._stop_at = self.sim.now + duration
        self._tick()

    def stop(self) -> None:
        self._running = False

    def _tick(self) -> None:
        if not self._running or self.sim.now >= self._stop_at:
            self._running = False
            return
        self.stats.sent += 1
        self._seq += 1
        self.socket.send_to(self.server_ip, self.port, PING_SIZE,
                            (self._seq, self.sim.now))
        self.sim.schedule(self.interval, self._tick)

    def _on_reply(self, src_ip: str, src_port: int, body: object,
                  sent_at: float) -> None:
        _seq, t_sent = body
        self.stats.rtts.append(self.sim.now - t_sent)
