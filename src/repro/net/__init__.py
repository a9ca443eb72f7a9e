"""Discrete-event network simulation substrate.

Layered exactly as a real stack would be:

* :mod:`repro.net.sim` — the event loop and virtual clock,
* :mod:`repro.net.packet` — datagrams, flow keys, address pools,
* :mod:`repro.net.link` — bandwidth/delay/loss pipes, token-bucket shaping,
* :mod:`repro.net.node` — hosts (with runtime address changes), routers, UDP,
* :mod:`repro.net.tcp` — Reno/NewReno TCP,
* :mod:`repro.net.mptcp` — multipath TCP with subflow replacement,
* :mod:`repro.net.quic` — QUIC-style transport with connection migration,
* :mod:`repro.net.endpoint` — what those two share (reassembly, spans),
* :mod:`repro.net.topology` — canonical UE-to-server paths.
"""

from .link import Link, LinkStats, SimplexLink, TokenBucket
from .mptcp import (
    DEFAULT_ADDRESS_TIMEOUT,
    DEFAULT_ADDRESS_WAIT,
    DssMapping,
    MptcpConnection,
    MptcpListener,
    MptcpServerConnection,
)
from .node import Host, Node, Router, UdpSocket
from .packet import (
    PROTO_TCP,
    PROTO_UDP,
    UNSPECIFIED,
    AddressPool,
    FlowKey,
    Packet,
    same_prefix,
)
from .sim import Event, SimulationError, Simulator, TickCalendar, Timer
from .tcp import DEFAULT_MSS, Segment, TcpConnection, TcpListener, TcpStats
from .topology import CellularPath

__all__ = [
    "AddressPool",
    "CellularPath",
    "DEFAULT_ADDRESS_TIMEOUT",
    "DEFAULT_ADDRESS_WAIT",
    "DEFAULT_MSS",
    "DssMapping",
    "Event",
    "FlowKey",
    "Host",
    "Link",
    "LinkStats",
    "MptcpConnection",
    "MptcpListener",
    "MptcpServerConnection",
    "Node",
    "PROTO_TCP",
    "PROTO_UDP",
    "Packet",
    "Router",
    "Segment",
    "SimplexLink",
    "SimulationError",
    "Simulator",
    "TickCalendar",
    "TcpConnection",
    "TcpListener",
    "TcpStats",
    "Timer",
    "TokenBucket",
    "UNSPECIFIED",
    "UdpSocket",
    "same_prefix",
]
