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

from repro import lazy_exports

lazy_exports(globals(), {
    ".link": "Link LinkStats SimplexLink TokenBucket",
    ".mptcp": "DEFAULT_ADDRESS_TIMEOUT DEFAULT_ADDRESS_WAIT DssMapping"
              " MptcpConnection MptcpListener MptcpServerConnection",
    ".node": "Host Node Router UdpSocket",
    ".packet": "PROTO_TCP PROTO_UDP UNSPECIFIED AddressPool FlowKey Packet"
               " same_prefix",
    ".sim": "Event SimulationError Simulator TickCalendar Timer",
    ".tcp": "DEFAULT_MSS Segment TcpConnection TcpListener TcpStats",
    ".topology": "CellularPath",
})
