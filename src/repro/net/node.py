"""Nodes: hosts with transport demultiplexing and prefix routers.

The topologies in this reproduction are small (UE — radio — gateway — WAN —
server), so routing is longest-prefix over /24s plus default routes.  What
matters for CellBricks is the *host* side: interfaces whose address can be
invalidated and re-assigned at runtime, with listeners (the MPTCP path
manager, the UE agent) notified of every change — that is the hook
host-driven mobility hangs off.
"""

from __future__ import annotations

from typing import Callable, Optional

from .link import Link
from .packet import (
    PROTO_TCP,
    PROTO_UDP,
    UDP_HEADER,
    IP_HEADER,
    UNSPECIFIED,
    FlowKey,
    Packet,
)
from .sim import Simulator

AddressListener = Callable[[str, str], None]  # (old_ip, new_ip)


class Node:
    """Base class: anything attachable to links."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.links: list[Link] = []

    def attach_link(self, link: Link) -> None:
        self.links.append(link)

    def detach_link(self, link: Link) -> None:
        if link in self.links:
            self.links.remove(link)

    def receive(self, packet: Packet, link: Link) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class Host(Node):
    """An end host: one or more addresses, UDP/TCP demux, a default route.

    The UE and the server VMs are Hosts.  ``set_address`` implements the
    emulation harness's "ifconfig to 0.0.0.0 then reassign" sequence; every
    registered address listener (MPTCP's path manager, application proxies)
    is notified synchronously, mirroring how the kernel notifies the MPTCP
    stack of address invalidation (§4.2, §6.2(iii)).
    """

    def __init__(self, sim: Simulator, name: str, address: str = UNSPECIFIED):
        super().__init__(sim, name)
        self.address = address
        self._flows: dict[FlowKey, object] = {}
        self._listeners: dict[tuple[int, int], object] = {}  # (proto, port)
        self._address_listeners: list[AddressListener] = []
        self._routes: dict[str, Link] = {}  # /24 prefix -> link (multihomed)
        self._next_ephemeral = 49152

    # -- addressing -------------------------------------------------------
    def set_address(self, new_address: str) -> None:
        """Change this host's address, notifying listeners."""
        old = self.address
        if new_address == old:
            return
        self.address = new_address
        for listener in list(self._address_listeners):
            listener(old, new_address)

    def invalidate_address(self) -> None:
        """Drop the current address (interface shows 0.0.0.0)."""
        self.set_address(UNSPECIFIED)

    @property
    def has_address(self) -> bool:
        return self.address != UNSPECIFIED

    def add_address_listener(self, listener: AddressListener) -> None:
        self._address_listeners.append(listener)

    def remove_address_listener(self, listener: AddressListener) -> None:
        if listener in self._address_listeners:
            self._address_listeners.remove(listener)

    def allocate_port(self) -> int:
        port = self._next_ephemeral
        self._next_ephemeral += 1
        if self._next_ephemeral > 65535:
            self._next_ephemeral = 49152
        return port

    # -- demux registration -------------------------------------------------
    def register_flow(self, key: FlowKey, endpoint: object) -> None:
        self._flows[key] = endpoint

    def unregister_flow(self, key: FlowKey) -> None:
        self._flows.pop(key, None)

    def register_listener(self, protocol: int, port: int, endpoint: object) -> None:
        demux_key = (protocol, port)
        if demux_key in self._listeners:
            raise ValueError(f"port {port}/{protocol} already bound on {self.name}")
        self._listeners[demux_key] = endpoint

    def unregister_listener(self, protocol: int, port: int) -> None:
        self._listeners.pop((protocol, port), None)

    # -- data path ----------------------------------------------------------
    def add_route(self, prefix: str, link: Link) -> None:
        """Pin a destination /24 prefix to a specific link (multihomed
        hosts, e.g. an eNodeB with a radio side and a backhaul side)."""
        self._routes[prefix] = link

    def send_packet(self, packet: Packet) -> bool:
        """Send via the routed link, defaulting to the first attached."""
        if not self.links:
            return False
        packet.created_at = self.sim.now
        link = self.links[0]
        if self._routes:
            link = self._routes.get(packet.dst.rsplit(".", 1)[0], link)
        return link.send_from(self, packet)

    def receive(self, packet: Packet, link: Link) -> None:
        if packet.dst != self.address or not self.has_address:
            return  # not ours (stale address after a handover) - drop
        segment = packet.payload
        src_port = getattr(segment, "src_port", 0)
        dst_port = getattr(segment, "dst_port", 0)
        # FlowKey order; a bare tuple hashes and compares equal to one.
        endpoint = self._flows.get(
            (packet.dst, dst_port, packet.src, src_port))
        if endpoint is None:
            endpoint = self._listeners.get((packet.protocol, dst_port))
        if endpoint is not None:
            endpoint.handle_packet(packet)


class Router(Node):
    """Longest-prefix (/24 or default) packet forwarder.

    Carrier gateways and the WAN core are Routers.  Routes map a /24 prefix
    string (``"10.1.5"``) to the link used to reach it; ``default`` catches
    everything else.
    """

    def __init__(self, sim: Simulator, name: str,
                 forwarding_delay_s: float = 0.0002):
        super().__init__(sim, name)
        self.routes: dict[str, Link] = {}
        self.default_route: Optional[Link] = None
        self.forwarding_delay_s = forwarding_delay_s
        self.forwarded = 0
        self.dropped = 0

    def add_route(self, prefix: str, link: Link) -> None:
        self.routes[prefix] = link

    def remove_route(self, prefix: str) -> None:
        self.routes.pop(prefix, None)

    def set_default_route(self, link: Link) -> None:
        self.default_route = link

    def route_for(self, address: str) -> Optional[Link]:
        prefix = address.rsplit(".", 1)[0]
        return self.routes.get(prefix, self.default_route)

    def receive(self, packet: Packet, link: Link) -> None:
        if packet.ttl <= 0:
            self.dropped += 1
            return
        out = self.route_for(packet.dst)
        if out is None or out is link:
            self.dropped += 1
            return
        forwarded = packet.copy_for_forwarding()
        self.forwarded += 1
        if self.forwarding_delay_s:
            self.sim.schedule(self.forwarding_delay_s,
                              out.send_from, self, forwarded)
        else:
            out.send_from(self, forwarded)

    def send_packet(self, packet: Packet) -> bool:
        """Originate a packet from this router (used by in-network agents)."""
        out = self.route_for(packet.dst)
        if out is None:
            return False
        return out.send_from(self, packet)


class UdpDatagram:
    """Payload object carried by UDP packets."""

    __slots__ = ("src_port", "dst_port", "body", "sent_at")

    def __init__(self, src_port: int, dst_port: int, body: object,
                 sent_at: float):
        self.src_port = src_port
        self.dst_port = dst_port
        self.body = body
        self.sent_at = sent_at


class UdpSocket:
    """A minimal UDP endpoint bound to a host and port.

    VoIP (RTP), ping, and the SAP/S6a signaling transport all ride on this.
    """

    def __init__(self, host: Host, port: int = 0):
        self.host = host
        self.port = port or host.allocate_port()
        self.on_datagram: Optional[Callable[[str, int, object, float], None]] = None
        host.register_listener(PROTO_UDP, self.port, self)
        self._closed = False

    def send_to(self, dst_ip: str, dst_port: int, payload_size: int,
                body: object = None) -> bool:
        """Send a datagram; ``payload_size`` is the UDP payload in bytes."""
        if self._closed or not self.host.has_address:
            return False
        datagram = UdpDatagram(self.port, dst_port, body, self.host.sim.now)
        packet = Packet(src=self.host.address, dst=dst_ip, protocol=PROTO_UDP,
                        size=IP_HEADER + UDP_HEADER + payload_size,
                        payload=datagram)
        return self.host.send_packet(packet)

    def handle_packet(self, packet: Packet) -> None:
        if self._closed:
            return
        datagram: UdpDatagram = packet.payload
        if self.on_datagram is not None:
            self.on_datagram(packet.src, datagram.src_port, datagram.body,
                             datagram.sent_at)

    def close(self) -> None:
        if not self._closed:
            self.host.unregister_listener(PROTO_UDP, self.port)
            self._closed = True
