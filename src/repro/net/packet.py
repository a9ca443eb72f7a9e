"""Packet and address primitives for the network simulator."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, NamedTuple

# Protocol numbers (mirroring IANA where it helps readability).
PROTO_UDP = 17
PROTO_TCP = 6
PROTO_GRE = 47

UNSPECIFIED = "0.0.0.0"

_packet_ids = itertools.count(1)

# Header sizes used for wire accounting (bytes).
IP_HEADER = 20
UDP_HEADER = 8
TCP_HEADER = 20
TCP_TIMESTAMP_OPTION = 12
MPTCP_DSS_OPTION = 20
GRE_HEADER = 4


@dataclass(slots=True)
class Packet:
    """An IP datagram.

    ``payload`` carries the transport-layer segment object (a
    :class:`~repro.net.tcp.Segment`, a UDP datagram body, or a tunnelled
    inner :class:`Packet`).  ``size`` is the on-the-wire size in bytes and
    is what links charge for serialization and queuing.
    """

    src: str
    dst: str
    protocol: int
    size: int
    payload: Any = None
    ttl: int = 64
    created_at: float = 0.0
    packet_id: int = field(default_factory=lambda: next(_packet_ids))

    def __post_init__(self):
        if self.size <= 0:
            raise ValueError("packet size must be positive")

    def copy_for_forwarding(self) -> "Packet":
        """Duplicate the packet with a decremented TTL.

        This is the per-hop allocation on the forwarding hot path, so it
        bypasses the dataclass ``__init__`` (and its re-validation of an
        already-validated size) and fills the slots directly.  The copy
        still gets a fresh ``packet_id`` — links key their in-flight
        events by it, so each hop must be distinct.
        """
        clone = object.__new__(Packet)
        clone.src = self.src
        clone.dst = self.dst
        clone.protocol = self.protocol
        clone.size = self.size
        clone.payload = self.payload
        clone.ttl = self.ttl - 1
        clone.created_at = self.created_at
        clone.packet_id = next(_packet_ids)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Packet #{self.packet_id} {self.src}->{self.dst} "
                f"proto={self.protocol} {self.size}B>")


class FlowKey(NamedTuple):
    """Demultiplexing key for a transport endpoint.

    A tuple, so the per-packet demux hashes and compares it in C (and a
    plain 4-tuple in the same order finds the same flow).
    """

    local_ip: str
    local_port: int
    remote_ip: str
    remote_port: int

    def reversed(self) -> "FlowKey":
        return FlowKey(self.remote_ip, self.remote_port,
                       self.local_ip, self.local_port)


class AddressPool:
    """Allocates IPv4 addresses from a /24-style prefix.

    Each bTelco's packet gateway owns a pool; a UE attaching to a different
    bTelco therefore receives an address under a different prefix — the IP
    change that CellBricks' host-driven mobility must absorb.
    """

    def __init__(self, prefix: str, first_host: int = 2, last_host: int = 254):
        parts = prefix.split(".")
        if len(parts) != 3 or not all(p.isdigit() and 0 <= int(p) <= 255
                                      for p in parts):
            raise ValueError(f"prefix must look like 'a.b.c', got {prefix!r}")
        self.prefix = prefix
        self._available = list(range(first_host, last_host + 1))
        self._allocated: dict[str, int] = {}

    def allocate(self) -> str:
        """Return a fresh address, raising when the pool is exhausted."""
        if not self._available:
            raise RuntimeError(f"address pool {self.prefix}.0/24 exhausted")
        host = self._available.pop(0)
        address = f"{self.prefix}.{host}"
        self._allocated[address] = host
        return address

    def release(self, address: str) -> None:
        """Return ``address`` to the pool; unknown addresses are ignored."""
        host = self._allocated.pop(address, None)
        if host is not None:
            self._available.append(host)

    def owns(self, address: str) -> bool:
        """True when ``address`` belongs to this pool's prefix."""
        return address.rsplit(".", 1)[0] == self.prefix

    @property
    def allocated_count(self) -> int:
        return len(self._allocated)


def same_prefix(address_a: str, address_b: str) -> bool:
    """True when two addresses share the same /24 prefix."""
    return address_a.rsplit(".", 1)[0] == address_b.rsplit(".", 1)[0]
