"""Unit tests for hosts, routers, and UDP sockets."""

import pytest

from repro.net import Host, Link, Packet, Router, Simulator, UdpSocket
from repro.net.packet import PROTO_UDP, UNSPECIFIED


def linked_pair(sim, a_addr="10.0.0.1", b_addr="10.0.0.2", delay=0.001):
    a = Host(sim, "a", address=a_addr)
    b = Host(sim, "b", address=b_addr)
    link = Link(sim, "ab", a, b, bandwidth_bps=1e9, delay_s=delay)
    return a, b, link


class TestHostAddressing:
    def test_set_address_notifies_listeners(self):
        sim = Simulator()
        host = Host(sim, "h", address="1.1.1.1")
        events = []
        host.add_address_listener(lambda old, new: events.append((old, new)))
        host.set_address("2.2.2.2")
        host.invalidate_address()
        assert events == [("1.1.1.1", "2.2.2.2"), ("2.2.2.2", UNSPECIFIED)]

    def test_same_address_no_notification(self):
        sim = Simulator()
        host = Host(sim, "h", address="1.1.1.1")
        events = []
        host.add_address_listener(lambda old, new: events.append(new))
        host.set_address("1.1.1.1")
        assert events == []

    def test_packets_to_wrong_address_dropped(self):
        sim = Simulator()
        a, b, _ = linked_pair(sim)
        received = []
        sock = UdpSocket(b, 9)
        sock.on_datagram = lambda *args: received.append(args)
        sender = UdpSocket(a)
        sender.send_to("10.0.0.99", 9, 100)  # not b's address
        sim.run(until=1.0)
        assert received == []

    def test_no_address_cannot_send(self):
        sim = Simulator()
        a, b, _ = linked_pair(sim)
        a.invalidate_address()
        sock = UdpSocket(a)
        assert not sock.send_to("10.0.0.2", 9, 100)

    def test_ephemeral_ports_unique(self):
        sim = Simulator()
        host = Host(sim, "h", address="1.1.1.1")
        ports = {host.allocate_port() for _ in range(100)}
        assert len(ports) == 100

    def test_duplicate_bind_rejected(self):
        sim = Simulator()
        host = Host(sim, "h", address="1.1.1.1")
        UdpSocket(host, 9)
        with pytest.raises(ValueError):
            UdpSocket(host, 9)

    def test_closed_socket_unbinds(self):
        sim = Simulator()
        host = Host(sim, "h", address="1.1.1.1")
        sock = UdpSocket(host, 9)
        sock.close()
        UdpSocket(host, 9)  # rebinding now succeeds

    def test_multihomed_route_selection(self):
        sim = Simulator()
        hub = Host(sim, "hub", address="10.0.0.1")
        left = Host(sim, "left", address="10.1.0.2")
        right = Host(sim, "right", address="10.2.0.2")
        link_left = Link(sim, "l", hub, left, bandwidth_bps=1e9,
                         delay_s=0.001)
        link_right = Link(sim, "r", hub, right, bandwidth_bps=1e9,
                          delay_s=0.001)
        hub.add_route("10.1.0", link_left)
        hub.add_route("10.2.0", link_right)
        got = {"left": 0, "right": 0}
        for name, host in (("left", left), ("right", right)):
            sock = UdpSocket(host, 9)
            sock.on_datagram = (lambda n: lambda *a: got.__setitem__(
                n, got[n] + 1))(name)
        sender = UdpSocket(hub)
        sender.send_to("10.1.0.2", 9, 100)
        sender.send_to("10.2.0.2", 9, 100)
        sim.run(until=1.0)
        assert got == {"left": 1, "right": 1}


class TestRouter:
    def build(self):
        sim = Simulator()
        router = Router(sim, "r")
        a = Host(sim, "a", address="10.1.0.2")
        b = Host(sim, "b", address="10.2.0.2")
        link_a = Link(sim, "ra", router, a, bandwidth_bps=1e9,
                      delay_s=0.001)
        link_b = Link(sim, "rb", router, b, bandwidth_bps=1e9,
                      delay_s=0.001)
        router.add_route("10.1.0", link_a)
        router.add_route("10.2.0", link_b)
        return sim, router, a, b

    def test_forwards_between_hosts(self):
        sim, router, a, b = self.build()
        received = []
        sock_b = UdpSocket(b, 9)
        sock_b.on_datagram = lambda *args: received.append(args)
        sock_a = UdpSocket(a)
        sock_a.send_to("10.2.0.2", 9, 100)
        sim.run(until=1.0)
        assert len(received) == 1
        assert router.forwarded == 1

    def test_no_route_drops(self):
        sim, router, a, b = self.build()
        sock_a = UdpSocket(a)
        sock_a.send_to("10.99.0.1", 9, 100)
        sim.run(until=1.0)
        assert router.dropped == 1

    def test_default_route(self):
        sim, router, a, b = self.build()
        router.set_default_route(router.links[1])  # towards b
        received = []
        sock_b = UdpSocket(b, 9)
        sock_b.on_datagram = lambda *args: received.append(args)
        # b is not 10.99.* but the default route points its way; host b
        # will drop it (wrong dst), so check the router forwarded it.
        sock_a = UdpSocket(a)
        sock_a.send_to("10.99.0.1", 9, 100)
        sim.run(until=1.0)
        assert router.forwarded == 1

    def test_ttl_exhaustion(self):
        sim, router, a, b = self.build()
        packet = Packet(src="10.1.0.2", dst="10.2.0.2", protocol=PROTO_UDP,
                        size=100, ttl=0)
        router.receive(packet, router.links[0])
        assert router.dropped == 1

    def test_no_hairpin(self):
        """A packet is never forwarded back out its incoming link."""
        sim, router, a, b = self.build()
        packet = Packet(src="10.1.0.9", dst="10.1.0.2", protocol=PROTO_UDP,
                        size=100)
        router.receive(packet, router.links[0])  # arrived from a's link
        assert router.dropped == 1

    def test_remove_route(self):
        sim, router, a, b = self.build()
        router.remove_route("10.2.0")
        sock_a = UdpSocket(a)
        sock_a.send_to("10.2.0.2", 9, 100)
        sim.run(until=1.0)
        assert router.dropped == 1
