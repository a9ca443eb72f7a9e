"""Property-based tests: transport invariants under adverse conditions.

The central invariant the CellBricks mobility story depends on: the
connection-level byte stream is delivered *exactly once, in order,
completely* — whatever the loss pattern and however many addresses the
UE burns through.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net import (
    CellularPath,
    Host,
    Link,
    MptcpConnection,
    MptcpListener,
    Simulator,
    TcpConnection,
    TcpListener,
)


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=60_000),
                   min_size=1, max_size=8),
    loss=st.floats(min_value=0.0, max_value=0.08),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=30, deadline=None)
def test_tcp_delivers_exact_bytes_under_loss(sizes, loss, seed):
    sim = Simulator()
    a = Host(sim, "a", address="10.0.0.1")
    b = Host(sim, "b", address="10.0.0.2")
    Link(sim, f"ab{seed}", a, b, bandwidth_bps=20e6, delay_s=0.01,
         loss_rate=loss)
    received = [0]

    def accept(conn):
        conn.on_data = lambda n, m: received.__setitem__(0, received[0] + n)

    TcpListener(b, 80, accept)
    client = TcpConnection(a, "10.0.0.2", 80)

    def send_all():
        for size in sizes:
            client.send(size)

    client.on_established = send_all
    client.connect()
    sim.run(until=300.0)
    assert received[0] == sum(sizes)


@given(
    total=st.integers(min_value=100_000, max_value=3_000_000),
    handover_times=st.lists(
        st.floats(min_value=1.0, max_value=20.0),
        min_size=0, max_size=3, unique=True),
    loss=st.floats(min_value=0.0, max_value=0.02),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=20, deadline=None)
# The client's handshake ACK is lost and it has nothing to send: only a
# re-ACK of the server's re-sent SYN-ACK opens the connection.
@example(total=100_000, handover_times=[], loss=0.015625, seed=563)
def test_mptcp_delivers_exact_bytes_across_handovers(total, handover_times,
                                                     loss, seed):
    """No duplication, no loss, no reordering at the connection level —
    across arbitrary IP changes."""
    sim = Simulator()
    path = CellularPath(sim, name=f"p{seed}", shaper_rate=None,
                        radio_loss=loss)
    path.assign_ue_address()
    received = [0]

    def on_connection(conn):
        conn.send(total)

    MptcpListener(path.server, 443, on_connection)
    client = MptcpConnection(path.ue, path.server.address, 443,
                             address_wait=0.3)
    client.on_data = lambda n: received.__setitem__(0, received[0] + n)
    client.connect()

    # Space the handovers at least 1.5 s apart so attaches can complete.
    spaced = []
    for at in sorted(handover_times):
        if not spaced or at - spaced[-1] >= 1.5:
            spaced.append(at)
    for index, at in enumerate(spaced):
        def handover(prefix=f"10.{140 + index}.0"):
            path.detach(interruption_s=0.05)
            sim.schedule(0.1, path.attach, prefix)
        sim.schedule_at(at, handover)

    sim.run(until=600.0)
    assert received[0] == total
    assert client.bytes_delivered == total


@given(
    chunks=st.lists(st.integers(min_value=1, max_value=5000),
                    min_size=1, max_size=20),
)
@settings(max_examples=30, deadline=None)
def test_bidirectional_echo_conservation(chunks):
    """Whatever the client sends, the echo server returns byte-for-byte."""
    sim = Simulator()
    a = Host(sim, "a", address="10.0.0.1")
    b = Host(sim, "b", address="10.0.0.2")
    Link(sim, "ab", a, b, bandwidth_bps=10e6, delay_s=0.005)

    def accept(conn):
        conn.on_data = lambda n, m: conn.send(n)  # echo

    TcpListener(b, 7, accept)
    echoed = [0]
    client = TcpConnection(a, "10.0.0.2", 7)
    client.on_data = lambda n, m: echoed.__setitem__(0, echoed[0] + n)

    def send_all():
        for size in chunks:
            client.send(size)

    client.on_established = send_all
    client.connect()
    sim.run(until=60.0)
    assert echoed[0] == sum(chunks)
