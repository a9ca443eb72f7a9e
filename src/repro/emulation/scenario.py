"""Paired MNO-vs-CellBricks emulation runs (§6.2's methodology).

The paper drives two UE+server pairs simultaneously: one running plain
TCP against today's infrastructure (the baseline — its IP never changes),
one running MPTCP with emulated IP changes at every detected handover
(CellBricks).  :class:`PairedEmulation` reproduces that: two parallel
cellular paths share one radio-capacity realization and one handover
schedule; the baseline path sees only the radio gap, while the CellBricks
path additionally detaches, waits the attachment latency *d*, and
re-attaches under a new prefix — triggering the host's MPTCP/SIP
machinery.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.apps import (
    HlsPlayer,
    HlsServer,
    IperfClient,
    IperfServer,
    KIND_MPTCP,
    KIND_TCP,
    PingClient,
    PingServer,
    WebClient,
    WebServer,
    make_call,
)
from repro.net import CellularPath, Simulator

from .radio import CapacityProcess, generate_handover_schedule
from repro.apps.web import DEFAULT_OBJECT_BYTES as WEB_PAGE_OBJECTS

from .routes import ARCH_CELLBRICKS, ARCH_MNO, ROUTES, RouteConditions

#: default CellBricks attachment latency: the us-west-1 prototype
#: measurement of §6.1 (the paper's default for d).
DEFAULT_ATTACH_LATENCY = 0.03168
DEFAULT_ADDRESS_WAIT = 0.5  # mainline MPTCP's address_worker period
WEB_THINK_TIME = 2.0  # between one page load and the next


@dataclass
class EmulationConfig:
    """One emulation cell: route x time-of-day (+ knobs for Fig 9)."""

    route: str = "downtown"
    time_of_day: str = "day"
    duration: float = 120.0
    seed: int = 1
    attach_latency_s: float = DEFAULT_ATTACH_LATENCY
    address_wait_s: float = DEFAULT_ADDRESS_WAIT
    handovers: bool = True

    def conditions(self) -> RouteConditions:
        return ROUTES[self.route].conditions(self.time_of_day)


class PairedEmulation:
    """Two synchronized paths: `mno` (TCP) and `cb` (MPTCP + IP changes)."""

    def __init__(self, sim: Simulator, config: EmulationConfig):
        self.sim = sim
        self.config = config
        conditions = config.conditions()
        rng = random.Random(config.seed)

        def make_path(name: str, server_ip: str) -> CellularPath:
            return CellularPath(
                sim, name=name,
                shaper_rate=conditions.policed_rate_bps,
                radio_bandwidth=conditions.capacity_mean_bps,
                radio_loss=conditions.radio_loss_rate,
                server_address=server_ip,
                seed=rng.getrandbits(32))

        self.mno = make_path("mno", "52.9.1.10")
        self.cb = make_path("cb", "52.9.2.10")
        self.mno.assign_ue_address()
        self.cb.assign_ue_address()

        # One shared radio realization: both devices ride together.
        self.capacity = CapacityProcess(sim, conditions,
                                        seed=rng.getrandbits(32))
        self.capacity.listeners.append(self.mno.set_radio_bandwidth)
        self.capacity.listeners.append(self.cb.set_radio_bandwidth)

        self.handover_events = []
        if config.handovers:
            self.handover_events = generate_handover_schedule(
                config.duration, conditions.mttho_s,
                seed=rng.getrandbits(32))
        self._next_prefix = 129
        self.handovers_applied = 0

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Arm the capacity process and the handover schedule."""
        self.capacity.start(self.config.duration)
        for event in self.handover_events:
            self.sim.schedule_at(event.at, self._apply_handover, event.gap_s)

    def _apply_handover(self, gap_s: float) -> None:
        """One tower crossing, seen by both devices."""
        self.handovers_applied += 1
        # Baseline: the network-managed handover hides the gap — the
        # source eNodeB forwards in-flight data to the target (X2
        # forwarding), so the UE sees a short delay bubble, not a loss
        # burst, and its address never changes.
        self.mno.radio_pause(gap_s)
        # CellBricks: detach (bearer gone, IP invalidated), re-attach to
        # the next bTelco after the gap + attachment latency d.
        self.cb.detach(interruption_s=gap_s)
        prefix = f"10.{self._next_prefix}.0"
        self._next_prefix += 1
        if self._next_prefix > 250:
            self._next_prefix = 129
        # reset_shaper=False: as in the paper's emulation, the underlying
        # carrier (and hence its policer state) is the same across the
        # emulated IP change; only the address changes.
        self.sim.schedule(gap_s + self.config.attach_latency_s,
                          self.cb.attach, prefix, False)

    # -- application runners -------------------------------------------------
    # Each returns {"mno": metrics, "cellbricks": metrics}.

    def run_ping(self) -> dict:
        servers = {ARCH_MNO: PingServer(self.mno.server),
                   ARCH_CELLBRICKS: PingServer(self.cb.server)}
        clients = {
            ARCH_MNO: PingClient(self.mno.ue, self.mno.server.address),
            ARCH_CELLBRICKS: PingClient(self.cb.ue, self.cb.server.address),
        }
        self.start()
        for client in clients.values():
            client.start(self.config.duration)
        self.sim.run(until=self.sim.now + self.config.duration + 2.0)
        return {arch: client.stats for arch, client in clients.items()}

    def run_iperf(self) -> dict:
        IperfServer(KIND_TCP, self.mno.server)
        IperfServer(KIND_MPTCP, self.cb.server)
        clients = {
            ARCH_MNO: IperfClient(KIND_TCP, self.mno.ue,
                                  self.mno.server.address),
            ARCH_CELLBRICKS: IperfClient(
                KIND_MPTCP, self.cb.ue, self.cb.server.address,
                address_wait=self.config.address_wait_s),
        }
        self.start()
        for client in clients.values():
            client.start()
        self.sim.run(until=self.sim.now + self.config.duration)
        return {arch: client.stats for arch, client in clients.items()}

    def run_voip(self) -> dict:
        caller_mno, callee_mno = make_call(self.mno.ue, self.mno.server,
                                           self.config.duration)
        caller_cb, callee_cb = make_call(self.cb.ue, self.cb.server,
                                         self.config.duration)
        self.start()
        self.sim.run(until=self.sim.now + self.config.duration + 2.0)
        # Downlink (what the mobile user hears) is the caller-side stats.
        return {ARCH_MNO: caller_mno.stats, ARCH_CELLBRICKS: caller_cb.stats}

    def run_video(self) -> dict:
        HlsServer(KIND_TCP, self.mno.server)
        HlsServer(KIND_MPTCP, self.cb.server)
        players = {
            ARCH_MNO: HlsPlayer(KIND_TCP, self.mno.ue,
                                self.mno.server.address),
            ARCH_CELLBRICKS: HlsPlayer(
                KIND_MPTCP, self.cb.ue, self.cb.server.address,
                address_wait=self.config.address_wait_s),
        }
        self.start()
        for player in players.values():
            player.start(self.config.duration)
        self.sim.run(until=self.sim.now + self.config.duration + 2.0)
        return {arch: player.stats for arch, player in players.items()}

    def run_web(self) -> dict:
        """Repeated page loads for the whole duration; returns lists of
        load times per architecture."""
        WebServer(KIND_TCP, self.mno.server, object_bytes=WEB_PAGE_OBJECTS)
        WebServer(KIND_MPTCP, self.cb.server, object_bytes=WEB_PAGE_OBJECTS)
        times = {ARCH_MNO: [], ARCH_CELLBRICKS: []}
        self.start()
        self._web_loop(ARCH_MNO, KIND_TCP, self.mno, times)
        self._web_loop(ARCH_CELLBRICKS, KIND_MPTCP, self.cb, times)
        self.sim.run(until=self.sim.now + self.config.duration + 5.0)
        return times

    def _web_loop(self, arch: str, kind: str, path: CellularPath,
                  times: dict) -> None:
        deadline = self.sim.now + self.config.duration

        def load_once():
            if self.sim.now >= deadline:
                return
            client = WebClient(kind, path.ue, path.server.address,
                               object_bytes=WEB_PAGE_OBJECTS,
                               address_wait=self.config.address_wait_s)

            def done(result):
                times[arch].append(result.load_time)
                self.sim.schedule(WEB_THINK_TIME, load_once)

            client.on_loaded = done
            client.load()

        load_once()
