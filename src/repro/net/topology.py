"""Topology builders for the CellBricks experiments.

The canonical data-path topology (mirroring the paper's §6.2 setup) is::

    UE host -- radio link -- bTelco gateway -- WAN link -- server host
                (shaped,        (router,        (fat,
                 lossy,          owns the        fixed
                 outages)        UE address      delay)
                                 pool)

:class:`CellularPath` wires it together and exposes the knobs the
emulation driver turns: radio bandwidth, the carrier token-bucket policy,
handover interruptions, and UE address (re)assignment from per-bTelco
pools.
"""

from __future__ import annotations

from typing import Optional

from .link import Link, TokenBucket
from .node import Host, Router
from .packet import AddressPool
from .sim import Simulator

# Latency calibration (one-way, seconds).  Radio + core + WAN(us-west)
# yields the ~45-50 ms UE->EC2 ping p50 reported in Table 1.
RADIO_DELAY = 0.018
CORE_DELAY = 0.002
WAN_DELAY = 0.004

DEFAULT_RADIO_BANDWIDTH = 75e6   # LTE cat-4-ish air interface ceiling
UPLINK_BANDWIDTH = 25e6
WAN_BANDWIDTH = 1e9
DEFAULT_RADIO_LOSS = 0.0005
RADIO_QUEUE_LIMIT = 384 * 1024   # bytes
UE_POOL_PREFIX = "10.128.0"


class CellularPath:
    """A UE's end-to-end path through one bTelco to a fixed server.

    Every link half draws its losses from a generator seeded by its own
    name (``{name}-radio:a->b`` and so on), so ``name`` alone fixes the
    loss streams.  ``seed`` is accepted and unused; callers still pass
    one (``PairedEmulation.make_path`` draws it from the scenario's
    generator, and that generator's later draws depend on the draw).
    Whether the two paths of a paired emulation should share one radio
    loss stream is ROADMAP item 1(a)'s choice.
    """

    def __init__(self, sim: Simulator, name: str = "path",
                 radio_bandwidth: float = DEFAULT_RADIO_BANDWIDTH,
                 radio_loss: float = DEFAULT_RADIO_LOSS,
                 shaper_rate: Optional[float] = None,
                 shaper_burst: Optional[float] = None,
                 server_address: str = "52.9.0.10",
                 seed: int = 0):
        self.sim = sim
        self.ue = Host(sim, f"{name}-ue")
        self.gateway = Router(sim, f"{name}-gw",
                              forwarding_delay_s=CORE_DELAY)
        self.server = Host(sim, f"{name}-server", address=server_address)

        shaper = None
        if shaper_rate is not None:
            burst = shaper_burst if shaper_burst is not None \
                else shaper_rate / 8.0 * 1.5  # 1.5 s of credit
            shaper = TokenBucket(shaper_rate, burst)
        self.downlink_shaper = shaper

        # gateway is endpoint "a" on the radio link, so a->b (gateway->UE)
        # is the downlink and carries the carrier's shaper.
        self.radio_link = Link(
            sim, f"{name}-radio", self.gateway, self.ue,
            bandwidth_bps=radio_bandwidth, delay_s=RADIO_DELAY,
            loss_rate=radio_loss, queue_limit_bytes=RADIO_QUEUE_LIMIT,
            shaper_down=shaper, bandwidth_up_bps=UPLINK_BANDWIDTH)
        self.wan_link = Link(
            sim, f"{name}-wan", self.gateway, self.server,
            bandwidth_bps=WAN_BANDWIDTH, delay_s=WAN_DELAY,
            queue_limit_bytes=4 * 1024 * 1024)

        self.pools: dict[str, AddressPool] = {}
        self._register_pool(UE_POOL_PREFIX)
        self.gateway.set_default_route(self.wan_link)

        self._current_pool = UE_POOL_PREFIX

    # -- address management -------------------------------------------------
    def _register_pool(self, prefix: str) -> AddressPool:
        if prefix not in self.pools:
            self.pools[prefix] = AddressPool(prefix)
            self.gateway.add_route(prefix, self.radio_link)
        return self.pools[prefix]

    def assign_ue_address(self, pool_prefix: Optional[str] = None) -> str:
        """Allocate and install a UE address (a fresh attach)."""
        prefix = pool_prefix or self._current_pool
        pool = self._register_pool(prefix)
        old = self.ue.address
        address = pool.allocate()
        self.ue.set_address(address)
        for candidate in self.pools.values():
            if candidate.owns(old):
                candidate.release(old)
        self._current_pool = prefix
        return address

    def install_ue_address(self, address: str) -> None:
        """Install a specific UE address (one granted by a bTelco's PGW),
        adding the gateway route for its prefix."""
        prefix = address.rsplit(".", 1)[0]
        self._register_pool(prefix)
        self.gateway.add_route(prefix, self.radio_link)
        self.ue.set_address(address)
        self._current_pool = prefix
        if self.downlink_shaper is not None:
            self.downlink_shaper.reset(self.sim.now)

    def invalidate_ue_address(self) -> None:
        """Model detachment: the interface shows 0.0.0.0."""
        self.ue.invalidate_address()

    def detach(self, interruption_s: float = 0.0) -> None:
        """Full detach from the current bTelco (CellBricks switch).

        Tears down the radio bearer (flushing its queues — packets buffered
        for the old attachment are gone), drops the gateway route for the
        old prefix so stale server traffic no longer consumes air time, and
        invalidates the UE address.
        """
        old = self.ue.address
        self.radio_link.flush()
        if interruption_s > 0:
            self.radio_link.interrupt(interruption_s)
        old_prefix = old.rsplit(".", 1)[0]
        self.gateway.remove_route(old_prefix)
        self.invalidate_ue_address()

    def attach(self, pool_prefix: Optional[str] = None,
               reset_shaper: bool = True) -> str:
        """Attach to a (new) bTelco: fresh address, fresh shaper credit."""
        address = self.assign_ue_address(pool_prefix)
        prefix = address.rsplit(".", 1)[0]
        self.gateway.add_route(prefix, self.radio_link)
        if reset_shaper and self.downlink_shaper is not None:
            # A different bTelco's policer starts with a full bucket.
            self.downlink_shaper.reset(self.sim.now)
        return address

    # -- emulation knobs ------------------------------------------------------
    def set_radio_bandwidth(self, bandwidth_bps: float) -> None:
        """Per-sample radio capacity (downlink); uplink scales at 1/3."""
        self.radio_link.a_to_b.set_bandwidth(bandwidth_bps)
        self.radio_link.b_to_a.set_bandwidth(max(bandwidth_bps / 3.0, 1e6))

    def set_shaper_rate(self, rate_bps: Optional[float]) -> None:
        """Switch the carrier policing rate (day/night policy change)."""
        if rate_bps is None:
            self.radio_link.a_to_b.shaper = None
        elif self.downlink_shaper is None:
            self.downlink_shaper = TokenBucket(rate_bps, rate_bps / 8.0 * 1.5)
            self.radio_link.a_to_b.shaper = self.downlink_shaper
        else:
            self.downlink_shaper.set_rate(rate_bps)
            self.radio_link.a_to_b.shaper = self.downlink_shaper

    def radio_pause(self, duration_s: float) -> None:
        """A network-managed handover: delivery stalls but nothing is
        lost (source-to-target forwarding)."""
        self.radio_link.pause(duration_s)
