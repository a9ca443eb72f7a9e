"""eNodeB: the base station as an S1 signaling relay.

CellBricks "allows reuse of unmodified commercially available cellular
base station equipment" (§5) — accordingly this component is identical in
both architectures: it terminates the (unmodeled) radio stack and relays
NAS transparently between UEs and the AGW, charging only forwarding time.
The Fig 7 experiment excludes RRC/lower-layer time exactly as the paper
does, so only NAS-relay processing appears in the "eNB Proc." bars.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.net import Host

from .nas import NasMessage, message_size
from .signaling import CounterAttr, SignalingNode

# Per-relay-pass processing (seconds); ~7 passes per baseline attach gives
# the ~4.5 ms "eNB Proc." share of Fig 7.
RELAY_PROCESSING = 0.00065


@dataclass(frozen=True)
class S1UplinkNas:
    """eNodeB -> MME: NAS from a connected UE."""

    enb_ue_id: int
    nas: NasMessage
    initial: bool = False


@dataclass(frozen=True)
class S1DownlinkNas:
    """MME -> eNodeB: NAS towards a connected UE."""

    enb_ue_id: int
    nas: NasMessage


@dataclass(frozen=True)
class S1UeContextRelease:
    """MME -> eNodeB: drop the UE's RRC connection (detach)."""

    enb_ue_id: int


class ENodeB(SignalingNode):
    """Relays NAS between UEs (by source address) and the AGW."""

    default_processing_cost = RELAY_PROCESSING
    obs_category = "enb"
    relayed_uplink = CounterAttr("enb.relayed_uplink")
    relayed_downlink = CounterAttr("enb.relayed_downlink")

    def span_name(self, message: object) -> str:
        if isinstance(message, S1DownlinkNas):
            return "nas.enb_relay_down"
        if isinstance(message, S1UeContextRelease):
            return "nas.enb_release"
        return "nas.enb_relay_up"

    def __init__(self, host: Host, agw_ip: str, name: str = "enb"):
        super().__init__(host, name)
        self.agw_ip = agw_ip
        self._ue_ids = itertools.count(1)
        self._ue_by_id: dict[int, str] = {}      # enb_ue_id -> UE address
        self._id_by_ue: dict[str, int] = {}
        self.default_handler = self._relay_uplink
        self.on(S1DownlinkNas, self._relay_downlink)
        self.on(S1UeContextRelease, self._release_context)

    # -- uplink: UE -> AGW ---------------------------------------------------
    def _relay_uplink(self, src_ip: str, nas: object) -> None:
        if not isinstance(nas, NasMessage):
            return
        ue_id = self._id_by_ue.get(src_ip)
        initial = ue_id is None
        if initial:
            ue_id = next(self._ue_ids)
            self._id_by_ue[src_ip] = ue_id
            self._ue_by_id[ue_id] = src_ip
        self.relayed_uplink += 1
        wrapped = S1UplinkNas(enb_ue_id=ue_id, nas=nas, initial=initial)
        self.send(self.agw_ip, wrapped, size=message_size(nas) + 24)

    # -- downlink: AGW -> UE ----------------------------------------------------
    def _relay_downlink(self, src_ip: str, wrapped: S1DownlinkNas) -> None:
        ue_ip = self._ue_by_id.get(wrapped.enb_ue_id)
        if ue_ip is None:
            return  # UE context released meanwhile
        self.relayed_downlink += 1
        self.send(ue_ip, wrapped.nas, size=message_size(wrapped.nas))

    def _release_context(self, src_ip: str,
                         release: S1UeContextRelease) -> None:
        ue_ip = self._ue_by_id.pop(release.enb_ue_id, None)
        if ue_ip is not None:
            self._id_by_ue.pop(ue_ip, None)

    @property
    def connected_ues(self) -> int:
        return len(self._ue_by_id)
