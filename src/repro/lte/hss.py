"""HSS / SubscriberDB: the subscriber database service.

In the baseline this is Magma's SubscriberDB answering S6a requests (two
round-trips per attach).  It can be placed "local", "us-west-1", or
"us-east-1" in the Fig 7 experiment — placement only changes the link it
sits behind, not this code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.net import Host

from . import s6a
from .aka import KEY_SIZE, generate_auth_vector
from .identifiers import Imsi
from .signaling import SignalingNode

# Per-request processing costs (seconds), calibrated so the SubscriberDB
# contributes ~2.5 ms per baseline attach (Fig 7 local bars).
AIR_PROCESSING = 0.0015
ULR_PROCESSING = 0.0010


@dataclass
class SubscriberRecord:
    """One provisioned subscriber."""

    imsi: str
    k: bytes
    sqn: int = 0
    subscription: s6a.SubscriptionData = field(
        default_factory=s6a.SubscriptionData)
    barred: bool = False


class SubscriberDb(SignalingNode):
    """The HSS: answers AIR (vector generation) and ULR (location update)."""

    processing_costs = {
        s6a.AuthenticationInformationRequest: AIR_PROCESSING,
        s6a.UpdateLocationRequest: ULR_PROCESSING,
    }
    obs_category = "cloud"
    _SPAN_NAMES = {
        s6a.AuthenticationInformationRequest: "s6a.hss_air",
        s6a.UpdateLocationRequest: "s6a.hss_ulr",
    }

    def __init__(self, host: Host, name: str = "subscriberdb",
                 rng: Optional[random.Random] = None):
        super().__init__(host, name)
        self.subscribers: dict[str, SubscriberRecord] = {}
        self.rng = rng or random.Random(0)
        self.air_count = 0
        self.ulr_count = 0
        self.on(s6a.AuthenticationInformationRequest, self._handle_air)
        self.on(s6a.UpdateLocationRequest, self._handle_ulr)

    # -- provisioning ---------------------------------------------------------
    def provision(self, imsi: Imsi | str, k: Optional[bytes] = None,
                  subscription: Optional[s6a.SubscriptionData] = None
                  ) -> SubscriberRecord:
        """Add a subscriber (SIM provisioning).  Returns the record."""
        imsi_str = str(imsi)
        if k is None:
            k = bytes(self.rng.getrandbits(8) for _ in range(KEY_SIZE))
        record = SubscriberRecord(
            imsi=imsi_str, k=k,
            subscription=subscription or s6a.SubscriptionData())
        self.subscribers[imsi_str] = record
        return record

    def bar(self, imsi: Imsi | str) -> None:
        """Bar a subscriber (attach attempts will be rejected)."""
        self.subscribers[str(imsi)].barred = True

    # -- S6a handlers -----------------------------------------------------------
    def _handle_air(self, src_ip: str,
                    request: s6a.AuthenticationInformationRequest) -> None:
        self.air_count += 1
        record = self.subscribers.get(request.imsi)
        if record is None or record.barred:
            answer = s6a.AuthenticationInformationAnswer(
                imsi=request.imsi, result="USER_UNKNOWN")
        else:
            vectors = []
            for _ in range(request.num_vectors):
                record.sqn += 1
                rand = bytes(self.rng.getrandbits(8) for _ in range(16))
                vectors.append(generate_auth_vector(
                    record.k, record.sqn, request.visited_plmn, rand=rand))
            answer = s6a.AuthenticationInformationAnswer(
                imsi=request.imsi, result="SUCCESS", vectors=tuple(vectors))
        self.send(src_ip, answer, size=s6a.message_size(answer))

    def _handle_ulr(self, src_ip: str,
                    request: s6a.UpdateLocationRequest) -> None:
        self.ulr_count += 1
        record = self.subscribers.get(request.imsi)
        if record is None or record.barred:
            answer = s6a.UpdateLocationAnswer(
                imsi=request.imsi, result="USER_UNKNOWN")
        else:
            answer = s6a.UpdateLocationAnswer(
                imsi=request.imsi, result="SUCCESS",
                subscription=record.subscription)
        self.send(src_ip, answer, size=s6a.message_size(answer))
