"""Cellular identifiers: PLMN, IMSI, GUTI, TAI, and generators."""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class Plmn:
    """Public Land Mobile Network identity (MCC + MNC)."""

    mcc: str
    mnc: str

    def __post_init__(self):
        if not (self.mcc.isdigit() and len(self.mcc) == 3):
            raise ValueError(f"MCC must be 3 digits, got {self.mcc!r}")
        if not (self.mnc.isdigit() and len(self.mnc) in (2, 3)):
            raise ValueError(f"MNC must be 2-3 digits, got {self.mnc!r}")

    def __str__(self) -> str:
        return f"{self.mcc}{self.mnc}"


TEST_PLMN = Plmn("001", "01")


@dataclass(frozen=True)
class Imsi:
    """International Mobile Subscriber Identity.

    In CellBricks the IMSI is only ever sent *encrypted to the broker*
    (§4.1: the bTelco "never observes a cleartext identifier for U" and so
    cannot act as an IMSI catcher); in the legacy baseline it is sent in
    the clear during the initial attach, as today.
    """

    plmn: Plmn
    msin: str  # 9-10 digit subscriber number

    def __post_init__(self):
        if not (self.msin.isdigit() and 9 <= len(self.msin) <= 10):
            raise ValueError(f"MSIN must be 9-10 digits, got {self.msin!r}")

    def __str__(self) -> str:
        return f"{self.plmn}{self.msin}"


@dataclass(frozen=True)
class Guti:
    """Globally Unique Temporary Identity assigned post-attach."""

    plmn: Plmn
    mme_group: int
    mme_code: int
    m_tmsi: int

    def __str__(self) -> str:
        return (f"{self.plmn}-{self.mme_group:04x}-{self.mme_code:02x}-"
                f"{self.m_tmsi:08x}")


@dataclass(frozen=True)
class Tai:
    """Tracking Area Identity."""

    plmn: Plmn
    tac: int

    def __str__(self) -> str:
        return f"{self.plmn}-{self.tac:04x}"


class ImsiGenerator:
    """Sequential IMSI factory for populating subscriber databases: the
    test PLMN, MSINs from 1."""

    def __init__(self):
        self._counter = itertools.count(1)

    def next(self) -> Imsi:
        return Imsi(TEST_PLMN, f"{next(self._counter):09d}")
