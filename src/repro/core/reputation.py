"""Reputation system (§4.3, Fig 5).

The broker maintains (i) a per-bTelco aggregate reputation score derived
from report mismatches, weighted by degree, and (ii) a suspect list of
its own users whose devices appear tampered.  bTelcos symmetrically keep
a per-broker score.  The paper's prototype defers this component; we
implement the design it describes and evaluate it in the XTRA-BILL bench.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class MismatchEvent:
    """One recorded accounting anomaly."""

    session_id: str
    seq: int
    degree: float    # how far past the threshold, ≥ 1.0
    at: float


@dataclass
class PartyHistory:
    """Rolling accounting history for one counterparty."""

    ok_count: int = 0
    mismatches: list = field(default_factory=list)

    @property
    def mismatch_count(self) -> int:
        return len(self.mismatches)

    def weighted_mismatch(self) -> float:
        """Mismatches weighted by their degree (Fig 5's 'weighted by the
        degree of mismatch')."""
        return sum(min(event.degree, 10.0) for event in self.mismatches)


class ReputationSystem:
    """Scores counterparties from accounting-report history.

    ``score = ok / (ok + weighted_mismatch)`` in [0, 1]; parties with no
    history score 1.0 (innocent until measured).  The acceptance threshold
    and the smoothing prior are policy knobs the paper leaves "open to
    innovation".
    """

    #: clean reports every party starts with (the smoothing prior).
    PRIOR_OK = 5

    def __init__(self, acceptance_threshold: float = 0.8,
                 suspect_after: int = 3):
        self.acceptance_threshold = acceptance_threshold
        self.suspect_after = suspect_after
        self.btelcos: dict[str, PartyHistory] = {}
        self.ue_suspects: dict[str, int] = {}

    # -- recording -----------------------------------------------------------
    def _history(self, id_t: str) -> PartyHistory:
        return self.btelcos.setdefault(id_t, PartyHistory())

    def record_ok(self, id_t: str) -> None:
        self._history(id_t).ok_count += 1

    def record_mismatch(self, id_t: str, session_id: str, seq: int,
                        degree: float, at: float) -> None:
        self._history(id_t).mismatches.append(
            MismatchEvent(session_id=session_id, seq=seq,
                          degree=max(degree, 1.0), at=at))

    def flag_ue(self, id_u: str) -> None:
        """Count a tamper suspicion against one of our own subscribers."""
        self.ue_suspects[id_u] = self.ue_suspects.get(id_u, 0) + 1

    # -- queries --------------------------------------------------------------
    def btelco_score(self, id_t: str) -> float:
        history = self.btelcos.get(id_t)
        if history is None:
            return 1.0
        ok = history.ok_count + self.PRIOR_OK
        return ok / (ok + history.weighted_mismatch())

    def btelco_acceptable(self, id_t: str) -> bool:
        """The admission decision used by the broker's SAP policy."""
        return self.btelco_score(id_t) >= self.acceptance_threshold

    def ue_suspected(self, id_u: str) -> bool:
        return self.ue_suspects.get(id_u, 0) >= self.suspect_after

    def mismatch_count(self, id_t: str) -> int:
        history = self.btelcos.get(id_t)
        return history.mismatch_count if history else 0
