"""Verifiable billing (§4.3).

UE and bTelco *independently* measure each session's traffic and
periodically send encrypted, signed traffic reports to the broker.  The
broker aligns the two report streams by (session, sequence), compares the
reported downlink usage against a loss-aware threshold (Fig 5), records
mismatches into the reputation system, and settles charges from the
trusted (baseband-measured, tamper-resistant) UE reports.

Report contents follow the paper: session id, relative timestamp, usage
in bytes per direction, call/SMS counters, and the 3GPP QoS metrics
(bit rates, loss, delay) for both directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
import json
from typing import Optional

from repro.crypto import CryptoError, PrivateKey, PublicKey

from .reputation import ReputationSystem
from .sap import SapGrant

REPORTER_UE = "ue"
REPORTER_BTELCO = "btelco"

DEFAULT_EPSILON = 0.05   # fixed tolerance ratio (Fig 5)
PRICE_PER_GB = 2.0


class BillingError(Exception):
    """Raised on malformed or unverifiable report uploads."""


@dataclass(frozen=True)
class TrafficReport:
    """One reporting interval's measurements (paper §4.3 item list)."""

    session_id: str
    seq: int                    # report sequence within the session
    interval_start: float       # relative timestamps within the session
    interval_end: float
    ul_bytes: int
    dl_bytes: int
    dl_loss_rate: float = 0.0
    ul_loss_rate: float = 0.0
    avg_dl_bitrate_bps: float = 0.0
    avg_ul_bitrate_bps: float = 0.0
    avg_delay_ms: float = 0.0
    call_seconds: float = 0.0
    sms_count: int = 0

    def to_bytes(self) -> bytes:
        return json.dumps(asdict(self), sort_keys=True).encode()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "TrafficReport":
        try:
            return cls(**json.loads(raw.decode()))
        except (TypeError, ValueError) as exc:
            raise BillingError(f"malformed traffic report: {exc}") from exc


@dataclass(frozen=True)
class TrafficReportUpload:
    """The wire form: Enc_pkB(report) signed by the reporter.

    Signing happens *inside the baseband* on the UE side (the paper's
    tamper-resistance argument); here that means the meter object signs
    before anything else can modify the values.
    """

    session_id: str
    seq: int
    reporter: str               # REPORTER_UE or REPORTER_BTELCO
    blob: bytes
    signature: bytes

    @property
    def wire_size(self) -> int:
        return len(self.blob) + len(self.signature) + 48


def make_upload(report: TrafficReport, reporter: str,
                reporter_key: PrivateKey,
                broker_public_key: PublicKey) -> TrafficReportUpload:
    """Seal and sign a report for upload."""
    blob = broker_public_key.encrypt(report.to_bytes())
    return TrafficReportUpload(
        session_id=report.session_id, seq=report.seq, reporter=reporter,
        blob=blob, signature=reporter_key.sign(blob))


@dataclass
class SessionLedger:
    """Broker-side per-session billing state."""

    grant: SapGrant
    ue_reports: dict = field(default_factory=dict)      # seq -> report
    btelco_reports: dict = field(default_factory=dict)
    checked_seqs: set = field(default_factory=set)
    mismatches: int = 0
    checked_pairs: int = 0
    billable_dl_bytes: int = 0
    billable_ul_bytes: int = 0
    #: set when the grant expired or was revoked: the verified totals are
    #: frozen for settlement and further uploads are refused.
    closed: bool = False


@dataclass(frozen=True)
class Invoice:
    """Broker -> subscriber (and bTelco settlement) summary."""

    session_id: str
    id_u: str
    id_t: str
    dl_bytes: int
    ul_bytes: int
    amount: float
    disputed: bool


@dataclass(frozen=True)
class ArchivedLedger:
    """Immutable settlement record of a retired session ledger.

    Once a session is settled, the broker has no reason to keep the raw
    report streams in memory — but billing disputes need the verified
    outcome long after the session ended.  The archive keeps exactly
    that: the invoice plus the cross-check evidence counts."""

    invoice: Invoice
    checked_pairs: int
    mismatches: int
    ue_report_count: int
    btelco_report_count: int
    settled_at: float


class BillingVerifier:
    """The broker's report cross-checker + settlement engine (Fig 5)."""

    def __init__(self, broker_key: PrivateKey,
                 reputation: Optional[ReputationSystem] = None,
                 epsilon: float = DEFAULT_EPSILON):
        self.broker_key = broker_key
        self.reputation = reputation or ReputationSystem()
        self.epsilon = epsilon
        self.sessions: dict[str, SessionLedger] = {}
        #: key lookup for verifying report signatures:
        #: (session_id, reporter) -> PublicKey
        self.reporter_keys: dict[tuple, PublicKey] = {}
        self.rejected_uploads = 0
        #: report seqs that never got their counterpart by session close —
        #: lost uploads that would otherwise silently skew the Fig 5
        #: cross-check toward false accusations.
        self.reports_unmatched = 0
        #: append-only settlement history (see :meth:`archive_session`).
        self.archive: list[ArchivedLedger] = []
        self._archive_by_session: dict[str, ArchivedLedger] = {}
        self.ledgers_archived = 0
        #: audit hook: called with each :class:`ArchivedLedger` the
        #: moment it is written (an external audit log / dispute system).
        self.on_archive = None

    # -- session lifecycle --------------------------------------------------
    def open_session(self, grant: SapGrant,
                     ue_public_key: Optional[PublicKey] = None,
                     btelco_public_key: Optional[PublicKey] = None) -> None:
        self.sessions[grant.session_id] = SessionLedger(grant=grant)
        if ue_public_key is not None:
            self.reporter_keys[(grant.session_id, REPORTER_UE)] = ue_public_key
        if btelco_public_key is not None:
            self.reporter_keys[(grant.session_id, REPORTER_BTELCO)] = \
                btelco_public_key

    def register_reporter_key(self, session_id: str, reporter: str,
                              public_key: PublicKey) -> None:
        self.reporter_keys[(session_id, reporter)] = public_key

    def close_session(self, session_id: str) -> None:
        """Stop accepting reports for an ended (expired/revoked) session.

        The ledger itself survives — settlement still needs the verified
        totals — but the reporter-key entries are released so per-session
        broker state stops growing with attach history.
        """
        ledger = self.sessions.get(session_id)
        if ledger is not None and not ledger.closed:
            ledger.closed = True
            unmatched = (set(ledger.ue_reports)
                         ^ set(ledger.btelco_reports))
            self.reports_unmatched += len(unmatched)
        self.reporter_keys.pop((session_id, REPORTER_UE), None)
        self.reporter_keys.pop((session_id, REPORTER_BTELCO), None)

    # -- ingestion ------------------------------------------------------------
    def ingest(self, upload: TrafficReportUpload, now: float) -> bool:
        """Verify, decrypt, store, and cross-check one uploaded report.

        Returns True if the upload was accepted (regardless of whether the
        cross-check then flags a mismatch).
        """
        ledger = self.sessions.get(upload.session_id)
        if ledger is None or ledger.closed:
            self.rejected_uploads += 1
            return False
        key = self.reporter_keys.get((upload.session_id, upload.reporter))
        if key is not None and not key.verify(upload.blob, upload.signature):
            self.rejected_uploads += 1
            return False
        try:
            report = TrafficReport.from_bytes(
                self.broker_key.decrypt(upload.blob))
        except (CryptoError, BillingError):
            self.rejected_uploads += 1
            return False
        if report.session_id != upload.session_id:
            self.rejected_uploads += 1
            return False
        store = (ledger.ue_reports if upload.reporter == REPORTER_UE
                 else ledger.btelco_reports)
        store[report.seq] = report
        self._cross_check(ledger, report.seq, now)
        return True

    # -- the Fig 5 check -----------------------------------------------------------
    def _cross_check(self, ledger: SessionLedger, seq: int,
                     now: float) -> None:
        ue_report = ledger.ue_reports.get(seq)
        t_report = ledger.btelco_reports.get(seq)
        if ue_report is None or t_report is None:
            return  # wait for the counterpart
        if seq in ledger.checked_seqs:
            return  # replayed upload: already cross-checked and billed
        ledger.checked_seqs.add(seq)
        ledger.checked_pairs += 1
        grant = ledger.grant

        # threshold = (reported DL loss + epsilon) * claimed usage: traffic
        # the bTelco sent but the UE lost is legitimately uncounted at the
        # UE, so the tolerance scales with the observed loss rate.
        threshold = (ue_report.dl_loss_rate + self.epsilon) \
            * max(t_report.dl_bytes, 1)
        discrepancy = abs(t_report.dl_bytes - ue_report.dl_bytes)
        if discrepancy > threshold:
            ledger.mismatches += 1
            degree = discrepancy / max(threshold, 1.0)
            self.reputation.record_mismatch(
                grant.id_t, grant.session_id, seq, degree, at=now)
            if ue_report.dl_bytes > t_report.dl_bytes:
                # The UE claims *more* than the bTelco delivered — the UE
                # meter is the suspect (over-reporting helps nobody else).
                self.reputation.flag_ue(grant.id_u)
        else:
            self.reputation.record_ok(grant.id_t)
        # Settle from the (tamper-resistant) UE measurements.
        ledger.billable_dl_bytes += ue_report.dl_bytes
        ledger.billable_ul_bytes += ue_report.ul_bytes

    # -- settlement ---------------------------------------------------------------
    def settle(self, session_id: str) -> Invoice:
        """Produce the invoice for a session (B-to-U billing; T-to-B
        settlement uses the same numbers)."""
        ledger = self.sessions.get(session_id)
        if ledger is None:
            raise BillingError(f"unknown session {session_id}")
        total = ledger.billable_dl_bytes + ledger.billable_ul_bytes
        amount = total / 1e9 * PRICE_PER_GB
        return Invoice(
            session_id=session_id, id_u=ledger.grant.id_u,
            id_t=ledger.grant.id_t, dl_bytes=ledger.billable_dl_bytes,
            ul_bytes=ledger.billable_ul_bytes, amount=round(amount, 6),
            disputed=ledger.mismatches > 0)

    # -- archival ----------------------------------------------------------------
    def archive_session(self, session_id: str, now: float = 0.0) -> Invoice:
        """Settle a session and retire its ledger to the append-only archive.

        The live ledger (raw report streams, checked-seq set) is dropped —
        that is the memory the archive exists to reclaim — while the
        verified outcome stays retrievable forever via :meth:`audit`.
        Still-open sessions are closed first, so archiving an active
        session is an explicit early settlement, not an error.
        """
        ledger = self.sessions.get(session_id)
        if ledger is None:
            raise BillingError(f"unknown session {session_id}")
        if not ledger.closed:
            self.close_session(session_id)
        invoice = self.settle(session_id)
        record = ArchivedLedger(
            invoice=invoice, checked_pairs=ledger.checked_pairs,
            mismatches=ledger.mismatches,
            ue_report_count=len(ledger.ue_reports),
            btelco_report_count=len(ledger.btelco_reports),
            settled_at=now)
        del self.sessions[session_id]
        self.archive.append(record)
        self._archive_by_session[session_id] = record
        self.ledgers_archived += 1
        if self.on_archive is not None:
            self.on_archive(record)
        return invoice

    def audit(self, session_id: str) -> Optional[ArchivedLedger]:
        """Retrieve the archived settlement record for a session."""
        return self._archive_by_session.get(session_id)

    def audit_subscriber(self, id_u: str) -> tuple:
        """Every archived settlement for one subscriber, oldest first."""
        return tuple(record for record in self.archive
                     if record.invoice.id_u == id_u)


@dataclass
class Meter:
    """A traffic meter that emits signed report uploads.

    ``fraud_factor`` models dishonest reporting for the billing
    experiments: a bTelco inflating usage (> 1) or a tampered UE deflating
    it (< 1).  On an honest device this sits at exactly 1.0 — and on a real
    UE this code runs inside the baseband, which is why the broker can
    trust it (§4.3).
    """

    session_id: str
    reporter: str
    key: PrivateKey
    broker_public_key: PublicKey
    report_interval: float = 30.0
    fraud_factor: float = 1.0
    dl_bytes: int = 0
    ul_bytes: int = 0
    dl_lost_packets: int = 0
    dl_received_packets: int = 0
    seq: int = 0
    session_started_at: float = 0.0
    _last_report_at: float = 0.0

    def record_dl(self, nbytes: int) -> None:
        self.dl_bytes += nbytes
        self.dl_received_packets += 1

    def record_ul(self, nbytes: int) -> None:
        self.ul_bytes += nbytes

    def emit(self, now: float) -> TrafficReportUpload:
        """Build, sign, and reset the interval counters."""
        total_packets = self.dl_received_packets + self.dl_lost_packets
        loss = self.dl_lost_packets / total_packets if total_packets else 0.0
        interval = max(now - self._last_report_at, 1e-9)
        report = TrafficReport(
            session_id=self.session_id, seq=self.seq,
            interval_start=self._last_report_at - self.session_started_at,
            interval_end=now - self.session_started_at,
            ul_bytes=int(self.ul_bytes * self.fraud_factor),
            dl_bytes=int(self.dl_bytes * self.fraud_factor),
            dl_loss_rate=loss,
            avg_dl_bitrate_bps=self.dl_bytes * 8 / interval,
            avg_ul_bitrate_bps=self.ul_bytes * 8 / interval)
        upload = make_upload(report, self.reporter, self.key,
                             self.broker_public_key)
        self.seq += 1
        self._last_report_at = now
        self.dl_bytes = self.ul_bytes = 0
        self.dl_lost_packets = self.dl_received_packets = 0
        return upload
