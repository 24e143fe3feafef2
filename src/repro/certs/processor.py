"""The certificate processing pipeline.

Consumes certificates from two sources — TLS scans (via bus messages
carrying ``tls.certificate_sha256``) and CT log polling — then parses,
validates against root stores, checks CRL revocation, lints, and journals
the result as a certificate entity.  Revalidation re-runs validation daily,
since expiry and revocation change without new observations.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.certs.authority import CaWorld
from repro.certs.ct import CtLog
from repro.certs.validation import CertificateValidator, CrlRegistry, lint_certificate
from repro.certs.x509 import Certificate
from repro.pipeline.events import EventKind
from repro.pipeline.journal import EventJournal
from repro.protocols.base import TlsEndpointProfile

__all__ = ["cert_entity_id", "CertificateProcessor"]


def cert_entity_id(sha256: str) -> str:
    return f"cert:{sha256}"


class CertificateProcessor:
    """Parses, validates, lints, journals, and revalidates certificates."""

    def __init__(
        self,
        journal: EventJournal,
        world: Optional[CaWorld] = None,
        crl: Optional[CrlRegistry] = None,
        ct_log: Optional[CtLog] = None,
        on_processed=None,
    ) -> None:
        self.journal = journal
        self.world = world or CaWorld()
        self.crl = crl or CrlRegistry()
        self.validator = CertificateValidator(self.world, self.crl)
        self.ct_log = ct_log
        #: Optional hook called with (cert, time) after first processing
        #: (the platform uses it to index certificate documents).
        self.on_processed = on_processed
        self._ct_cursor = 0
        self._known: Dict[str, Certificate] = {}
        self.processed = 0

    # -- ingestion ---------------------------------------------------------

    def observe_certificate(self, cert: Certificate, time: float, source: str) -> None:
        """Process one certificate observation (scan or CT)."""
        entity = cert_entity_id(cert.sha256)
        first_time = cert.sha256 not in self._known
        if first_time:
            self._known[cert.sha256] = cert
            self.journal.append(
                entity,
                time,
                EventKind.CERT_OBSERVED,
                {
                    "meta": {
                        "sha256": cert.sha256,
                        "subject_cn": cert.subject_cn,
                        "subject_names": list(cert.subject_names),
                        "issuer_cn": cert.issuer_cn,
                        "not_before": cert.not_before,
                        "not_after": cert.not_after,
                        "self_signed": cert.self_signed,
                        "source": source,
                        "lint": lint_certificate(cert),
                    }
                },
            )
            self._validate(cert, time)
            self.processed += 1
            if self.on_processed is not None:
                self.on_processed(cert, time)

    def observe_tls_scan(self, message: Dict[str, Any]) -> None:
        """Bus handler for service_found/service_changed messages."""
        record = message.get("record") or {}
        sha = record.get("tls.certificate_sha256")
        if not sha:
            return
        names = tuple(record.get("tls.subject_names", ()))
        profile = TlsEndpointProfile(
            certificate_sha256=sha,
            subject_names=names,
            ja4s=record.get("tls.ja4s") or "",
            self_signed=bool(record.get("tls.self_signed")),
        )
        cert = self.world.certificate_for_tls_profile(profile, message["time"])
        self.observe_certificate(cert, message["time"], source="scan")

    def poll_ct(self, now: float) -> int:
        """Ingest new CT entries; returns how many were processed."""
        if self.ct_log is None:
            return 0
        entries = self.ct_log.poll(self._ct_cursor, until_time=now)
        for entry in entries:
            self.observe_certificate(entry.certificate, max(entry.timestamp, now), source="ct")
        if entries:
            self._ct_cursor = entries[-1].index + 1
        return len(entries)

    # -- validation --------------------------------------------------------

    def _validate(self, cert: Certificate, time: float) -> None:
        result = self.validator.validate(cert, time)
        self.journal.append(
            cert_entity_id(cert.sha256),
            time,
            EventKind.CERT_VALIDATED,
            {
                "validation": {
                    "valid_in": result.valid_in,
                    "errors": result.errors,
                    "chain_length": result.chain_length,
                    "validated_at": time,
                }
            },
        )
        if result.revoked:
            self.journal.append(
                cert_entity_id(cert.sha256), time, EventKind.CERT_REVOKED, {}
            )

    def revalidate_all(self, now: float) -> int:
        """The daily recompute of validation and revocation status."""
        for cert in self._known.values():
            self._validate(cert, now)
        return len(self._known)

    @property
    def known_count(self) -> int:
        return len(self._known)
