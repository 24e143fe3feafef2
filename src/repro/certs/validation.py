"""Certificate validation, CRL revocation, and linting.

Validation walks the issuer chain to a root and checks trust against each
browser root store, temporal validity, and CRL revocation — the checks
Censys recomputes daily for every certificate.  The linter flags the
CA/Browser-Forum-style issues third parties care about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.certs.authority import CaWorld
from repro.certs.x509 import Certificate
from repro.simnet.clock import DAY

__all__ = ["CrlRegistry", "ValidationResult", "CertificateValidator", "lint_certificate"]


class CrlRegistry:
    """Certificate revocation lists, keyed by issuer key id.

    Censys moved from OCSP to CRL-only checking in 2024 (CABF BR v2.0.1);
    this registry is the CRL side of that design.
    """

    def __init__(self) -> None:
        self._revoked: Dict[str, Dict[int, float]] = {}

    def revoke(self, issuer_id: str, serial: int, at: float) -> None:
        self._revoked.setdefault(issuer_id, {})[serial] = at

    def is_revoked(self, cert: Certificate, at: float) -> bool:
        revoked_at = self._revoked.get(cert.issuer_id, {}).get(cert.serial)
        return revoked_at is not None and revoked_at <= at


@dataclass(slots=True)
class ValidationResult:
    """Outcome of validating one certificate at one time."""

    valid_in: List[str] = field(default_factory=list)   # root store names
    errors: List[str] = field(default_factory=list)
    revoked: bool = False
    chain_length: int = 0

    @property
    def trusted_anywhere(self) -> bool:
        return bool(self.valid_in)


class CertificateValidator:
    """Chain building + trust + validity + revocation."""

    MAX_CHAIN = 8

    def __init__(self, world: CaWorld, crl: Optional[CrlRegistry] = None) -> None:
        self.world = world
        self.crl = crl or CrlRegistry()

    def validate(self, cert: Certificate, at: float) -> ValidationResult:
        result = ValidationResult()
        if not cert.valid_at(at):
            result.errors.append("expired" if at > cert.not_after else "not-yet-valid")
        if self.crl.is_revoked(cert, at):
            result.revoked = True
            result.errors.append("revoked")
        chain = self._build_chain(cert, at, result)
        if chain is None:
            return result
        result.chain_length = len(chain)
        root = chain[-1]
        if not result.errors:
            for store_name, store in self.world.root_stores.items():
                if store.trusts(root.key_id):
                    result.valid_in.append(store_name)
            if not result.valid_in:
                result.errors.append("untrusted-root")
        return result

    def _build_chain(
        self, cert: Certificate, at: float, result: ValidationResult
    ) -> Optional[List[Certificate]]:
        chain = [cert]
        current = cert
        for _ in range(self.MAX_CHAIN):
            if current.self_signed:
                return chain
            issuer = self.world.issuer_certificate(current.issuer_id)
            if issuer is None:
                result.errors.append("unknown-issuer")
                return None
            if not issuer.is_ca:
                result.errors.append("issuer-not-ca")
                return None
            if not issuer.valid_at(at):
                result.errors.append("issuer-expired")
            chain.append(issuer)
            current = issuer
        result.errors.append("chain-too-long")
        return None


#: CABF ballot SC-63-style ceiling on leaf validity.
_MAX_LEAF_VALIDITY = 398 * DAY


def lint_certificate(cert: Certificate) -> List[str]:
    """ZLint-style findings for one certificate."""
    findings: List[str] = []
    if cert.is_ca:
        return findings
    if not cert.subject_names:
        findings.append("e_missing_san")
    elif cert.subject_cn and cert.subject_cn not in cert.subject_names:
        findings.append("w_cn_not_in_san")
    if cert.validity_hours > _MAX_LEAF_VALIDITY and not cert.self_signed:
        findings.append("e_validity_too_long")
    if cert.key_type == "rsa" and cert.key_bits < 2048:
        findings.append("e_weak_rsa_key")
    for name in cert.subject_names:
        if name.count("*") > 1 or ("*" in name and not name.startswith("*.")):
            findings.append("e_bad_wildcard")
            break
    if cert.self_signed:
        findings.append("n_self_signed")
    return findings
