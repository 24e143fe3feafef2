"""Synthetic CVE feed and vulnerability matching.

Read-side enrichment maps fingerprinted (vendor, product, version) triples
to known vulnerabilities.  The feed uses MITRE-style identifiers for
software in the simulated catalog; version predicates follow the common
"affected before X" form.  Matching is deliberately conservative: no
version, no CVE — the paper stresses that false positives erode trust.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["CveEntry", "VulnerabilityDatabase", "default_cve_feed", "parse_version"]


def parse_version(text: str) -> Tuple:
    """Parse a dotted version into a comparable tuple (text-safe)."""
    parts = []
    for chunk in re.split(r"[.\-_]", text.strip()):
        m = re.match(r"(\d+)(.*)", chunk)
        if m:
            parts.append((int(m.group(1)), m.group(2)))
        else:
            parts.append((-1, chunk))
    return tuple(parts)


@dataclass(frozen=True, slots=True)
class CveEntry:
    cve_id: str
    vendor: str
    product: str
    #: Versions strictly below this are affected (None: all versions).
    fixed_in: Optional[str]
    cvss: float
    summary: str
    kev: bool = False  # CISA known-exploited

    def affects(self, version: Optional[str]) -> bool:
        if version is None:
            return False
        if self.fixed_in is None:
            return True
        return parse_version(version) < parse_version(self.fixed_in)


class VulnerabilityDatabase:
    """(vendor, product) -> CVE entries with version predicates."""

    def __init__(self, entries: List[CveEntry]) -> None:
        self._by_software: Dict[Tuple[str, str], List[CveEntry]] = {}
        for entry in entries:
            self._by_software.setdefault((entry.vendor, entry.product), []).append(entry)

    def find(self, vendor: str, product: str, version: Optional[str]) -> List[CveEntry]:
        candidates = self._by_software.get((vendor, product), [])
        return [c for c in candidates if c.affects(version)]

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_software.values())


def default_cve_feed() -> VulnerabilityDatabase:
    """CVEs for the simulated software catalog (ids are real-world-styled)."""
    return VulnerabilityDatabase(
        [
            CveEntry(
                "CVE-2023-34362", "progress", "moveit_transfer", "2023.0.3", 9.8,
                "SQL injection leading to RCE in MOVEit Transfer (CL0P campaign).",
                kev=True,
            ),
            CveEntry(
                "CVE-2022-40684", "fortinet", "fortigate", "7.2.2", 9.6,
                "Authentication bypass on the administrative interface.",
                kev=True,
            ),
            CveEntry(
                "CVE-2024-21887", "ivanti", "connect_secure", "22.7", 9.1,
                "Command injection in web components of Ivanti Connect Secure.",
                kev=True,
            ),
            CveEntry(
                "CVE-2018-14847", "mikrotik", "routeros", "6.42.1", 9.1,
                "Winbox arbitrary file read exposing credentials.",
                kev=True,
            ),
            CveEntry(
                "CVE-2021-22205", "gitlab", "gitlab", "13.10.3", 10.0,
                "Unauthenticated RCE via image parsing (ExifTool).",
                kev=True,
            ),
            CveEntry(
                "CVE-2024-23897", "jenkins", "jenkins", "2.442", 9.8,
                "Arbitrary file read through the CLI args parser.",
            ),
            CveEntry(
                "CVE-2019-12815", "proftpd", "proftpd", "1.3.6a", 9.8,
                "Arbitrary file copy via mod_copy.",
            ),
            CveEntry(
                "CVE-2021-44142", "samba", "samba", "4.13.17", 9.9,
                "Out-of-bounds heap write in the VFS fruit module.",
            ),
            CveEntry(
                "CVE-2022-1388", "vmware", "vcenter", "7.0.3", 9.8,
                "Server-side request forgery in the analytics service.",
            ),
            CveEntry(
                "CVE-2016-20012", "openbsd", "openssh", "8.9p1", 5.3,
                "Username enumeration via observable timing.",
            ),
            CveEntry(
                "CVE-2023-25136", "openbsd", "openssh", "9.2p1", 6.5,
                "Pre-auth double free in sshd.",
            ),
            CveEntry(
                "CVE-2021-27561", "zyxel", "wac6552d-s", None, 9.8,
                "Unauthenticated command injection on management interface.",
            ),
            CveEntry(
                "CVE-2017-7921", "hikvision", "ip_camera", "5.4.5", 10.0,
                "Authentication bypass exposing camera configuration.",
                kev=True,
            ),
            CveEntry(
                "CVE-2015-7857", "schneider", "modicon", "3.20", 8.8,
                "Hard-coded credentials in Modicon PLC firmware.",
            ),
            CveEntry(
                "CVE-2022-38773", "siemens", "simatic_s7", "4.5.0", 7.8,
                "Missing protection of the S7-1200 bootloader.",
            ),
            CveEntry(
                "CVE-2015-1427", "elastic", "elasticsearch", "7.0.0", 9.8,
                "Groovy sandbox bypass allowing remote code execution.",
                kev=True,
            ),
            CveEntry(
                "CVE-2019-5736", "docker", "engine", "24.0.0", 8.6,
                "runc container-escape overwriting the host binary.",
                kev=True,
            ),
            CveEntry(
                "CVE-2018-1002105", "kubernetes", "kube-apiserver", "v1.26.0", 9.8,
                "Aggregated-API proxy request smuggling privilege escalation.",
            ),
            CveEntry(
                "CVE-2023-46604", "vmware", "rabbitmq", "3.12.0", 7.5,
                "AMQP deserialization flaw in the management plugin.",
            ),
            CveEntry(
                "CVE-2016-8612", "memcached", "memcached", "1.6.0", 7.5,
                "SASL authentication integer overflow.",
            ),
        ]
    )
