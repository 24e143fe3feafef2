"""Static fingerprinting: declarative filters and DSL processors.

Each rule identifies software or a device from observable record fields,
deriving (vendor, product, and optionally version via regex capture) plus a
device type.  Rules come in two flavors, as in the paper: *declarative
filters* (field -> exact/substring match) and programs in the Lisp-like DSL
(:mod:`repro.enrich.dsl`).  The default rule set covers the simulated
software catalog, standing in for the ~10K fingerprints Censys checks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.enrich.dsl import compile_program, parse, required_fields

__all__ = ["FingerprintRule", "FingerprintEngine", "default_fingerprints", "SoftwareMatch"]


@dataclass(frozen=True, slots=True)
class SoftwareMatch:
    """The outcome of a fingerprint hit on one service record."""

    rule: str
    vendor: str
    product: str
    version: Optional[str] = None
    device_type: Optional[str] = None

    @property
    def cpe(self) -> str:
        version = self.version or "*"
        return f"cpe:2.3:a:{self.vendor}:{self.product}:{version}:*:*:*:*:*:*:*"


@dataclass(slots=True)
class FingerprintRule:
    """One static fingerprint.

    ``filters`` is the declarative form: record field -> (op, value) where
    op is "equals" | "contains" | "prefix" | "regex".  ``program`` is a DSL
    source string; a rule may use either or both (both must pass).
    ``version_from`` extracts the version: (field, regex-with-one-group).
    """

    name: str
    vendor: str
    product: str
    device_type: Optional[str] = None
    filters: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    program: Optional[str] = None
    version_from: Optional[Tuple[str, str]] = None
    _compiled: Optional[Callable[[Dict[str, Any]], Any]] = None

    def __post_init__(self) -> None:
        if not self.filters and not self.program:
            raise ValueError(f"rule {self.name} has neither filters nor a program")
        if self.program:
            self._compiled = compile_program(self.program)

    def matches(self, record: Dict[str, Any]) -> Optional[SoftwareMatch]:
        for field_name, (op, expected) in self.filters.items():
            value = record.get(field_name)
            if value is None:
                return None
            text = _as_text(value)
            if op == "equals" and text != expected:
                return None
            if op == "contains" and expected.lower() not in text.lower():
                return None
            if op == "prefix" and not text.startswith(expected):
                return None
            if op == "regex" and not re.search(expected, text):
                return None
        if self._compiled is not None and not self._compiled(record):
            return None
        version = None
        if self.version_from is not None:
            field_name, pattern = self.version_from
            m = re.search(pattern, _as_text(record.get(field_name)))
            if m:
                version = m.group(1)
        return SoftwareMatch(
            rule=self.name,
            vendor=self.vendor,
            product=self.product,
            version=version,
            device_type=self.device_type,
        )


def _as_text(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value)
    return str(value)


class FingerprintEngine:
    """Applies the rule set to service records; first match per rule wins.

    Rules are dispatched on what a record contains rather than tried one
    by one: a rule can only match a record that carries every filter field
    (and every field its program requires) with a non-``None`` value, so
    each rule is indexed under one such *anchor* field and ``identify``
    evaluates only the rules anchored on fields the record has, plus the
    few with no anchor — in the original rule order, so the result is that
    of the linear scan.
    """

    def __init__(self, rules: List[FingerprintRule]) -> None:
        names = [r.name for r in rules]
        if len(names) != len(set(names)):
            raise ValueError("duplicate fingerprint rule names")
        self.rules = rules
        self.checks = 0
        self.hits = 0
        self._indexed_rules = -1
        self._anchored: Dict[str, List[Tuple[int, FingerprintRule]]] = {}
        self._unanchored: List[Tuple[int, FingerprintRule]] = []

    def _build_index(self) -> None:
        """(Re)index ``rules``; runs again when the list has grown or shrunk."""
        self._anchored = {}
        self._unanchored = []
        for position, rule in enumerate(self.rules):
            anchor = next(iter(rule.filters), None)
            if anchor is None:
                required = required_fields(parse(rule.program))
                anchor = min(required) if required else None
            if anchor is None:
                self._unanchored.append((position, rule))
            else:
                self._anchored.setdefault(anchor, []).append((position, rule))
        self._indexed_rules = len(self.rules)

    def identify(self, record: Dict[str, Any]) -> List[SoftwareMatch]:
        if self._indexed_rules != len(self.rules):
            self._build_index()
        anchored = self._anchored
        candidates = list(self._unanchored)
        for field_name, value in record.items():
            if value is not None and field_name in anchored:
                candidates.extend(anchored[field_name])
        candidates.sort(key=itemgetter(0))
        matches = []
        for _, rule in candidates:
            self.checks += 1
            match = rule.matches(record)
            if match is not None:
                self.hits += 1
                matches.append(match)
        return matches

    def best(self, record: Dict[str, Any]) -> Optional[SoftwareMatch]:
        """The most specific match: versioned hits beat unversioned ones."""
        matches = self.identify(record)
        if not matches:
            return None
        return min(matches, key=lambda m: (m.version is None, m.rule))


def default_fingerprints() -> FingerprintEngine:
    """The built-in rule set covering the simulated software catalog."""
    rules = [
        # -- web servers (declarative, version via regex capture) -----------
        FingerprintRule(
            name="http-nginx", vendor="f5", product="nginx",
            filters={"http.server": ("prefix", "nginx")},
            version_from=("http.server", r"nginx/([\d.]+)"),
        ),
        FingerprintRule(
            name="http-apache", vendor="apache", product="http_server",
            filters={"http.server": ("prefix", "Apache/")},
            version_from=("http.server", r"Apache/([\d.]+)"),
        ),
        FingerprintRule(
            name="http-iis", vendor="microsoft", product="iis",
            filters={"http.server": ("prefix", "Microsoft-IIS/")},
            version_from=("http.server", r"Microsoft-IIS/([\d.]+)"),
        ),
        FingerprintRule(
            name="http-lighttpd", vendor="lighttpd", product="lighttpd",
            filters={"http.server": ("prefix", "lighttpd/")},
            version_from=("http.server", r"lighttpd/([\d.]+)"),
        ),
        # -- applications and devices ---------------------------------------
        FingerprintRule(
            name="http-moveit", vendor="progress", product="moveit_transfer",
            device_type="managed-file-transfer",
            filters={"http.html_title": ("contains", "MOVEit Transfer")},
            version_from=("http.server", r"MOVEit/([\d.]+)"),
        ),
        FingerprintRule(
            name="http-prometheus", vendor="prometheus", product="prometheus",
            filters={"http.body_keywords": ("contains", "prometheus")},
        ),
        FingerprintRule(
            name="http-grafana", vendor="grafana", product="grafana",
            filters={"http.html_title": ("equals", "Grafana")},
        ),
        FingerprintRule(
            name="http-jenkins", vendor="jenkins", product="jenkins",
            filters={"http.html_title": ("contains", "Jenkins")},
        ),
        FingerprintRule(
            name="http-gitlab", vendor="gitlab", product="gitlab",
            filters={"http.html_title": ("contains", "GitLab")},
        ),
        FingerprintRule(
            # The paper's own example: html_title: "WAC6552D-S".
            name="http-zyxel-wac6552ds", vendor="zyxel", product="wac6552d-s",
            device_type="wireless-access-point",
            filters={"http.html_title": ("equals", "WAC6552D-S")},
        ),
        FingerprintRule(
            name="http-hikvision", vendor="hikvision", product="ip_camera",
            device_type="camera",
            filters={"http.server": ("prefix", "App-webs/")},
        ),
        FingerprintRule(
            name="http-fortigate", vendor="fortinet", product="fortigate",
            device_type="firewall",
            filters={"http.html_title": ("contains", "FortiGate")},
        ),
        FingerprintRule(
            name="http-ivanti", vendor="ivanti", product="connect_secure",
            device_type="vpn",
            filters={"http.html_title": ("contains", "Ivanti Connect Secure")},
        ),
        FingerprintRule(
            name="http-mikrotik", vendor="mikrotik", product="routeros",
            device_type="router",
            program='(or (contains (field "http.html_title") "RouterOS") '
                    '(starts-with (field "http.server") "mikrotik"))',
        ),
        FingerprintRule(
            name="http-synology", vendor="synology", product="dsm",
            device_type="nas",
            filters={"http.html_title": ("contains", "Synology")},
        ),
        FingerprintRule(
            name="http-minio", vendor="minio", product="minio",
            filters={"http.server": ("equals", "MinIO")},
        ),
        FingerprintRule(
            name="http-vcenter", vendor="vmware", product="vcenter",
            filters={"http.html_title": ("contains", "ID_VC_Welcome")},
        ),
        FingerprintRule(
            name="http-peoplesoft", vendor="oracle", product="peoplesoft",
            filters={"http.html_title": ("contains", "PeopleSoft")},
        ),
        # -- C2 infrastructure (threat hunting) ------------------------------
        FingerprintRule(
            name="c2-cobaltstrike", vendor="cobaltstrike", product="team_server",
            device_type="c2-server",
            program='(and (= (field "http.status") 200) (= (field "http.html_title") "") '
                    '(= (field "http.server") "") (= (field "http.is_c2") true))',
        ),
        # -- SSH --------------------------------------------------------------
        FingerprintRule(
            name="ssh-openssh", vendor="openbsd", product="openssh",
            filters={"ssh.banner": ("prefix", "SSH-2.0-OpenSSH_")},
            version_from=("ssh.banner", r"OpenSSH_([\w.]+)"),
        ),
        FingerprintRule(
            name="ssh-dropbear", vendor="dropbear", product="dropbear",
            filters={"ssh.banner": ("prefix", "SSH-2.0-dropbear_")},
            version_from=("ssh.banner", r"dropbear_([\w.]+)"),
        ),
        FingerprintRule(
            name="ssh-routeros", vendor="mikrotik", product="routeros",
            device_type="router",
            filters={"ssh.banner": ("equals", "SSH-2.0-ROSSSH")},
        ),
        FingerprintRule(
            name="ssh-cisco", vendor="cisco", product="ios",
            device_type="router",
            filters={"ssh.banner": ("prefix", "SSH-2.0-Cisco")},
        ),
        # -- mail ---------------------------------------------------------------
        FingerprintRule(
            name="smtp-postfix", vendor="postfix", product="postfix",
            filters={"smtp.banner": ("contains", "Postfix")},
        ),
        FingerprintRule(
            name="smtp-exim", vendor="exim", product="exim",
            filters={"smtp.banner": ("contains", "Exim")},
            version_from=("smtp.banner", r"Exim ([\d.]+)"),
        ),
        FingerprintRule(
            name="smtp-exchange", vendor="microsoft", product="exchange_server",
            filters={"smtp.banner": ("contains", "Microsoft ESMTP")},
        ),
        # -- FTP -------------------------------------------------------------------
        FingerprintRule(
            name="ftp-vsftpd", vendor="vsftpd", product="vsftpd",
            filters={"ftp.banner": ("contains", "vsFTPd")},
            version_from=("ftp.banner", r"vsFTPd ([\d.]+)"),
        ),
        FingerprintRule(
            name="ftp-proftpd", vendor="proftpd", product="proftpd",
            filters={"ftp.banner": ("contains", "ProFTPD")},
            version_from=("ftp.banner", r"ProFTPD ([\d.]+)"),
        ),
        # -- databases -----------------------------------------------------------
        FingerprintRule(
            name="mysql-mariadb", vendor="mariadb", product="mariadb",
            filters={"mysql.server_version": ("contains", "MariaDB")},
            version_from=("mysql.server_version", r"5\.5\.5-([\d.]+)-MariaDB"),
        ),
        FingerprintRule(
            name="mysql-oracle", vendor="oracle", product="mysql",
            program='(and (present "mysql.server_version") '
                    '(not (contains (field "mysql.server_version") "MariaDB")))',
            version_from=("mysql.server_version", r"^([\d.]+)"),
        ),
        FingerprintRule(
            name="redis", vendor="redis", product="redis",
            filters={"redis.version": ("regex", r"^[\d.]+$")},
            version_from=("redis.version", r"^([\d.]+)$"),
        ),
        # -- telnet devices ---------------------------------------------------------
        FingerprintRule(
            name="telnet-busybox", vendor="busybox", product="telnetd",
            device_type="iot",
            filters={"telnet.banner": ("equals", "login: ")},
        ),
        FingerprintRule(
            name="telnet-cisco", vendor="cisco", product="ios",
            device_type="router",
            filters={"telnet.banner": ("contains", "User Access Verification")},
        ),
        # -- cloud-native services -------------------------------------------------------
        FingerprintRule(
            name="elasticsearch", vendor="elastic", product="elasticsearch",
            filters={"elasticsearch.version": ("regex", r"^[\d.]+$")},
            version_from=("elasticsearch.version", r"^([\d.]+)$"),
        ),
        FingerprintRule(
            name="docker-engine", vendor="docker", product="engine",
            filters={"docker.version": ("regex", r"^[\d.]+$")},
            version_from=("docker.version", r"^([\d.]+)$"),
        ),
        FingerprintRule(
            name="kubernetes-apiserver", vendor="kubernetes", product="kube-apiserver",
            filters={"kubernetes.version": ("prefix", "v")},
            version_from=("kubernetes.version", r"^v([\d.]+)$"),
        ),
        FingerprintRule(
            name="rabbitmq", vendor="vmware", product="rabbitmq",
            filters={"amqp.product": ("equals", "RabbitMQ")},
            version_from=("amqp.version", r"^([\d.]+)$"),
        ),
        FingerprintRule(
            name="cassandra", vendor="apache", product="cassandra",
            filters={"cassandra.release_version": ("regex", r"^[\d.]+$")},
            version_from=("cassandra.release_version", r"^([\d.]+)$"),
        ),
        FingerprintRule(
            name="memcached", vendor="memcached", product="memcached",
            filters={"memcached.version": ("regex", r"^[\d.]+$")},
            version_from=("memcached.version", r"^([\d.]+)$"),
        ),
        FingerprintRule(
            name="rtsp-hikvision", vendor="hikvision", product="rtsp_server",
            device_type="camera",
            filters={"rtsp.server": ("contains", "Hikvision")},
        ),
        FingerprintRule(
            name="rtsp-dahua", vendor="dahua", product="rtsp_server",
            device_type="camera",
            filters={"rtsp.server": ("contains", "Dahua")},
        ),
        # -- ICS devices ----------------------------------------------------------------
        FingerprintRule(
            name="ics-modbus-schneider", vendor="schneider", product="modicon",
            device_type="plc",
            filters={"modbus.vendor_name": ("equals", "schneider")},
            version_from=("modbus.revision", r"^([\d.]+)"),
        ),
        FingerprintRule(
            name="ics-s7", vendor="siemens", product="simatic_s7",
            device_type="plc",
            filters={"s7.module_type": ("prefix", "S7-")},
        ),
        FingerprintRule(
            name="ics-niagara", vendor="tridium", product="niagara",
            device_type="building-automation",
            filters={"fox.app_version": ("regex", r".+")},
            version_from=("fox.app_version", r"^([\d.]+)"),
        ),
    ]
    return FingerprintEngine(rules)
