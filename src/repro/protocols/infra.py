"""Infrastructure protocols: FTP, DNS, NTP, SNMP, SIP, TFTP, UPnP, LDAP, SMB.

This module covers the paper's "priority ports" staples plus the UDP
services discovery scans elicit with protocol-specific probes (DNS query on
53, NTP version request on 123, SNMP GET on 161, SSDP M-SEARCH on 1900).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.protocols.base import Probe, ProtocolSpec, Reply, ServerProfile, pick, silence

__all__ = [
    "FtpSpec",
    "DnsSpec",
    "NtpSpec",
    "SnmpSpec",
    "SipSpec",
    "TftpSpec",
    "UpnpSpec",
    "LdapSpec",
    "SmbSpec",
]


class FtpSpec(ProtocolSpec):
    name = "FTP"
    transport = "tcp"
    default_ports = (21, 2121)
    server_initiated = True
    fingerprint_fields = ("banner", "error")

    _SOFTWARE = [
        ("vsftpd", "vsftpd", ("3.0.3", "3.0.5"), "220 (vsFTPd {v})"),
        ("proftpd", "proftpd", ("1.3.6", "1.3.8"), "220 ProFTPD {v} Server ready."),
        ("purefptd", "pure-ftpd", ("1.0.49",), "220---------- Welcome to Pure-FTPd ----------"),
        ("microsoft", "ftp_service", ("10.0",), "220 Microsoft FTP Service"),
    ]

    def make_profile(self, rng) -> ServerProfile:
        vendor, product, versions, banner_format = pick(rng, self._SOFTWARE)
        version = pick(rng, versions)
        attributes = {
            "banner": banner_format.format(v=version),
            "anonymous_allowed": rng.random() < 0.12,
        }
        return ServerProfile(self.name, (vendor, product, version), attributes)

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        attrs = profile.attributes
        if probe.kind == "banner-wait":
            return Reply("banner", self.name, {"banner": attrs["banner"]})
        if probe.kind == "ftp-anonymous-login":
            if attrs["anonymous_allowed"]:
                return Reply("ftp-login-ok", self.name, {"code": 230, "banner": attrs["banner"]})
            return Reply("ftp-login-denied", self.name, {"code": 530, "banner": attrs["banner"]})
        if probe.kind in ("http-get", "generic-crlf"):
            return Reply("ftp-error", self.name, {"banner": attrs["banner"], "error": "500 Unknown command"})
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        text = str(reply.fields.get("banner", "")) + str(reply.fields.get("error", ""))
        # "220" alone is ambiguous with SMTP; require an FTP marker.
        return (text.startswith("220") and "ftp" in text.lower()) or "500 Unknown command" in text

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("banner-wait"), Probe("ftp-anonymous-login")]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for reply in replies:
            if "banner" in reply.fields:
                record["ftp.banner"] = reply.fields["banner"]
            if reply.kind == "ftp-login-ok":
                record["ftp.anonymous"] = True
            elif reply.kind == "ftp-login-denied":
                record["ftp.anonymous"] = False
        return record


class DnsSpec(ProtocolSpec):
    name = "DNS"
    transport = "udp"
    default_ports = (53,)
    server_initiated = False
    fingerprint_kinds = ("dns-response", "dns-txt")

    def make_profile(self, rng) -> ServerProfile:
        vendor, product, versions = pick(
            rng,
            [
                ("isc", "bind", ("9.11.36", "9.16.42", "9.18.19")),
                ("nlnet", "unbound", ("1.13.1", "1.17.1")),
                ("thekelleys", "dnsmasq", ("2.80", "2.89")),
            ],
        )
        version = pick(rng, versions)
        attributes = {
            "recursive": rng.random() < 0.45,
            "version_bind": f"{product}-{version}" if rng.random() < 0.6 else "",
        }
        return ServerProfile(self.name, (vendor, product, version), attributes)

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        attrs = profile.attributes
        if probe.kind == "dns-query":
            return Reply(
                "dns-response",
                self.name,
                {
                    "rcode": "NOERROR" if attrs["recursive"] else "REFUSED",
                    "recursion_available": attrs["recursive"],
                    "qname": probe.payload.get("qname", "example.com"),
                },
            )
        if probe.kind == "dns-version-bind":
            return Reply("dns-txt", self.name, {"version_bind": attrs["version_bind"]})
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        return reply.kind in ("dns-response", "dns-txt")

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("dns-query", {"qname": "example.com"}), Probe("dns-version-bind")]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for reply in replies:
            if reply.kind == "dns-response":
                record["dns.recursive"] = reply.fields["recursion_available"]
                record["dns.rcode"] = reply.fields["rcode"]
            elif reply.kind == "dns-txt" and reply.fields.get("version_bind"):
                record["dns.version_bind"] = reply.fields["version_bind"]
        return record


class NtpSpec(ProtocolSpec):
    name = "NTP"
    transport = "udp"
    default_ports = (123,)
    server_initiated = False
    fingerprint_kinds = ("ntp-response", "ntp-monlist-response")

    def make_profile(self, rng) -> ServerProfile:
        version = pick(rng, ["4.2.8p15", "4.2.8p17"])
        attributes = {"stratum": pick(rng, [1, 2, 2, 3, 3, 3, 4]), "monlist_open": rng.random() < 0.05}
        return ServerProfile(self.name, ("ntp", "ntpd", version), attributes)

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        if probe.kind == "ntp-version":
            return Reply("ntp-response", self.name, {"stratum": profile.attributes["stratum"], "version": 4})
        if probe.kind == "ntp-monlist":
            if profile.attributes["monlist_open"]:
                return Reply("ntp-monlist-response", self.name, {"peer_count": 42})
            return silence()
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        return reply.kind in ("ntp-response", "ntp-monlist-response")

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("ntp-version"), Probe("ntp-monlist")]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for reply in replies:
            if reply.kind == "ntp-response":
                record["ntp.stratum"] = reply.fields["stratum"]
                record["ntp.version"] = reply.fields["version"]
            elif reply.kind == "ntp-monlist-response":
                record["ntp.monlist_open"] = True
        return record


class SnmpSpec(ProtocolSpec):
    name = "SNMP"
    transport = "udp"
    default_ports = (161,)
    server_initiated = False
    fingerprint_kinds = ("snmp-response",)

    def make_profile(self, rng) -> ServerProfile:
        sysdescr = pick(
            rng,
            [
                "Linux server 5.15.0-78-generic",
                "Cisco IOS Software, C2960X",
                "HP ETHERNET MULTI-ENVIRONMENT",
                "APC Web/SNMP Management Card",
            ],
        )
        attributes = {"community_public": rng.random() < 0.6, "sysdescr": sysdescr}
        return ServerProfile(self.name, ("net-snmp", "snmpd", "5.9"), attributes)

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        if probe.kind == "snmp-get":
            if probe.payload.get("community", "public") == "public" and profile.attributes["community_public"]:
                return Reply("snmp-response", self.name, {"sysdescr": profile.attributes["sysdescr"]})
            return silence()
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        return reply.kind == "snmp-response"

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("snmp-get", {"community": "public", "oid": "1.3.6.1.2.1.1.1.0"})]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for reply in replies:
            if reply.kind == "snmp-response":
                record["snmp.sysdescr"] = reply.fields["sysdescr"]
                record["snmp.community"] = "public"
        return record


class SipSpec(ProtocolSpec):
    name = "SIP"
    transport = "udp"
    default_ports = (5060, 5061)
    server_initiated = False
    fingerprint_kinds = ("sip-response",)

    def make_profile(self, rng) -> ServerProfile:
        vendor, product, versions = pick(
            rng,
            [
                ("digium", "asterisk", ("16.30.0", "18.19.0")),
                ("kamailio", "kamailio", ("5.5.4", "5.7.1")),
                ("cisco", "sip_gateway", ("12.4",)),
            ],
        )
        version = pick(rng, versions)
        attributes = {"user_agent": f"{product.title()} {version}"}
        return ServerProfile(self.name, (vendor, product, version), attributes)

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        if probe.kind == "sip-options":
            return Reply(
                "sip-response",
                self.name,
                {"status": "200 OK", "user_agent": profile.attributes["user_agent"]},
            )
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        return reply.kind == "sip-response"

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("sip-options")]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for reply in replies:
            if reply.kind == "sip-response":
                record["sip.status"] = reply.fields["status"]
                record["sip.user_agent"] = reply.fields["user_agent"]
        return record


class TftpSpec(ProtocolSpec):
    name = "TFTP"
    transport = "udp"
    default_ports = (69,)
    server_initiated = False
    fingerprint_kinds = ("tftp-data", "tftp-error")

    def make_profile(self, rng) -> ServerProfile:
        return ServerProfile(self.name, ("generic", "tftpd", "5.2"), {"allows_read": rng.random() < 0.4})

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        if probe.kind == "tftp-read-request":
            if profile.attributes["allows_read"]:
                return Reply("tftp-data", self.name, {"block": 1})
            return Reply("tftp-error", self.name, {"error_code": 1, "error": "File not found"})
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        return reply.kind in ("tftp-data", "tftp-error")

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("tftp-read-request", {"filename": "remote.cfg"})]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for reply in replies:
            record["tftp.open_read"] = reply.kind == "tftp-data"
        return record


class UpnpSpec(ProtocolSpec):
    name = "UPNP"
    transport = "udp"
    default_ports = (1900,)
    server_initiated = False
    fingerprint_kinds = ("ssdp-response",)

    def make_profile(self, rng) -> ServerProfile:
        server = pick(
            rng,
            [
                "Linux/3.14 UPnP/1.0 MiniUPnPd/2.1",
                "Windows/10.0 UPnP/1.0",
                "IpBridge/1.26.0 UPnP/1.0",
            ],
        )
        return ServerProfile(self.name, ("miniupnp", "miniupnpd", "2.1"), {"server": server})

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        if probe.kind == "ssdp-msearch":
            return Reply(
                "ssdp-response",
                self.name,
                {"server": profile.attributes["server"], "st": "upnp:rootdevice"},
            )
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        return reply.kind == "ssdp-response"

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("ssdp-msearch")]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for reply in replies:
            if reply.kind == "ssdp-response":
                record["upnp.server"] = reply.fields["server"]
        return record


class LdapSpec(ProtocolSpec):
    name = "LDAP"
    transport = "tcp"
    default_ports = (389, 636)
    server_initiated = False
    fingerprint_kinds = ("ldap-search-result",)

    def make_profile(self, rng) -> ServerProfile:
        vendor, product = pick(rng, [("openldap", "openldap"), ("microsoft", "active_directory")])
        version = "2.5.13" if product == "openldap" else "10.0"
        attributes = {
            "naming_contexts": (f"dc=corp{rng.randrange(1000)},dc=example,dc=com",),
            "anonymous_bind": rng.random() < 0.3,
        }
        return ServerProfile(self.name, (vendor, product, version), attributes)

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        if probe.kind == "ldap-root-dse":
            fields: Dict[str, Any] = {"result_code": 0}
            if profile.attributes["anonymous_bind"]:
                fields["naming_contexts"] = profile.attributes["naming_contexts"]
            return Reply("ldap-search-result", self.name, fields)
        if probe.kind == "banner-wait":
            return silence()
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        return reply.kind == "ldap-search-result"

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("ldap-root-dse")]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for reply in replies:
            if reply.kind == "ldap-search-result":
                record["ldap.result_code"] = reply.fields["result_code"]
                if "naming_contexts" in reply.fields:
                    record["ldap.naming_contexts"] = tuple(reply.fields["naming_contexts"])
        return record


class SmbSpec(ProtocolSpec):
    name = "SMB"
    transport = "tcp"
    default_ports = (445, 139)
    server_initiated = False
    fingerprint_kinds = ("smb-negotiate-response",)

    def make_profile(self, rng) -> ServerProfile:
        dialect = pick(rng, ["2.1", "3.0", "3.1.1"])
        attributes = {
            "dialect": dialect,
            "signing_required": rng.random() < 0.5,
            "netbios_name": f"SRV{rng.getrandbits(24):06X}",
        }
        product = "samba" if rng.random() < 0.4 else "windows_smb"
        return ServerProfile(self.name, ("samba" if product == "samba" else "microsoft", product, dialect), attributes)

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        attrs = profile.attributes
        if probe.kind == "smb-negotiate":
            return Reply(
                "smb-negotiate-response",
                self.name,
                {
                    "dialect": attrs["dialect"],
                    "signing_required": attrs["signing_required"],
                    "netbios_name": attrs["netbios_name"],
                },
            )
        if probe.kind == "banner-wait":
            return silence()
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        return reply.kind == "smb-negotiate-response"

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("smb-negotiate")]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for reply in replies:
            if reply.kind == "smb-negotiate-response":
                record["smb.dialect"] = reply.fields["dialect"]
                record["smb.signing_required"] = reply.fields["signing_required"]
                record["smb.netbios_name"] = reply.fields["netbios_name"]
        return record
