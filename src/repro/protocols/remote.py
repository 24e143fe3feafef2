"""Remote-access protocols: SSH, Telnet, RDP, VNC, rlogin, X11.

SSH, Telnet, and VNC are server-initiated (they banner on connect), which is
the first branch of LZR-style detection.  SSH records carry host keys — the
pivot the paper's threat-hunting use case relies on ("mapping out
relationships between servers, e.g. via SSH hostkey").
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Sequence

from repro.protocols.base import (
    Probe,
    ProtocolSpec,
    Reply,
    ServerProfile,
    pick,
    silence,
)

__all__ = ["SshSpec", "TelnetSpec", "RdpSpec", "VncSpec", "RloginSpec", "X11Spec"]

_SSH_SOFTWARE = [
    ("openbsd", "openssh", ("7.4", "8.2p1", "8.9p1", "9.3p1"), "SSH-2.0-OpenSSH_{v}"),
    ("dropbear", "dropbear", ("2019.78", "2022.83"), "SSH-2.0-dropbear_{v}"),
    ("mikrotik", "routeros_ssh", ("6.49", "7.11"), "SSH-2.0-ROSSSH"),
    ("cisco", "ios_ssh", ("15.2", "17.3"), "SSH-2.0-Cisco-1.25"),
]


def host_key_fingerprint(seed_text: str) -> str:
    """A stable SHA256-style host-key fingerprint."""
    return "SHA256:" + hashlib.sha256(seed_text.encode()).hexdigest()[:43]


class SshSpec(ProtocolSpec):
    name = "SSH"
    transport = "tcp"
    default_ports = (22, 2222, 22222)
    server_initiated = True
    fingerprint_fields = ("banner",)

    def make_profile(self, rng) -> ServerProfile:
        vendor, product, versions, banner_format = pick(rng, _SSH_SOFTWARE)
        version = pick(rng, versions)
        attributes = {
            "banner": banner_format.format(v=version),
            "host_key_sha256": host_key_fingerprint(f"hostkey:{rng.getrandbits(64)}"),
            "kex_algorithms": ("curve25519-sha256", "diffie-hellman-group14-sha256"),
            "host_key_type": pick(rng, ["ssh-ed25519", "rsa-sha2-512", "ecdsa-sha2-nistp256"]),
        }
        return ServerProfile(self.name, (vendor, product, version), attributes)

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        attrs = profile.attributes
        if probe.kind == "banner-wait":
            return Reply("banner", self.name, {"banner": attrs["banner"]})
        if probe.kind == "ssh-kex":
            return Reply(
                "ssh-kexinit",
                self.name,
                {
                    "banner": attrs["banner"],
                    "host_key_sha256": attrs["host_key_sha256"],
                    "host_key_type": attrs["host_key_type"],
                    "kex_algorithms": attrs["kex_algorithms"],
                },
            )
        if probe.kind in ("http-get", "generic-crlf"):
            # SSH servers banner and then drop malformed input.
            return Reply("banner", self.name, {"banner": attrs["banner"], "then": "reset"})
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        banner = str(reply.fields.get("banner", ""))
        return banner.startswith("SSH-")

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("banner-wait"), Probe("ssh-kex")]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for reply in replies:
            if "banner" in reply.fields:
                record["ssh.banner"] = reply.fields["banner"]
            if "host_key_sha256" in reply.fields:
                record["ssh.host_key_sha256"] = reply.fields["host_key_sha256"]
                record["ssh.host_key_type"] = reply.fields.get("host_key_type", "")
                record["ssh.kex_algorithms"] = tuple(reply.fields.get("kex_algorithms", ()))
        return record


class TelnetSpec(ProtocolSpec):
    name = "TELNET"
    transport = "tcp"
    default_ports = (23, 2323)
    server_initiated = True
    fingerprint_fields = ("iac_negotiation", "banner")

    _BANNERS = [
        ("busybox", "telnetd", "1.31.0", "login: "),
        ("cisco", "ios_telnet", "15.2", "User Access Verification\r\nPassword: "),
        ("huawei", "vrp_telnet", "8.1", "Warning: Telnet is not a secure protocol\r\nLogin: "),
        ("generic", "telnetd", "0.17", "Ubuntu 20.04 LTS\r\nlogin: "),
    ]

    def make_profile(self, rng) -> ServerProfile:
        vendor, product, version, banner = pick(rng, self._BANNERS)
        attributes = {
            "banner": banner,
            "will_options": (1, 3),  # ECHO, SUPPRESS-GO-AHEAD
        }
        return ServerProfile(self.name, (vendor, product, version), attributes)

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        if probe.kind in ("banner-wait", "generic-crlf"):
            return Reply(
                "banner",
                self.name,
                {"banner": profile.attributes["banner"], "iac_negotiation": profile.attributes["will_options"]},
            )
        if probe.kind == "http-get":
            return Reply("banner", self.name, {"banner": profile.attributes["banner"], "then": "reset"})
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        return "iac_negotiation" in reply.fields or str(reply.fields.get("banner", "")).endswith("login: ")

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("banner-wait")]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for reply in replies:
            if "banner" in reply.fields:
                record["telnet.banner"] = reply.fields["banner"]
        return record


class RdpSpec(ProtocolSpec):
    name = "RDP"
    transport = "tcp"
    default_ports = (3389, 3388)
    server_initiated = False
    fingerprint_kinds = ("rdp-connect-confirm",)

    def make_profile(self, rng) -> ServerProfile:
        version = pick(rng, ["10.0.17763", "10.0.19041", "10.0.20348", "6.3.9600"])
        attributes = {
            "security_protocols": ("SSL", "HYBRID", "HYBRID_EX"),
            "ntlm_os_version": version,
            "dns_computer_name": f"WIN-{rng.getrandbits(32):08X}",
        }
        return ServerProfile(self.name, ("microsoft", "remote_desktop_services", version), attributes)

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        attrs = profile.attributes
        if probe.kind == "rdp-connect":
            return Reply(
                "rdp-connect-confirm",
                self.name,
                {
                    "security_protocols": attrs["security_protocols"],
                    "ntlm_os_version": attrs["ntlm_os_version"],
                    "dns_computer_name": attrs["dns_computer_name"],
                },
            )
        if probe.kind == "banner-wait":
            return silence()
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        return reply.kind == "rdp-connect-confirm"

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("rdp-connect")]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for reply in replies:
            if reply.kind == "rdp-connect-confirm":
                record["rdp.security_protocols"] = tuple(reply.fields["security_protocols"])
                record["rdp.os_version"] = reply.fields["ntlm_os_version"]
                record["rdp.computer_name"] = reply.fields["dns_computer_name"]
        return record


class VncSpec(ProtocolSpec):
    name = "VNC"
    transport = "tcp"
    default_ports = (5900, 5901)
    server_initiated = True
    fingerprint_fields = ("banner",)

    def make_profile(self, rng) -> ServerProfile:
        rfb = pick(rng, ["RFB 003.003", "RFB 003.008"])
        product = pick(rng, ["tightvnc", "realvnc", "libvncserver"])
        attributes = {
            "rfb_version": rfb,
            "auth_none": rng.random() < 0.18,
        }
        return ServerProfile(self.name, ("vnc", product, rfb.split()[-1]), attributes)

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        if probe.kind == "banner-wait":
            return Reply("banner", self.name, {"banner": profile.attributes["rfb_version"]})
        if probe.kind == "vnc-handshake":
            return Reply(
                "vnc-security",
                self.name,
                {
                    "banner": profile.attributes["rfb_version"],
                    "security_types": ("None",) if profile.attributes["auth_none"] else ("VNCAuth",),
                },
            )
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        return str(reply.fields.get("banner", "")).startswith("RFB ")

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("banner-wait"), Probe("vnc-handshake")]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for reply in replies:
            if "banner" in reply.fields:
                record["vnc.rfb_version"] = reply.fields["banner"]
            if "security_types" in reply.fields:
                record["vnc.security_types"] = tuple(reply.fields["security_types"])
        return record


class RloginSpec(ProtocolSpec):
    name = "RLOGIN"
    transport = "tcp"
    default_ports = (513,)
    server_initiated = False
    fingerprint_kinds = ("rlogin-prompt",)

    def make_profile(self, rng) -> ServerProfile:
        return ServerProfile(self.name, ("bsd", "rlogind", "1.0"), {"prompt": "Password: "})

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        if probe.kind == "rlogin-connect":
            return Reply("rlogin-prompt", self.name, {"prompt": profile.attributes["prompt"]})
        if probe.kind == "generic-crlf":
            return Reply("rlogin-prompt", self.name, {"prompt": profile.attributes["prompt"]})
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        return reply.kind == "rlogin-prompt"

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("rlogin-connect")]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        return {"rlogin.prompt": replies[0].fields["prompt"]} if replies else {}


class X11Spec(ProtocolSpec):
    name = "X11"
    transport = "tcp"
    default_ports = (6000, 6001)
    server_initiated = False
    fingerprint_kinds = ("x11-setup-success", "x11-setup-failed")

    def make_profile(self, rng) -> ServerProfile:
        release = pick(rng, ["11.0", "12101004"])
        attributes = {
            "vendor_string": pick(rng, ["The X.Org Foundation", "Xming"]),
            "release": release,
            "open_access": rng.random() < 0.3,
        }
        return ServerProfile(self.name, ("x.org", "xserver", release), attributes)

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        attrs = profile.attributes
        if probe.kind == "x11-setup":
            if attrs["open_access"]:
                return Reply(
                    "x11-setup-success",
                    self.name,
                    {"vendor_string": attrs["vendor_string"], "release": attrs["release"]},
                )
            return Reply("x11-setup-failed", self.name, {"reason": "Authorization required"})
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        return reply.kind in ("x11-setup-success", "x11-setup-failed")

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("x11-setup")]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for reply in replies:
            if reply.kind == "x11-setup-success":
                record["x11.vendor"] = reply.fields["vendor_string"]
                record["x11.release"] = reply.fields["release"]
                record["x11.open_access"] = True
            elif reply.kind == "x11-setup-failed":
                record["x11.open_access"] = False
        return record
