"""Streaming, proxy, and transfer protocols: RTSP, SOCKS5, RSYNC, WINRM.

RTSP covers the IP-camera population threat actors hijack; SOCKS5 covers
open-proxy infrastructure; rsync covers the classic open-share exposure;
WinRM rounds out the Windows remote-management surface next to RDP.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.protocols.base import Probe, ProtocolSpec, Reply, ServerProfile, pick, silence

__all__ = ["RtspSpec", "Socks5Spec", "RsyncSpec", "WinrmSpec"]


class RtspSpec(ProtocolSpec):
    name = "RTSP"
    transport = "tcp"
    default_ports = (554, 8554)
    server_initiated = False
    fingerprint_fields = ("rtsp_status",)

    _SOFTWARE = [
        ("hikvision", "rtsp_server", "1.0", "Hikvision RTSP Server"),
        ("dahua", "rtsp_server", "2.0", "Dahua Rtsp Server"),
        ("gstreamer", "rtsp_server", "1.18", "GStreamer RTSP server"),
    ]

    def make_profile(self, rng) -> ServerProfile:
        vendor, product, version, server = pick(rng, self._SOFTWARE)
        return ServerProfile(
            self.name, (vendor, product, version),
            {"server": server, "requires_auth": rng.random() < 0.8},
        )

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        attrs = profile.attributes
        if probe.kind == "rtsp-options":
            return Reply(
                "rtsp-response", self.name,
                {"rtsp_status": "RTSP/1.0 200 OK", "server": attrs["server"],
                 "public": ("OPTIONS", "DESCRIBE", "SETUP", "PLAY")},
            )
        if probe.kind == "rtsp-describe":
            if attrs["requires_auth"]:
                return Reply("rtsp-response", self.name, {"rtsp_status": "RTSP/1.0 401 Unauthorized", "server": attrs["server"]})
            return Reply("rtsp-describe-ok", self.name, {"rtsp_status": "RTSP/1.0 200 OK", "server": attrs["server"], "sdp": "m=video 0 RTP/AVP 96"})
        if probe.kind in ("http-get", "generic-crlf"):
            return Reply("rtsp-response", self.name, {"rtsp_status": "RTSP/1.0 400 Bad Request", "server": attrs["server"]})
        if probe.kind == "banner-wait":
            return silence()
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        return str(reply.fields.get("rtsp_status", "")).startswith("RTSP/1.0")

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("rtsp-options"), Probe("rtsp-describe")]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for reply in replies:
            if "server" in reply.fields:
                record["rtsp.server"] = reply.fields["server"]
            if reply.kind == "rtsp-describe-ok":
                record["rtsp.open_stream"] = True
            elif "401" in str(reply.fields.get("rtsp_status", "")):
                record["rtsp.open_stream"] = False
        return record


class Socks5Spec(ProtocolSpec):
    name = "SOCKS5"
    transport = "tcp"
    default_ports = (1080,)
    server_initiated = False
    fingerprint_fields = ("socks_version",)

    def make_profile(self, rng) -> ServerProfile:
        open_proxy = rng.random() < 0.4
        return ServerProfile(
            self.name, ("generic", "socks5d", "1.0"),
            {"methods": (0,) if open_proxy else (2,)},  # 0=no-auth, 2=user/pass
        )

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        if probe.kind == "socks5-method-select":
            return Reply(
                "socks5-method-reply", self.name,
                {"socks_version": 5, "method": profile.attributes["methods"][0]},
            )
        if probe.kind == "banner-wait":
            return silence()
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        return reply.fields.get("socks_version") == 5

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("socks5-method-select")]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for reply in replies:
            if reply.kind == "socks5-method-reply":
                record["socks5.auth_method"] = reply.fields["method"]
                record["socks5.open_proxy"] = reply.fields["method"] == 0
        return record


class RsyncSpec(ProtocolSpec):
    name = "RSYNC"
    transport = "tcp"
    default_ports = (873,)
    server_initiated = True
    fingerprint_fields = ("banner",)

    def make_profile(self, rng) -> ServerProfile:
        version = pick(rng, ["31.0", "30.0"])
        modules = tuple(
            pick(rng, ["backup", "public", "www", "data", "mirror"])
            for _ in range(rng.randint(0, 3))
        )
        return ServerProfile(
            self.name, ("samba", "rsync", version),
            {"banner": f"@RSYNCD: {version}", "modules": modules},
        )

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        if probe.kind == "banner-wait":
            return Reply("banner", self.name, {"banner": profile.attributes["banner"]})
        if probe.kind == "rsync-list-modules":
            return Reply(
                "rsync-module-list", self.name,
                {"banner": profile.attributes["banner"], "modules": profile.attributes["modules"]},
            )
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        return str(reply.fields.get("banner", "")).startswith("@RSYNCD:")

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("banner-wait"), Probe("rsync-list-modules")]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for reply in replies:
            if "banner" in reply.fields:
                record["rsync.banner"] = reply.fields["banner"]
            if "modules" in reply.fields:
                record["rsync.modules"] = tuple(reply.fields["modules"])
                record["rsync.open_modules"] = len(reply.fields["modules"]) > 0
        return record


class WinrmSpec(ProtocolSpec):
    name = "WINRM"
    transport = "tcp"
    default_ports = (5985, 5986)
    server_initiated = False
    fingerprint_fields = ("wsman",)

    def make_profile(self, rng) -> ServerProfile:
        version = pick(rng, ["10.0.17763", "10.0.20348"])
        return ServerProfile(
            self.name, ("microsoft", "winrm", version),
            {"auth_schemes": ("Negotiate", "Kerberos")},
        )

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        if probe.kind == "http-get":
            return Reply(
                "winrm-response", self.name,
                {"status": 405, "server_header": "Microsoft-HTTPAPI/2.0",
                 "www_authenticate": " ".join(profile.attributes["auth_schemes"]),
                 "wsman": True},
            )
        if probe.kind == "banner-wait":
            return silence()
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        return bool(reply.fields.get("wsman"))

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("http-get", {"path": "/wsman"})]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for reply in replies:
            if reply.kind == "winrm-response":
                record["winrm.server"] = reply.fields["server_header"]
                record["winrm.auth_schemes"] = reply.fields["www_authenticate"]
        return record
