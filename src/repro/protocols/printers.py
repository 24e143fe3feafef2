"""Printing protocols: IPP, HP JetDirect, LPD.

Internet-exposed printers are a staple of scan-engine findings (and of
attacker pranks); they also demonstrate interrogation of trivially simple
protocols where a single probe yields the whole record.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.protocols.base import Probe, ProtocolSpec, Reply, ServerProfile, pick, silence

__all__ = ["IppSpec", "JetDirectSpec", "LpdSpec"]


class IppSpec(ProtocolSpec):
    """Internet Printing Protocol: Get-Printer-Attributes."""

    name = "IPP"
    transport = "tcp"
    default_ports = (631,)
    server_initiated = False
    fingerprint_kinds = ("ipp-attributes",)
    fingerprint_fields = ("ipp",)

    _PRINTERS = [
        ("hp", "laserjet_m404", ("002_2310A",)),
        ("brother", "hl-l2350dw", ("1.77",)),
        ("canon", "imagerunner_2630", ("10.02",)),
        ("lexmark", "mx431", ("MXTGM.081.215",)),
    ]

    def make_profile(self, rng) -> ServerProfile:
        vendor, product, versions = pick(rng, self._PRINTERS)
        version = pick(rng, versions)
        attributes = {
            "printer_make_and_model": f"{vendor.upper()} {product.replace('_', ' ').title()}",
            "printer_state": pick(rng, ["idle", "processing", "stopped"]),
            "queued_jobs": rng.randrange(5),
        }
        return ServerProfile(self.name, (vendor, product, version), attributes)

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        attrs = profile.attributes
        if probe.kind == "ipp-get-printer-attributes":
            return Reply(
                "ipp-attributes", self.name,
                {"printer_make_and_model": attrs["printer_make_and_model"],
                 "printer_state": attrs["printer_state"],
                 "queued_jobs": attrs["queued_jobs"]},
            )
        if probe.kind == "http-get":
            # IPP rides on HTTP; a GET is answered with an IPP marker.
            return Reply(
                "http-response", self.name,
                {"status": 200, "server_header": "IPP/2.1",
                 "html_title": attrs["printer_make_and_model"], "ipp": True},
            )
        if probe.kind == "banner-wait":
            return silence()
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        return reply.kind == "ipp-attributes" or bool(reply.fields.get("ipp"))

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("ipp-get-printer-attributes")]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for reply in replies:
            if reply.kind == "ipp-attributes":
                record["ipp.printer_make_and_model"] = reply.fields["printer_make_and_model"]
                record["ipp.printer_state"] = reply.fields["printer_state"]
        return record


class JetDirectSpec(ProtocolSpec):
    """HP JetDirect (raw port 9100): PJL INFO ID."""

    name = "JETDIRECT"
    transport = "tcp"
    default_ports = (9100,)
    server_initiated = False
    fingerprint_kinds = ("pjl-id",)

    def make_profile(self, rng) -> ServerProfile:
        model = pick(rng, ["HP LASERJET 4250", "HP LASERJET M605", "HP COLOR LASERJET M553"])
        return ServerProfile(
            self.name, ("hp", model.lower().replace(" ", "_"), "pjl"),
            {"pjl_id": model},
        )

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        if probe.kind == "pjl-info-id":
            return Reply("pjl-id", self.name, {"pjl_id": profile.attributes["pjl_id"]})
        if probe.kind == "generic-crlf":
            # Raw-9100 devices swallow anything sent; PJL gets an echo.
            return silence()
        if probe.kind == "banner-wait":
            return silence()
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        return reply.kind == "pjl-id"

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("pjl-info-id")]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for reply in replies:
            if reply.kind == "pjl-id":
                record["jetdirect.pjl_id"] = reply.fields["pjl_id"]
        return record


class LpdSpec(ProtocolSpec):
    """Line Printer Daemon: short-queue-state request."""

    name = "LPD"
    transport = "tcp"
    default_ports = (515,)
    server_initiated = False
    fingerprint_kinds = ("lpd-queue",)

    def make_profile(self, rng) -> ServerProfile:
        queue = pick(rng, ["lp", "raw", "PASSTHRU"])
        return ServerProfile(
            self.name, ("generic", "lpd", "1.0"),
            {"queue": queue, "jobs": rng.randrange(3)},
        )

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        if probe.kind == "lpd-queue-state":
            attrs = profile.attributes
            state = f"{attrs['queue']} is ready" + (
                f" and printing ({attrs['jobs']} jobs)" if attrs["jobs"] else ""
            )
            return Reply("lpd-queue", self.name, {"queue_state": state})
        if probe.kind == "banner-wait":
            return silence()
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        return reply.kind == "lpd-queue"

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("lpd-queue-state")]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for reply in replies:
            if reply.kind == "lpd-queue":
                record["lpd.queue_state"] = reply.fields["queue_state"]
        return record
