"""Mail protocols: SMTP, POP3, IMAP.

All three are server-initiated.  SMTP demonstrates the paper's detection
example verbatim: an HTTP GET sent at an SMTP service elicits an SMTP error
line, which fingerprints the service as SMTP.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.protocols.base import Probe, ProtocolSpec, Reply, ServerProfile, pick

__all__ = ["SmtpSpec", "Pop3Spec", "ImapSpec"]


class SmtpSpec(ProtocolSpec):
    name = "SMTP"
    transport = "tcp"
    default_ports = (25, 587, 465, 2525)
    server_initiated = True
    fingerprint_fields = ("banner", "error")

    _SOFTWARE = [
        ("postfix", "postfix", ("3.4.13", "3.6.4"), "220 {host} ESMTP Postfix"),
        ("exim", "exim", ("4.94.2", "4.96"), "220 {host} ESMTP Exim {v}"),
        ("microsoft", "exchange_server", ("15.1", "15.2"), "220 {host} Microsoft ESMTP MAIL Service ready"),
    ]

    def make_profile(self, rng) -> ServerProfile:
        vendor, product, versions, banner_format = pick(rng, self._SOFTWARE)
        version = pick(rng, versions)
        host = f"mail{rng.randrange(10**4)}.example.net"
        attributes = {
            "banner": banner_format.format(host=host, v=version),
            "ehlo_extensions": ("PIPELINING", "SIZE 10240000", "STARTTLS", "8BITMIME"),
            "starttls": True,
        }
        return ServerProfile(self.name, (vendor, product, version), attributes)

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        attrs = profile.attributes
        if probe.kind == "banner-wait":
            return Reply("banner", self.name, {"banner": attrs["banner"]})
        if probe.kind == "smtp-ehlo":
            return Reply(
                "smtp-ehlo-response",
                self.name,
                {"banner": attrs["banner"], "extensions": attrs["ehlo_extensions"]},
            )
        if probe.kind in ("http-get", "generic-crlf"):
            # The paper's example: HTTP request at an SMTP service returns an
            # SMTP error, identifying the protocol.
            return Reply(
                "smtp-error",
                self.name,
                {"banner": attrs["banner"], "error": "502 5.5.2 Error: command not recognized"},
            )
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        text = str(reply.fields.get("banner", "")) + str(reply.fields.get("error", ""))
        return (text.startswith("220 ") and "SMTP" in text) or "5.5.2" in text

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("banner-wait"), Probe("smtp-ehlo")]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for reply in replies:
            if "banner" in reply.fields:
                record["smtp.banner"] = reply.fields["banner"]
            if "extensions" in reply.fields:
                record["smtp.ehlo_extensions"] = tuple(reply.fields["extensions"])
                record["smtp.starttls"] = "STARTTLS" in reply.fields["extensions"]
        return record


class Pop3Spec(ProtocolSpec):
    name = "POP3"
    transport = "tcp"
    default_ports = (110, 995)
    server_initiated = True
    fingerprint_fields = ("banner", "error")

    def make_profile(self, rng) -> ServerProfile:
        product = pick(rng, ["dovecot", "courier"])
        version = pick(rng, ["2.3.16", "2.3.21"]) if product == "dovecot" else "5.1"
        banner = "+OK Dovecot ready." if product == "dovecot" else "+OK Hello there."
        return ServerProfile(self.name, (product, product, version), {"banner": banner})

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        if probe.kind == "banner-wait":
            return Reply("banner", self.name, {"banner": profile.attributes["banner"]})
        if probe.kind == "pop3-capa":
            return Reply(
                "pop3-capa-response",
                self.name,
                {"banner": profile.attributes["banner"], "capabilities": ("UIDL", "TOP", "STLS")},
            )
        if probe.kind in ("http-get", "generic-crlf"):
            return Reply("pop3-error", self.name, {"error": "-ERR Unknown command"})
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        text = str(reply.fields.get("banner", "")) + str(reply.fields.get("error", ""))
        return text.startswith("+OK") or text.startswith("-ERR")

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("banner-wait"), Probe("pop3-capa")]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for reply in replies:
            if "banner" in reply.fields:
                record["pop3.banner"] = reply.fields["banner"]
            if "capabilities" in reply.fields:
                record["pop3.capabilities"] = tuple(reply.fields["capabilities"])
        return record


class ImapSpec(ProtocolSpec):
    name = "IMAP"
    transport = "tcp"
    default_ports = (143, 993)
    server_initiated = True
    fingerprint_fields = ("banner", "error")

    def make_profile(self, rng) -> ServerProfile:
        version = pick(rng, ["2.3.16", "2.3.21"])
        attributes = {
            "banner": "* OK [CAPABILITY IMAP4rev1 SASL-IR LOGIN-REFERRALS ID ENABLE IDLE LITERAL+ STARTTLS] Dovecot ready.",
        }
        return ServerProfile(self.name, ("dovecot", "dovecot", version), attributes)

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        if probe.kind == "banner-wait":
            return Reply("banner", self.name, {"banner": profile.attributes["banner"]})
        if probe.kind == "imap-capability":
            return Reply(
                "imap-capability-response",
                self.name,
                {"banner": profile.attributes["banner"], "capabilities": ("IMAP4rev1", "IDLE", "STARTTLS")},
            )
        if probe.kind in ("http-get", "generic-crlf"):
            return Reply("imap-error", self.name, {"error": "* BAD Error in IMAP command"})
        return self._unknown_probe(profile, probe)

    def fingerprint(self, reply: Reply) -> bool:
        text = str(reply.fields.get("banner", "")) + str(reply.fields.get("error", ""))
        return text.startswith("* OK") or text.startswith("* BAD")

    def handshake_probes(self, port: int) -> List[Probe]:
        return [Probe("banner-wait"), Probe("imap-capability")]

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for reply in replies:
            if "banner" in reply.fields:
                record["imap.banner"] = reply.fields["banner"]
            if "capabilities" in reply.fields:
                record["imap.capabilities"] = tuple(reply.fields["capabilities"])
        return record
