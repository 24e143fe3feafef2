"""Message-level protocol model shared by simulated servers and scanners.

The reproduction models application-layer exchanges at the message level
rather than the byte level (see DESIGN.md non-goals).  A simulated service
carries a :class:`ServerProfile`; a :class:`ProtocolSpec` defines how a
service speaking that protocol answers probes, how a *scanner* fingerprints
replies (from observable fields only — never the hidden ``protocol`` tag),
and what a full interrogation handshake collects.

The separation between ``Reply.protocol`` (ground truth, used only by the
evaluation harness) and ``Reply.fields`` (what a scanner can observe) is what
lets the Table 4 result — L7-validating engines vs. keyword-labeling
engines — emerge from mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

__all__ = [
    "Probe",
    "Reply",
    "ServerProfile",
    "ProtocolSpec",
    "SILENCE",
    "RESET",
    "silence",
    "reset",
]

#: Generic probe kinds every spec must tolerate (LZR's common triggers).
COMMON_PROBE_KINDS = ("banner-wait", "http-get", "generic-crlf", "tls-hello")


@dataclass(frozen=True, slots=True)
class Probe:
    """A client-to-server message (or a passive wait)."""

    kind: str
    payload: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class Reply:
    """A server-to-client message.

    ``protocol`` is the ground-truth protocol that produced the reply.  It
    exists for the evaluation harness and MUST NOT be read by scanner code;
    scanners fingerprint via ``fields`` only.
    """

    kind: str
    protocol: str
    fields: Mapping[str, Any] = field(default_factory=dict)

    @property
    def is_silence(self) -> bool:
        return self.kind == "silence"

    @property
    def is_reset(self) -> bool:
        return self.kind == "reset"

    @property
    def has_data(self) -> bool:
        return not (self.is_silence or self.is_reset)


SILENCE = Reply(kind="silence", protocol="")
RESET = Reply(kind="reset", protocol="")


def silence() -> Reply:
    """A server that never answers the probe."""
    return SILENCE


def reset(protocol: str = "") -> Reply:
    """A server that tears the connection down in response to the probe."""
    return RESET if not protocol else Reply(kind="reset", protocol=protocol)


@dataclass(slots=True)
class ServerProfile:
    """The configuration of one simulated service.

    Produced by a :meth:`ProtocolSpec.make_profile` from the workload
    generator's RNG; consumed by :meth:`ProtocolSpec.respond`.
    """

    protocol: str
    #: (vendor, product, version) triple driving banners, CPEs and CVEs.
    software: tuple[str, str, str]
    #: Protocol-specific attributes (banner text, page title, device model...).
    attributes: Dict[str, Any] = field(default_factory=dict)
    #: Present when the service wraps its protocol in TLS.
    tls: Optional["TlsEndpointProfile"] = None

    @property
    def vendor(self) -> str:
        return self.software[0]

    @property
    def product(self) -> str:
        return self.software[1]

    @property
    def version(self) -> str:
        return self.software[2]


@dataclass(slots=True)
class TlsEndpointProfile:
    """TLS parameters of a service: certificate linkage and fingerprints."""

    certificate_sha256: str
    subject_names: tuple[str, ...]
    ja4s: str
    version: str = "TLSv1.3"
    self_signed: bool = False


class ProtocolSpec:
    """Behaviour of one application-layer protocol.

    Subclasses define server responses, scanner fingerprinting, and the full
    interrogation handshake.  One instance per protocol is registered in
    :mod:`repro.protocols.registry`.
    """

    #: Canonical protocol name (upper-case, matching the paper's tables).
    name: str = ""
    #: Transport: "tcp" or "udp".
    transport: str = "tcp"
    #: Ports IANA assigns (or convention strongly associates) to the protocol.
    default_ports: Sequence[int] = ()
    #: True when the server speaks first upon connect (SSH, FTP, SMTP...).
    server_initiated: bool = False
    #: True for industrial-control protocols (Table 4 census).
    is_ics: bool = False
    #: What :meth:`fingerprint` can possibly match on, declared so the
    #: detector can dispatch on a reply's shape instead of trying every
    #: spec.  Soundness contract: ``fingerprint(reply)`` implies
    #: ``reply.kind in fingerprint_kinds`` or some name in
    #: ``fingerprint_fields`` is a key of ``reply.fields``.  A spec that
    #: declares neither is a candidate for every reply.
    fingerprint_kinds: Sequence[str] = ()
    fingerprint_fields: Sequence[str] = ()

    # ------------------------------------------------------------------
    # Server side
    # ------------------------------------------------------------------

    def make_profile(self, rng) -> ServerProfile:
        """Generate a plausible server configuration.

        ``rng`` is a ``random.Random``; implementations must draw all
        randomness from it so workloads are reproducible.
        """
        raise NotImplementedError

    def respond(self, profile: ServerProfile, probe: Probe) -> Reply:
        """The reply a server with ``profile`` gives to ``probe``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Scanner side
    # ------------------------------------------------------------------

    def fingerprint(self, reply: Reply) -> bool:
        """Whether ``reply``'s *observable fields* identify this protocol.

        Implementations must not read ``reply.protocol``.
        """
        raise NotImplementedError

    def handshake_probes(self, port: int) -> List[Probe]:
        """The probes a deep interrogation sends after detection."""
        return [Probe("banner-wait")] if self.server_initiated else []

    def build_record(self, replies: Sequence[Reply]) -> Dict[str, Any]:
        """Assemble the structured, non-ephemeral service record.

        The default merges all observable reply fields; protocol modules
        override to shape records like the paper's structured data model.
        """
        record: Dict[str, Any] = {}
        for reply in replies:
            if reply.has_data:
                record.update(reply.fields)
        return record

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    def _unknown_probe(self, profile: ServerProfile, probe: Probe) -> Reply:
        """Default reaction to probes the protocol does not understand."""
        return silence()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ProtocolSpec {self.name}>"


def merge_fields(*mappings: Mapping[str, Any]) -> Dict[str, Any]:
    """Merge reply field mappings left-to-right (later keys win)."""
    merged: Dict[str, Any] = {}
    for mapping in mappings:
        merged.update(mapping)
    return merged


def pick(rng, options: Sequence[Any]) -> Any:
    """Uniform choice helper that tolerates tuples/lists uniformly."""
    return options[rng.randrange(len(options))]


def weighted_pick(rng, options: Iterable[tuple[Any, float]]) -> Any:
    """Choice weighted by the second tuple element."""
    items = list(options)
    total = sum(weight for _, weight in items)
    x = rng.random() * total
    for value, weight in items:
        x -= weight
        if x <= 0:
            return value
    return items[-1][0]
