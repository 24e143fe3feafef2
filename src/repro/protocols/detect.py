"""LZR-inspired L7 protocol detection.

Given an established L4 connection, the detector:

1. waits for server-initiated communication (SSH/FTP/SMTP banner...),
2. attempts the IANA-assigned protocol for the port, if any,
3. tries common triggers (HTTP GET, raw CRLF) to elicit a fingerprintable
   error — e.g. an SMTP ``502`` in response to an HTTP request,
4. attempts a TLS handshake and, if one succeeds, repeats 1–3 inside the
   session,
5. captures the raw response when data was seen but nothing fingerprinted.

The detector identifies protocols exclusively from observable reply fields
via :meth:`ProtocolSpec.fingerprint`; it never reads the ground-truth tag.

Which fingerprints a reply is checked against is decided by its *shape* —
its kind and the names of the fields it carries — the message-level
analogue of LZR's observation that the first bytes of a response select the
few handshakes worth trying.  Each spec declares the kinds and field names
its fingerprint can match on (``ProtocolSpec.fingerprint_kinds`` /
``fingerprint_fields``); a reply only meets the specs anchored on its
shape, in the same order the full scan would have tried them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Protocol, Tuple

from repro.protocols.base import Probe, ProtocolSpec, Reply
from repro.protocols.registry import ProtocolRegistry

__all__ = ["Connection", "DetectionResult", "ProtocolDetector"]

#: Bound on memoised reply shapes, so replies with made-up field names
#: cannot grow the memo without limit; past it, shapes are recomputed.
_MAX_SHAPES = 4096


class Connection(Protocol):
    """What the detector needs from a transport connection."""

    port: int
    transport: str

    def send(self, probe: Probe) -> Reply:
        """Send a probe in the current session (plaintext or TLS)."""

    def start_tls(self) -> Optional[Reply]:
        """Attempt a TLS handshake; server-hello on success, None otherwise."""

    @property
    def in_tls(self) -> bool: ...


@dataclass(slots=True)
class DetectionResult:
    """Outcome of a detection attempt on one connection."""

    protocol: Optional[str]
    #: TLS server-hello fields when a TLS session was established.
    tls: Optional[Dict[str, Any]] = None
    #: The reply that fingerprinted the protocol.
    evidence: Optional[Reply] = None
    #: Raw unfingerprinted data, captured per the paper's fallback.
    raw_response: Optional[Dict[str, Any]] = None
    probes_sent: int = 0
    #: Replies observed along the way (for banner-grab style baselines).
    observed: List[Reply] = field(default_factory=list)

    @property
    def identified(self) -> bool:
        return self.protocol is not None


class ProtocolDetector:
    """Runs the LZR-style identification process against a connection."""

    #: Common triggers tried after the IANA guess (LZR's top handshakes).
    COMMON_TRIGGERS = (Probe("http-get", {"path": "/"}), Probe("generic-crlf"))

    def __init__(self, registry: ProtocolRegistry) -> None:
        self._registry = registry
        # Deterministic fingerprinting order; HTTP last among the generic
        # checks so protocol-specific matches win (HTTP's is the loosest).
        self._ordered = sorted(
            registry.specs, key=lambda spec: (spec.name == "HTTP", spec.name)
        )
        #: (spec, declared kinds, declared field names), in ``_ordered`` rank.
        self._anchors = [
            (spec, frozenset(spec.fingerprint_kinds), frozenset(spec.fingerprint_fields))
            for spec in self._ordered
        ]
        #: Reply shape -> the specs whose fingerprint can match it.  Keys
        #: hold names only, never values: the catalogue's whole reply
        #: vocabulary is ~90 shapes.
        self._candidates: Dict[Tuple[str, FrozenSet[str]], Tuple[ProtocolSpec, ...]] = {}

    def detect(self, conn: Connection) -> DetectionResult:
        result = DetectionResult(protocol=None)
        if self._detect_in_session(conn, result):
            return result
        # Step 4: try TLS; on success repeat detection inside the session.
        hello = conn.start_tls()
        result.probes_sent += 1
        if hello is not None:
            result.tls = dict(hello.fields)
            if self._detect_in_session(conn, result):
                return result
        # Step 5: keep the raw capture when data was seen but not identified.
        for reply in result.observed:
            if reply.has_data:
                result.raw_response = dict(reply.fields)
                break
        return result

    # ------------------------------------------------------------------

    def _detect_in_session(self, conn: Connection, result: DetectionResult) -> bool:
        """Steps 1–3 within the current (plaintext or TLS) session."""
        if conn.transport == "udp":
            # UDP has no banner phase; only the assigned protocol's probe
            # elicits a response (the discovery scan already used it).
            return self._try_assigned(conn, result)
        reply = conn.send(Probe("banner-wait"))
        result.probes_sent += 1
        if self._note(reply, result):
            return True
        if self._try_assigned(conn, result):
            return True
        for trigger in self.COMMON_TRIGGERS:
            reply = conn.send(trigger)
            result.probes_sent += 1
            if self._note(reply, result):
                return True
        return False

    def _try_assigned(self, conn: Connection, result: DetectionResult) -> bool:
        assigned = self._registry.assigned_to_port(conn.port, conn.transport)
        if assigned is None:
            return False
        for probe in assigned.handshake_probes(conn.port) or [Probe("banner-wait")]:
            reply = conn.send(probe)
            result.probes_sent += 1
            if self._note(reply, result):
                return True
        return False

    def _candidates_for(self, reply: Reply) -> Tuple[ProtocolSpec, ...]:
        """The specs anchored on ``reply``'s shape, in ``_ordered`` rank.

        A spec is a candidate when it declares the reply's kind, declares
        one of the field names the reply carries, or declares nothing at
        all (an undeclared spec is checked against everything, exactly as
        before the index).  By the soundness contract on the declarations
        no other spec's ``fingerprint`` can return True for this reply.
        """
        kind, names = reply.kind, frozenset(reply.fields)
        candidates = self._candidates.get((kind, names))
        if candidates is None:
            candidates = tuple(
                spec
                for spec, kinds, fields in self._anchors
                if kind in kinds or not names.isdisjoint(fields) or not (kinds or fields)
            )
            if len(self._candidates) < _MAX_SHAPES:
                self._candidates[(kind, names)] = candidates
        return candidates

    def _note(self, reply: Reply, result: DetectionResult) -> bool:
        """Record a reply and check it against the fingerprints its shape selects."""
        if not reply.has_data:
            return False
        result.observed.append(reply)
        for spec in self._candidates_for(reply):
            if spec.fingerprint(reply):
                result.protocol = spec.name
                result.evidence = reply
                return True
        return False
