"""Equality oracle for reply-shape dispatch in ``ProtocolDetector``.

``ProtocolDetector._note`` checks a reply only against the specs anchored
on its shape (its kind and the names of its fields).  The reference is the
linear scan it replaced — every spec's ``fingerprint`` in ``_ordered``
rank, HTTP last — kept here, test-side.  The two must agree on every reply
the protocol catalogue can emit, on whole detection sessions (plaintext
and TLS-wrapped), and on generated replies that poke at the anchoring
argument: unknown kinds, extra and missing fields, ``None`` and non-string
values.
"""

import dataclasses
import random
from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols import Probe, ProtocolDetector, Reply, default_registry
from repro.protocols.base import ProtocolSpec, silence
from repro.protocols.detect import DetectionResult
from repro.protocols.registry import ProtocolRegistry
from tests.test_protocols_detect import FakeConnection, make_tls

REGISTRY = default_registry()
PROFILE_SEEDS = range(30)
GENERIC_PROBES = [
    Probe("banner-wait"),
    Probe("http-get", {"path": "/"}),
    Probe("generic-crlf"),
    Probe("tls-hello"),
]
PSEUDO_REPLY = Reply("banner", "PSEUDO", {"banner": "\x00\x01opaque"})


def linear_protocol(detector: ProtocolDetector, reply: Reply) -> Optional[str]:
    """The retained reference: try every spec, in ``_ordered`` rank."""
    for spec in detector._ordered:
        if spec.fingerprint(reply):
            return spec.name
    return None


class LinearDetector(ProtocolDetector):
    """The detector as it was before the index: ``_note`` scans every spec."""

    def _note(self, reply: Reply, result: DetectionResult) -> bool:
        if not reply.has_data:
            return False
        result.observed.append(reply)
        protocol = linear_protocol(self, reply)
        if protocol is None:
            return False
        result.protocol = protocol
        result.evidence = reply
        return True


def dispatched(detector: ProtocolDetector, reply: Reply) -> DetectionResult:
    result = DetectionResult(protocol=None)
    detector._note(reply, result)
    return result


def registry_probes() -> List[Probe]:
    """Every handshake probe any spec sends on any of its ports, plus the
    generic triggers — the whole probe vocabulary of the catalogue."""
    probes = {(p.kind, tuple(sorted(p.payload.items()))): p for p in GENERIC_PROBES}
    for spec in REGISTRY.specs:
        for port in tuple(spec.default_ports) or (0,):
            for probe in spec.handshake_probes(port):
                probes.setdefault((probe.kind, tuple(sorted(probe.payload.items()))), probe)
    return list(probes.values())


@pytest.fixture(scope="module")
def catalogue_replies() -> List[Reply]:
    """spec x 30 seeded profiles x every probe in the registry."""
    probes = registry_probes()
    replies = [PSEUDO_REPLY]
    for spec in REGISTRY.specs:
        for seed in PROFILE_SEEDS:
            profile = spec.make_profile(random.Random(seed))
            replies.extend(spec.respond(profile, probe) for probe in probes)
    return [reply for reply in replies if reply.has_data]


class TestDispatchEqualsLinearScan:
    def test_every_catalogue_reply(self, catalogue_replies):
        detector = ProtocolDetector(REGISTRY)
        assert len(catalogue_replies) > 3000
        identified = set()
        for reply in catalogue_replies:
            expected = linear_protocol(detector, reply)
            result = dispatched(detector, reply)
            assert result.protocol == expected, reply
            assert result.observed == [reply]
            assert result.evidence is (reply if expected else None)
            identified.add(expected)
        # The corpus reaches every protocol, not just the no-match path.
        assert identified >= set(REGISTRY.names)

    @pytest.mark.parametrize("spec", REGISTRY.specs, ids=lambda s: s.name)
    @pytest.mark.parametrize("tls", [False, True], ids=["plain", "tls"])
    def test_whole_sessions(self, spec, tls):
        """detect() end to end — banner wait, assigned probes, triggers,
        TLS retry — yields the same DetectionResult either way."""
        fast, reference = ProtocolDetector(REGISTRY), LinearDetector(REGISTRY)
        ports = (tuple(spec.default_ports)[:1] or (0,)) + (48555,)
        for seed in PROFILE_SEEDS:
            profile = spec.make_profile(random.Random(seed))
            if tls:
                profile.tls = make_tls()
            for port in ports:
                got = fast.detect(FakeConnection(profile, port, spec.transport))
                want = reference.detect(FakeConnection(profile, port, spec.transport))
                assert dataclasses.asdict(got) == dataclasses.asdict(want), (spec.name, seed, port)

    def test_pseudo_host_banner_stays_unidentified(self):
        detector = ProtocolDetector(REGISTRY)
        assert linear_protocol(detector, PSEUDO_REPLY) is None
        assert dispatched(detector, PSEUDO_REPLY).protocol is None

    def test_silence_and_reset_are_not_recorded(self):
        detector = ProtocolDetector(REGISTRY)
        for reply in (silence(), Reply("reset", "")):
            result = DetectionResult(protocol=None)
            assert detector._note(reply, result) is False
            assert result.observed == []


# -- generated replies ---------------------------------------------------------------

_KINDS = sorted({kind for spec in REGISTRY.specs for kind in spec.fingerprint_kinds})
_FIELDS = sorted({name for spec in REGISTRY.specs for name in spec.fingerprint_fields})
_TEXTS = [
    "", "SSH-2.0-x", "220 mail ESMTP SMTP", "220 ftp ready", "+OK", "-ERR", "* OK", "* BAD",
    "@RSYNCD: 31", "RFB 003.008", "login: ", "RTSP/1.0 200", "+PONG", "-NOAUTH", "ERROR",
    "500 Unknown command", "5.5.2 syntax", "You Know, for Search",
]
_values = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 6), st.sampled_from(_TEXTS),
    st.text(max_size=8), st.lists(st.integers(0, 3), max_size=2), st.just(("a", 1)),
)
_replies = st.builds(
    Reply,
    kind=st.one_of(st.sampled_from(_KINDS), st.sampled_from(["banner", "error", "raw"]), st.text(max_size=6)),
    protocol=st.just(""),
    fields=st.dictionaries(
        st.one_of(st.sampled_from(_FIELDS + ["status", "server_version", "error_code"]), st.text(max_size=5)),
        _values, max_size=5,
    ),
)


class TestGeneratedReplies:
    @settings(max_examples=600, deadline=None)
    @given(_replies)
    def test_dispatch_equals_linear_scan(self, reply):
        detector = _SHARED_DETECTOR
        if not reply.has_data:
            return
        assert dispatched(detector, reply).protocol == linear_protocol(detector, reply)


_SHARED_DETECTOR = ProtocolDetector(REGISTRY)


# -- the declarations -----------------------------------------------------------------


class TestSoundnessContract:
    @pytest.mark.parametrize("spec", REGISTRY.specs, ids=lambda s: s.name)
    def test_fingerprint_implies_declared_anchor(self, spec, catalogue_replies):
        """fingerprint(reply) => reply.kind in kinds or a declared field present."""
        assert spec.fingerprint_kinds or spec.fingerprint_fields, "catalogue specs all declare"
        kinds, fields = set(spec.fingerprint_kinds), set(spec.fingerprint_fields)
        matched = 0
        for reply in catalogue_replies:
            if spec.fingerprint(reply):
                matched += 1
                assert reply.kind in kinds or fields & set(reply.fields), reply
        assert matched > 0

    @settings(max_examples=300, deadline=None)
    @given(_replies)
    def test_contract_on_generated_replies(self, reply):
        for spec in REGISTRY.specs:
            if spec.fingerprint(reply):
                assert reply.kind in spec.fingerprint_kinds or set(spec.fingerprint_fields) & set(
                    reply.fields
                ), (spec.name, reply)


class _CountingSpec(ProtocolSpec):
    """Counts fingerprint calls; matches nothing unless told to."""

    def __init__(self, name, kinds=(), fields=(), matches=False):
        self.name = name
        self.fingerprint_kinds = kinds
        self.fingerprint_fields = fields
        self.matches = matches
        self.calls = 0

    def fingerprint(self, reply: Reply) -> bool:
        self.calls += 1
        return self.matches


class TestCandidateSelection:
    def test_http_still_loses_ties(self):
        """A reply both HTTP and a specific protocol fingerprint goes to the
        specific one: candidates keep ``_ordered`` rank."""
        detector = ProtocolDetector(REGISTRY)
        reply = Reply("http-response", "", {"status": 200, "es_tagline": "You Know, for Search"})
        assert REGISTRY.get("HTTP").fingerprint(reply)
        assert dispatched(detector, reply).protocol == "ELASTICSEARCH"
        names = [spec.name for spec in detector._candidates_for(reply)]
        assert names[-1] == "HTTP" and "ELASTICSEARCH" in names
        # ...and a late-sorting name does not outrank HTTP's last place.
        zed = _CountingSpec("ZED", kinds=("http-response",), matches=True)
        detector = ProtocolDetector(ProtocolRegistry(REGISTRY.specs + [zed]))
        assert dispatched(detector, Reply("http-response", "", {"status": 200})).protocol == "ZED"

    def test_a_spec_declaring_nothing_is_always_a_candidate(self):
        undeclared = _CountingSpec("AAA-THIRD-PARTY", matches=True)
        detector = ProtocolDetector(ProtocolRegistry(REGISTRY.specs + [undeclared]))
        for reply in (PSEUDO_REPLY, Reply("never-seen", "", {}), Reply("http-response", "", {"status": 1})):
            assert undeclared in detector._candidates_for(reply)
            assert dispatched(detector, reply).protocol == "AAA-THIRD-PARTY"
        assert undeclared.calls == 3

    def test_declared_specs_are_only_tried_on_their_shapes(self):
        by_kind = _CountingSpec("BY-KIND", kinds=("k1",))
        by_field = _CountingSpec("BY-FIELD", fields=("f1",))
        detector = ProtocolDetector(ProtocolRegistry([by_kind, by_field]))
        dispatched(detector, Reply("k1", "", {}))
        dispatched(detector, Reply("other", "", {"f1": None}))
        dispatched(detector, Reply("other", "", {"f2": 1}))
        assert (by_kind.calls, by_field.calls) == (1, 1)

    def test_at_most_ten_fingerprint_calls_per_catalogue_reply(self, catalogue_replies):
        detector = ProtocolDetector(REGISTRY)
        widest = max(len(detector._candidates_for(reply)) for reply in catalogue_replies)
        assert 0 < widest <= 10 < len(REGISTRY)
        # One memo entry per shape: names only, so the catalogue is small.
        assert len(detector._candidates) < 200

    def test_shape_memo_is_bounded(self, monkeypatch):
        import repro.protocols.detect as detect

        monkeypatch.setattr(detect, "_MAX_SHAPES", 4)
        detector = ProtocolDetector(REGISTRY)
        for i in range(20):
            reply = Reply("banner", "", {f"made-up-{i}": 1, "banner": "SSH-2.0-x"})
            assert dispatched(detector, reply).protocol == "SSH"
        assert len(detector._candidates) == 4
