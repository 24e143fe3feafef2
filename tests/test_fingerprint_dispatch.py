"""Equality oracle for indexed fingerprint dispatch.

``FingerprintEngine.identify`` evaluates only the rules anchored on fields
a record carries (plus the unanchored ones).  The reference is the linear
scan it replaced: every rule, in rule order.  The two must agree on every
record the simulated Internet can emit and on generated records that poke
at the anchoring argument — missing fields, ``None`` values, list and tuple
values, and rules that have only a DSL program.
"""

from typing import Any, Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.enrich import FingerprintEngine, FingerprintRule, default_fingerprints
from repro.enrich.dsl import compile_program, evaluate, parse, required_fields
from repro.protocols import Interrogator, default_registry
from repro.simnet import DAY, WorkloadConfig, build_simnet
from repro.simnet.internet import SimConnection


def linear_identify(engine: FingerprintEngine, record: Dict[str, Any]) -> List[Any]:
    """The retained reference: try every rule, in rule order."""
    return [m for m in (rule.matches(record) for rule in engine.rules) if m is not None]


def linear_best(engine: FingerprintEngine, record: Dict[str, Any]):
    matches = linear_identify(engine, record)
    if not matches:
        return None
    return sorted(matches, key=lambda m: (m.version is None, m.rule))[0]


@pytest.fixture(scope="module")
def emitted_records() -> List[Dict[str, Any]]:
    """One full interrogation of every service instance of a seeded world."""
    internet = build_simnet(
        bits=13,
        workload_config=WorkloadConfig(seed=5, services_target=2500, t_end=4 * DAY),
        seed=5,
    )
    interrogator = Interrogator(default_registry())
    records = []
    for inst in internet.workload.instances:
        conn = SimConnection(internet, inst.port, inst.transport, inst.birth, instance=inst)
        result = interrogator.interrogate(conn)
        if result.record:
            records.append(dict(result.record))
    return records


class TestIndexedDispatchEqualsLinearScan:
    def test_every_emitted_record(self, emitted_records):
        engine = default_fingerprints()
        assert len(emitted_records) > 1000
        matched = 0
        for record in emitted_records:
            expected = linear_identify(engine, record)
            assert engine.identify(record) == expected, record
            assert engine.best(record) == linear_best(engine, record), record
            matched += bool(expected)
        # The corpus exercises the rule set, not just the no-match path.
        assert matched > len(emitted_records) // 4

    def test_the_index_saves_work_and_counts_what_it_evaluates(self, emitted_records):
        engine = default_fingerprints()
        for record in emitted_records:
            engine.identify(record)
        linear_checks = len(engine.rules) * len(emitted_records)
        # Measured 0.27 on this HTTP-heavy corpus (an HTTP record still
        # tries the ~19 rules anchored on its server and title fields).
        assert 0 < engine.checks < linear_checks // 3
        assert engine.hits == sum(len(linear_identify(engine, r)) for r in emitted_records)

    def test_program_only_rules_anchor_where_exact(self):
        engine = default_fingerprints()
        engine.identify({})
        unanchored = {rule.name for _pos, rule in engine._unanchored}
        # An ``or`` of text tests matches records lacking either field.
        assert unanchored == {"http-mikrotik"}
        by_name = {
            rule.name: anchor
            for anchor, rules in engine._anchored.items()
            for _pos, rule in rules
        }
        assert by_name["mysql-oracle"] == "mysql.server_version"
        assert by_name["c2-cobaltstrike"] in {
            "http.status", "http.html_title", "http.server", "http.is_c2"
        }
        assert len(by_name) + len(unanchored) == len(engine.rules)

    def test_rules_added_later_are_indexed(self):
        engine = default_fingerprints()
        record = {"x.banner": "frob 1.2"}
        assert engine.identify(record) == []
        engine.rules.append(
            FingerprintRule(
                name="late", vendor="v", product="p",
                filters={"x.banner": ("prefix", "frob")},
                version_from=("x.banner", r"frob ([\d.]+)"),
            )
        )
        assert [m.rule for m in engine.identify(record)] == ["late"]
        assert engine.identify(record) == linear_identify(engine, record)


# -- generated records ---------------------------------------------------------------------

_ENGINE = default_fingerprints()
_FIELDS = sorted(
    {name for rule in _ENGINE.rules for name in rule.filters}
    | {"http.status", "http.is_c2", "amqp.version", "modbus.revision", "tls.ja4s"}
)
_TEXTS = st.sampled_from([
    "", "nginx/1.24.0", "Apache/2.4.57 (Ubuntu)", "mikrotik httpd", "RouterOS v7",
    "Grafana", "MOVEit Transfer - Sign On", "SSH-2.0-OpenSSH_9.3", "SSH-2.0-ROSSSH",
    "220 mail ESMTP Postfix", "5.5.5-10.6.12-MariaDB", "8.0.33", "7.0.11", "v1.27.3",
    "RabbitMQ", "schneider", "S7-1200", "login: ", "prometheus", "Hikvision", "MinIO",
])
_VALUES = st.one_of(
    st.none(),
    _TEXTS,
    st.integers(min_value=0, max_value=600),
    st.booleans(),
    st.lists(_TEXTS, max_size=3),
    st.lists(_TEXTS, max_size=3).map(tuple),
)
_RECORDS = st.dictionaries(st.sampled_from(_FIELDS), _VALUES, max_size=6)


@given(record=_RECORDS)
@settings(max_examples=400, deadline=None)
def test_generated_records_match_linear_scan(record):
    assert _ENGINE.identify(record) == linear_identify(_ENGINE, record)
    assert _ENGINE.best(record) == linear_best(_ENGINE, record)


_PROGRAMS = [rule.program for rule in _ENGINE.rules if rule.program] + [
    '(and (present "http.status") (or (> (field "http.status") 399) (= (field "http.server") "")))',
    '(or (present "redis.version") (= (field "http.status") 200))',
    '(if (present "ssh.banner") (starts-with (field "ssh.banner") "SSH-2.0") (in (field "http.status") 200 301))',
    '(not (matches (field "http.server") "^nginx"))',
    '(= (field "http.server") (field "http.html_title"))',
    '(!= (field "http.status") 200)',
    '(contains (lower (concat (field "http.server") "/" (field "http.html_title"))) "routeros")',
    '(ends-with (field "telnet.banner") ": ")',
]


@given(record=_RECORDS)
@settings(max_examples=300, deadline=None)
def test_compiled_programs_match_the_tree_walking_reference(record):
    for program in _PROGRAMS:
        tree = parse(program)
        expected = evaluate(tree, record)
        assert compile_program(program)(record) == expected, program
        if expected:
            # Anchoring is exact: a truthy program has every required field.
            for name in required_fields(tree):
                assert record.get(name) is not None, (program, name)
