"""The compiled query-plan layer: canonicalization, plan caching, and
plan-vs-legacy equivalence across shard counts and executor backends.

The refactor these tests pin: queries compile once (parse → canonicalize
→ plan) through a process-wide memo, equivalent spellings share one
canonical plan (and therefore one result-cache entry), and the plan path
returns digest-identical answers to the brute-force scan-and-verify
reference on every shard/executor configuration.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.search.plan as plan_module
from repro.pipeline import ShardMap, canonical_json, make_executor, state_digest
from repro.search import (
    Bool,
    Compare,
    Not,
    PlanCache,
    QueryPlan,
    Range,
    SearchIndex,
    ShardedSearchIndex,
    Term,
    canonicalize,
    compile_query,
    matches,
    parse_query,
    render_query,
)

# ----------------------------------------------------------------------
# Corpus
# ----------------------------------------------------------------------

FIELDS = ["services.service_name", "services.port", "location.country", "labels", "cve_ids"]

SERVICES = ["http", "https", "ssh", "modbus", "dns", "ntp", "telnet"]
COUNTRIES = ["US", "DE", "JP", "BR", "IN"]
LABELS = ["c2-server", "honeypot", "cdn", "iot"]
CVES = ["CVE-2023-34362", "CVE-2021-44228", "CVE-2019-19781"]


def build_docs(n=60):
    docs = {}
    for i in range(n):
        docs[f"host:10.0.{i // 256}.{i % 256}"] = {
            "services.service_name": [SERVICES[i % len(SERVICES)], SERVICES[(i * 3) % len(SERVICES)]],
            "services.port": [22 + (i * 7) % 1000, 80 + (i * 13) % 8000],
            "location.country": [COUNTRIES[i % len(COUNTRIES)]],
            "labels": [LABELS[i % len(LABELS)]] if i % 3 == 0 else [],
            "cve_ids": [CVES[i % len(CVES)]] if i % 4 == 0 else [],
        }
    return docs


QUERY_CORPUS = [
    "services.service_name: http",
    "services.service_name: http and location.country: US",
    "location.country: US and services.service_name: http",  # commuted
    "services.service_name: http or services.service_name: ssh",
    "services.service_name: ssh or services.service_name: http",  # commuted
    "not services.service_name: modbus",
    "not (services.service_name: modbus or location.country: DE)",
    "services.port: [100 to 2000]",
    "services.port > 500",
    "services.port <= 443 and location.country: JP",
    "services.service_name: htt*",
    "not services.service_name: htt*",
    "modbus",
    "labels: c2-server or cve_ids: CVE-2023-34362",
    "(services.service_name: http or services.service_name: https) and not labels: cdn",
    "services.service_name: http and services.service_name: http",  # idempotent
    "not not services.service_name: dns",
    "services.port: [900 to 100] or services.service_name: ntp",  # empty range folds away
    "services.service_name: telnet and services.port: [900 to 100]",  # unsatisfiable AND
    "(location.country: US or location.country: DE) and (services.port > 80 or labels: iot)",
]


def brute_force(docs, query):
    node = parse_query(query)
    return sorted(doc_id for doc_id, doc in docs.items() if matches(node, doc))


# ----------------------------------------------------------------------
# Canonicalization
# ----------------------------------------------------------------------


class TestCanonicalize:
    def test_commutativity(self):
        a = parse_query("a: 1 and b: 2")
        b = parse_query("b: 2 and a: 1")
        assert canonicalize(a) == canonicalize(b)

    def test_flatten_and_dedup(self):
        node = parse_query("a: 1 and (b: 2 and a: 1)")
        canonical = canonicalize(node)
        assert canonical == Bool("and", (Term("a", "1"), Term("b", "2")))

    def test_double_negation(self):
        assert canonicalize(parse_query("not not a: 1")) == Term("a", "1")

    def test_de_morgan_push_down(self):
        node = canonicalize(parse_query("not (a: 1 or b: 2)"))
        assert node == Bool("and", (Not(Term("a", "1")), Not(Term("b", "2"))))
        node = canonicalize(parse_query("not (a: 1 and b: 2)"))
        assert node == Bool("or", (Not(Term("a", "1")), Not(Term("b", "2"))))

    def test_empty_range_folds_out_of_or(self):
        node = canonicalize(parse_query("f: [9 to 1] or a: 1"))
        assert node == Term("a", "1")

    def test_empty_range_absorbs_and(self):
        node = canonicalize(parse_query("a: 1 and f: [9 to 1]"))
        assert node == Range("f", 9.0, 1.0)

    def test_singleton_bool_collapses(self):
        assert canonicalize(Bool("or", (Term("a", "1"),))) == Term("a", "1")

    def test_equivalent_spellings_share_one_plan_key(self):
        assert compile_query("a: 1 and b: 2") == compile_query("b: 2 and a: 1")
        assert compile_query("a: 1 and b: 2").key == compile_query("b: 2 and a: 1").key


# ----------------------------------------------------------------------
# Property tests
# ----------------------------------------------------------------------

_values = st.sampled_from(SERVICES + COUNTRIES + ["foo", "bar", "10", "x-y"])
_fields = st.sampled_from(FIELDS)
_numbers = st.integers(min_value=-50, max_value=10050).map(float)


def _leaves():
    return st.one_of(
        st.builds(Term, st.one_of(st.none(), _fields), _values),
        st.builds(lambda f, v: Term(f, v + "*"), _fields, _values),
        st.builds(Compare, _fields, st.sampled_from([">", ">=", "<", "<="]), _numbers),
        st.builds(Range, _fields, _numbers, _numbers),
    )


_asts = st.recursive(
    _leaves(),
    lambda children: st.one_of(
        st.builds(Not, children),
        st.builds(
            lambda op, cs: Bool(op, tuple(cs)),
            st.sampled_from(["and", "or"]),
            st.lists(children, min_size=2, max_size=4),
        ),
    ),
    max_leaves=12,
)

_docs = st.dictionaries(
    _fields,
    st.lists(st.one_of(_values, st.integers(min_value=0, max_value=10000)), max_size=3),
    max_size=4,
)


class TestCanonicalizationProperties:
    @settings(max_examples=200, deadline=None)
    @given(_asts)
    def test_render_parse_round_trip(self, node):
        assert parse_query(render_query(node)) == node

    @settings(max_examples=200, deadline=None)
    @given(_asts)
    def test_canonical_render_parse_fixpoint(self, node):
        canonical = canonicalize(node)
        assert canonicalize(parse_query(render_query(canonical))) == canonical

    @settings(max_examples=200, deadline=None)
    @given(_asts, _asts)
    def test_conjunction_commutes(self, a, b):
        assert canonicalize(Bool("and", (a, b))) == canonicalize(Bool("and", (b, a)))
        assert canonicalize(Bool("or", (a, b))) == canonicalize(Bool("or", (b, a)))

    @settings(max_examples=300, deadline=None)
    @given(_asts, _docs)
    def test_canonicalization_preserves_matches(self, node, doc):
        assert matches(canonicalize(node), doc) == matches(node, doc)

    @settings(max_examples=150, deadline=None)
    @given(_asts, _docs)
    def test_plan_matches_doc_equals_legacy_matches(self, node, doc):
        plan = plan_module.compile_node(node)
        assert plan.matches_doc(doc) == matches(node, doc)


class TestExactnessInvariant:
    """NOT over anything inexact must never claim exactness."""

    def _index(self):
        index = SearchIndex()
        for doc_id, doc in build_docs(20).items():
            index.put(doc_id, doc)
        return index

    def test_wildcard_candidates_inexact(self):
        index = self._index()
        _, exact = compile_query("services.service_name: htt*").candidates(index)
        assert exact is False

    def test_not_of_wildcard_never_exact(self):
        index = self._index()
        candidates, exact = compile_query("not services.service_name: htt*").candidates(index)
        assert exact is False
        assert candidates is None  # falls back to the full universe + verify

    def test_not_of_inexact_bool_never_exact(self):
        index = self._index()
        plan = compile_query("not (services.service_name: htt* and location.country: US)")
        _, exact = plan.candidates(index)
        assert exact is False

    def test_not_of_exact_term_is_exact_difference(self):
        index = self._index()
        candidates, exact = compile_query("not services.service_name: http").candidates(index)
        assert exact is True
        expected = set(brute_force(dict(index.items()), "not services.service_name: http"))
        assert candidates == expected


# ----------------------------------------------------------------------
# Plan caching / parse memoization (satellite regression)
# ----------------------------------------------------------------------


class TestPlanMemoization:
    def test_same_string_parses_once(self, monkeypatch):
        calls = []
        real = plan_module.parse_query

        def counting(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(plan_module, "parse_query", counting)
        index = SearchIndex()
        for doc_id, doc in build_docs(10).items():
            index.put(doc_id, doc)
        query = "services.service_name: http and location.country: US and labels: plan-memo-probe"
        for _ in range(5):
            index.search(query)
            index.count(query)
            index.aggregate(query, "location.country")
        assert calls.count(query) == 1

    def test_sharded_router_parses_once(self, monkeypatch):
        calls = []
        real = plan_module.parse_query

        def counting(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(plan_module, "parse_query", counting)
        sharded = ShardedSearchIndex(ShardMap(2))
        for doc_id, doc in build_docs(10).items():
            sharded.put(doc_id, doc)
        query = "services.port > 80 and labels: sharded-memo-probe"
        for _ in range(4):
            sharded.search(query)
            sharded.count(query)
        assert calls.count(query) == 1

    def test_plan_cache_stats_and_bound(self):
        cache = PlanCache(capacity=2)
        cache.get("a: 1")
        cache.get("a: 1")
        cache.get("b: 2")
        cache.get("c: 3")  # evicts "a: 1"
        assert cache.report()["compiles"] == 3
        assert cache.report()["hits"] == 1
        assert len(cache) == 2
        cache.get("a: 1")
        assert cache.report()["compiles"] == 4

    def test_precompiled_plan_passes_through(self):
        plan = compile_query("a: 1")
        assert compile_query(plan) is plan


class TestCommutedSpellingsShareCache:
    def test_sharded_result_cache_keyed_on_canonical_plan(self):
        sharded = ShardedSearchIndex(ShardMap(2), query_cache_entries=64)
        for doc_id, doc in build_docs(30).items():
            sharded.put(doc_id, doc)
        first = sharded.search("services.service_name: http and location.country: US")
        hits_before = sharded.cache_report()["hits"]
        second = sharded.search("location.country: US and services.service_name: http")
        assert second == first
        assert sharded.cache_report()["hits"] == hits_before + 1


# ----------------------------------------------------------------------
# Aggregate counter semantics (satellite fix)
# ----------------------------------------------------------------------


class TestAggregateCounters:
    def test_aggregate_does_not_bump_queries_run(self):
        index = SearchIndex()
        for doc_id, doc in build_docs(10).items():
            index.put(doc_id, doc)
        index.search("services.service_name: http")
        assert (index.queries_run, index.aggregates_run) == (1, 0)
        index.aggregate("services.service_name: http", "location.country")
        assert (index.queries_run, index.aggregates_run) == (1, 1)
        index.count("services.service_name: http")
        assert (index.queries_run, index.aggregates_run) == (2, 1)

    def test_sharded_aggregate_counter(self):
        sharded = ShardedSearchIndex(ShardMap(2), query_cache_entries=0)
        for doc_id, doc in build_docs(10).items():
            sharded.put(doc_id, doc)
        sharded.aggregate("services.service_name: http", "location.country")
        assert sharded.aggregates_run == 1
        assert sharded.queries_run == 0
        for shard in sharded.indexes:
            assert shard.queries_run == 0


# ----------------------------------------------------------------------
# Plan-vs-legacy equivalence sweep (digest-gated)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["serial", "thread"])
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_plan_path_digest_identical_to_reference(shards, backend):
    docs = build_docs(60)
    expected = {
        "search": {q: brute_force(docs, q) for q in QUERY_CORPUS},
        "aggregate": {},
    }
    reference = SearchIndex(accelerated=False)
    for doc_id, doc in docs.items():
        reference.put(doc_id, doc)
    for q in QUERY_CORPUS:
        assert reference.search(q) == expected["search"][q]
        expected["aggregate"][q] = reference.aggregate(q, "location.country")
    reference_digest = state_digest(canonical_json(expected))

    executor = make_executor(backend, workers=2)
    try:
        sharded = ShardedSearchIndex(ShardMap(shards), executor=executor, query_cache_entries=0)
        for doc_id, doc in docs.items():
            sharded.put(doc_id, doc)
        actual = {"search": {}, "aggregate": {}}
        for q in QUERY_CORPUS:
            actual["search"][q] = sharded.search(q)
            assert sharded.count(q) == len(actual["search"][q])
            actual["aggregate"][q] = sharded.aggregate(q, "location.country")
            limited = sharded.search(q, limit=5)
            assert limited == actual["search"][q][:5]
        assert state_digest(canonical_json(actual)) == reference_digest
    finally:
        executor.close()


def test_plan_object_round_trips_through_pickle():
    import pickle

    plan = compile_query("(a: 1 or b: 2) and not c: d*")
    clone = pickle.loads(pickle.dumps(plan, pickle.HIGHEST_PROTOCOL))
    assert clone == plan
    assert clone.key == plan.key
    assert clone.matches_doc({"a": ["1"]}) == plan.matches_doc({"a": ["1"]})


def test_unaccelerated_index_still_verifies_everything():
    docs = build_docs(25)
    fast, slow = SearchIndex(accelerated=True), SearchIndex(accelerated=False)
    for doc_id, doc in docs.items():
        fast.put(doc_id, doc)
        slow.put(doc_id, doc)
    for q in QUERY_CORPUS:
        assert fast.search(q) == slow.search(q)
        assert fast.count(q) == slow.count(q)
