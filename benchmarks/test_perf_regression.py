"""Equality gates: vectorized hot paths == references, cached == uncached.

The acceleration contract is *bit-identity*: same seeds, same hits, same
tables.  These gates run the batched and reference implementations over
seeded input grids — wrap-around segments, lossy/geoblocked vantages,
negative pseudo-host salts, replacement/deletion churn in search — and
require exact agreement.  The serving gates do the same for the versioned
read-path caches: every lookup/search/count/aggregate against a cached
platform must equal the ``read_cache=False`` reference, including
immediately after writes and evictions invalidate entries.  Any
divergence is a correctness regression, not a perf trade-off.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_perf_regression.py``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import CensysPlatform, PlatformConfig
from repro.net import AffinePermutation, ProbeSpace, mix64_array, to_uint64
from repro.net.cyclic import _mix64
from repro.pipeline import ShardMap
from repro.search import SearchIndex, ShardedSearchIndex
from repro.simnet import DAY, Vantage, WorkloadConfig, build_simnet

VANTAGES = [
    Vantage("us-pop", "us", loss_rate=0.03, vantage_id=1),
    Vantage("eu-pop", "eu", loss_rate=0.25, vantage_id=2),
    Vantage("asia-pop", "asia", loss_rate=0.0, vantage_id=3),
]


@pytest.fixture(scope="module")
def net():
    return build_simnet(
        bits=14,
        workload_config=WorkloadConfig(
            seed=71, services_target=1500, t_start=-10 * DAY, t_end=10 * DAY
        ),
        seed=71,
    )


def test_mix64_vectorized_equals_scalar():
    rng = random.Random(41)
    values = [rng.randint(-(2**70), 2**70) for _ in range(5000)]
    values += [0, 1, -1, 2**63 - 1, 2**63, 2**64 - 1, -(2**63), 2**64 + 3]
    mixed = mix64_array(to_uint64(values)).tolist()
    assert mixed == [_mix64(v) for v in values]


def test_reachability_kernel_equals_scalar_grid(net):
    rng = np.random.default_rng(7)
    n = 1500
    ips = rng.integers(0, net.space.size, n)
    times = rng.uniform(-60 * DAY, 60 * DAY, n)
    salts = rng.integers(-(2**48), 2**48, n)
    for vantage in VANTAGES:
        batched = net.reachable_many(ips, vantage, times, salts)
        expected = [
            net.reachable(int(ips[i]), vantage, float(times[i]), int(salts[i]))
            for i in range(n)
        ]
        assert batched.tolist() == expected, vantage.name


def test_segment_queries_equal_reference_grid(net):
    space = ProbeSpace.single_range(0, net.space.size, list(range(0, 65536, 16)))
    perm = AffinePermutation(space.size, seed=123)
    index = net.prepare_scan(space, perm)
    m = perm.n
    cases = [
        (0, space.size // 8, 0.0, 2_000_000.0),
        (m - 50_000, 200_000, 5.0, 1_000_000.0),   # wraps past m
        (12345, m, -100.0, 90_000_000.0),          # full space
        (m - 1, 3, 100.0, 1000.0),                 # tiny wrap
    ]
    compared = 0
    for vantage in VANTAGES:
        for start, count, t0, rate in cases:
            fast = index.query(start, count, t0, rate, vantage)
            slow = index.query_reference(start, count, t0, rate, vantage)
            assert len(fast) == len(slow)
            for a, b in zip(fast, slow):
                assert a.target == b.target
                assert a.probe_time == b.probe_time
                assert a.instance is b.instance
                assert a.pseudo is b.pseudo
            compared += len(fast)
    assert compared > 1000  # the grid must actually exercise hits


def test_alive_index_equals_linear_scan(net):
    for t in (-60 * DAY, -1.0, 0.0, 2.5 * DAY, 9 * DAY, 1000 * DAY):
        fast = net.services_alive_at(t)
        slow = [i for i in net.workload.instances if i.alive_at(t) and i.protocol != "NONE"]
        assert fast == slow, t


def test_search_accelerated_equals_reference_battery():
    protocols = ["HTTP", "HTTPS", "SSH", "MODBUS", "RDP", "FTP", "NONE-ISH"]
    countries = ["US", "DE", "CN", "FR", "NL"]

    def populate(index, seed):
        rng = random.Random(seed)
        for i in range(1200):
            index.put(
                f"host:{i}",
                {
                    "services.service_name": [rng.choice(protocols)],
                    "location.country": [rng.choice(countries)],
                    "services.port": [rng.choice([21, 22, 80, 443, 502, 3389, 8080])],
                    "services.banner": [f"build {rng.randint(0, 50)}"],
                },
            )

    fast = SearchIndex()
    slow = SearchIndex(accelerated=False)
    populate(fast, 29)
    populate(slow, 29)
    queries = [
        "services.service_name: MODBUS",
        "services.service_name: HTT*",
        "services.port: [80 to 502]",
        "services.port: [502 to 80]",     # empty range
        "services.port > 443",
        "services.port >= 443",
        "services.port < 80",
        "services.port <= 80",
        "not services.service_name: HTTP",
        "not services.service_name: HTT*",
        "services.service_name: SSH and services.port: 22",
        "services.service_name: SSH or services.service_name: FTP",
        "location.country: US and not services.port >= 1000",
        "not (services.port: [1 to 100] or services.port: 3389)",
        "banner build",
    ]
    for query in queries:
        assert fast.search(query) == slow.search(query), query
    # Churn: replacements and deletions must keep the two in lockstep.
    rng = random.Random(31)
    for _ in range(200):
        i = rng.randrange(1200)
        if rng.random() < 0.3:
            fast.delete(f"host:{i}")
            slow.delete(f"host:{i}")
        else:
            doc = {
                "services.service_name": [rng.choice(protocols)],
                "services.port": [rng.choice([22, 80, 443, 9999])],
            }
            fast.put(f"host:{i}", dict(doc))
            slow.put(f"host:{i}", dict(doc))
    for query in queries:
        assert fast.search(query) == slow.search(query), query


# -- serving gates: versioned read-path caches == uncached reference -------

SEARCH_BATTERY = [
    "services.service_name: MODBUS",
    "services.service_name: HTT*",
    "services.port: [80 to 502]",
    "services.port > 443",
    "not services.service_name: HTTP",
    "location.country: US and not services.port >= 1000",
    "not (services.port: [1 to 100] or services.port: 3389)",
]


def _populate_sharded(index: ShardedSearchIndex, seed: int, docs: int = 900) -> None:
    rng = random.Random(seed)
    protocols = ["HTTP", "HTTPS", "SSH", "MODBUS", "RDP", "FTP"]
    countries = ["US", "DE", "CN", "FR", "NL"]
    for i in range(docs):
        index.put(
            f"host:{i}",
            {
                "services.service_name": [rng.choice(protocols)],
                "location.country": [rng.choice(countries)],
                "services.port": [rng.choice([21, 22, 80, 443, 502, 3389, 8080])],
            },
        )


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_limit_pushdown_equals_full_search_prefix(shards):
    """search(q, limit=k) must be exactly the first k of search(q)."""
    index = ShardedSearchIndex(ShardMap(shards), query_cache_entries=0)
    _populate_sharded(index, seed=13)
    for query in SEARCH_BATTERY:
        full = index.search(query)
        for k in (0, 1, 5, 50, len(full), len(full) + 10):
            assert index.search(query, limit=k) == full[:k], (query, k)
        assert index.count(query) == len(full), query


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_query_cache_bit_identical_under_churn(shards):
    """Cached search/count/aggregate == cache-disabled twin across writes."""
    cached = ShardedSearchIndex(ShardMap(shards), query_cache_entries=64)
    plain = ShardedSearchIndex(ShardMap(shards), query_cache_entries=0)
    _populate_sharded(cached, seed=17)
    _populate_sharded(plain, seed=17)
    rng = random.Random(19)
    for round_no in range(6):
        for query in SEARCH_BATTERY:
            for k in (None, 10):
                # Twice per round: the second call is a guaranteed cache hit.
                assert cached.search(query, limit=k) == plain.search(query, limit=k)
                assert cached.search(query, limit=k) == plain.search(query, limit=k)
            assert cached.count(query) == plain.count(query), query
            agg = cached.aggregate(query, "services.service_name")
            assert agg == plain.aggregate(query, "services.service_name"), query
        # Churn between rounds: puts/deletes bump only the owning shard's
        # generation, after which every stale entry must be recomputed.
        for _ in range(40):
            i = rng.randrange(900)
            if rng.random() < 0.3:
                cached.delete(f"host:{i}")
                plain.delete(f"host:{i}")
            else:
                doc = {
                    "services.service_name": [rng.choice(["HTTP", "SSH", "MODBUS"])],
                    "services.port": [rng.choice([22, 80, 443, 9999])],
                }
                cached.put(f"host:{i}", dict(doc))
                plain.put(f"host:{i}", dict(doc))
    stats = cached.cache_report()
    assert stats["hits"] > 0 and stats["invalidations"] > 0


class TestServingCacheEquality:
    """Platform-level gate: cached serving == read_cache=False, always."""

    @pytest.fixture(scope="class")
    def platforms(self):
        def build(read_cache):
            net = build_simnet(
                bits=12,
                workload_config=WorkloadConfig(
                    seed=11, services_target=250, t_start=-8 * DAY, t_end=8 * DAY
                ),
                seed=11,
            )
            plat = CensysPlatform(
                net,
                PlatformConfig(predictive_daily_budget=300, seed=11, shards=2,
                               read_cache=read_cache),
                start_time=-5 * DAY,
            )
            plat.run_until(0.0, tick_hours=6.0)
            return plat

        return build(True), build(False)

    def _assert_reads_equal(self, cached, uncached, ats=(None, -2 * DAY)):
        hosts = [i.ip_index for i in uncached.internet.services_alive_at(0.0)[:40]]
        for ip_index in hosts:
            for at in ats:
                # Twice: first call may populate, second must hit — both equal.
                assert cached.lookup_host(ip_index, at=at) == uncached.lookup_host(ip_index, at=at)
                assert cached.lookup_host(ip_index, at=at) == uncached.lookup_host(ip_index, at=at)
        for query in SEARCH_BATTERY:
            for k in (None, 10):
                assert cached.search(query, limit=k) == uncached.search(query, limit=k)
                assert cached.search(query, limit=k) == uncached.search(query, limit=k)
            assert cached.index.count(query) == uncached.index.count(query)
            assert cached.index.aggregate(query, "services.service_name") == \
                uncached.index.aggregate(query, "services.service_name")

    def test_warm_reads_bit_identical(self, platforms):
        cached, uncached = platforms
        self._assert_reads_equal(cached, uncached)
        report = cached.traffic_report()["read_cache"]
        assert report["views"]["hits"] > 0
        assert report["query"]["hits"] > 0

    def test_reads_bit_identical_immediately_after_writes(self, platforms):
        """Ticks journal new observations: stale entries must not be served."""
        cached, uncached = platforms
        for _ in range(4):
            cached.tick(6.0)
            uncached.tick(6.0)
            self._assert_reads_equal(cached, uncached)

    def test_reads_bit_identical_immediately_after_evictions(self, platforms):
        """Drive past the eviction window so SERVICE_REMOVED invalidates."""
        cached, uncached = platforms
        target = cached.clock.now + 4 * DAY
        cached.run_until(target)
        uncached.run_until(target)
        assert cached.ingest.counters["evictions"] == uncached.ingest.counters["evictions"]
        assert cached.ingest.counters["evictions"] > 0
        self._assert_reads_equal(cached, uncached, ats=(None, target - 1 * DAY))
        assert cached.traffic_report()["read_cache"]["views"]["invalidations"] > 0
