"""Stage decomposition and keyspace sharding: invariance, drains, report.

The platform's contract after the refactor is twofold: (a) the staged
facade behaves exactly like the former monolith, and (b) query results are
invariant under the shard count — ``shards=N`` redistributes storage
without changing a single answer.
"""

import hashlib
import json

import pytest

from repro.core import CensysPlatform, PlatformConfig
from repro.core.stages import (
    DerivationStage,
    DiscoveryStage,
    IngestStage,
    InterrogationStage,
    ServingLayer,
)
from repro.pipeline import EventKind, ShardMap, ShardedJournal
from repro.scan import ScanQueue
from repro.search import ShardedSearchIndex
from repro.simnet import DAY, WorkloadConfig, build_simnet


def small_world(seed=6):
    return build_simnet(
        bits=12,
        workload_config=WorkloadConfig(seed=seed, services_target=250, t_start=-8 * DAY, t_end=4 * DAY),
        seed=seed,
    )


def run_platform(shards, days=8.0, seed=6):
    plat = CensysPlatform(
        small_world(seed),
        PlatformConfig(predictive_daily_budget=300, seed=seed, shards=shards),
        start_time=-days * DAY,
    )
    plat.run_until(0.0, tick_hours=6.0)
    return plat


def platform_digest(plat):
    """Hash of everything a user can observe: journal, index, search."""
    h = hashlib.sha256()
    for entity_id in plat.journal.entity_ids():
        for event in plat.journal.events_for(entity_id):
            h.update(repr((entity_id, event.kind, event.time, sorted(event.payload.items()))).encode())
    for doc_id in plat.index.doc_ids():
        h.update(json.dumps({doc_id: plat.index.get(doc_id)}, sort_keys=True, default=str).encode())
    h.update(repr((len(plat.index), plat.observations_processed)).encode())
    return h.hexdigest()


class TestShardMap:
    def test_deterministic_and_in_range(self):
        sm = ShardMap(4)
        ids = [f"host:10.0.{i}.1" for i in range(64)]
        first = [sm.shard_of(e) for e in ids]
        assert first == [sm.shard_of(e) for e in ids]
        assert all(0 <= s < 4 for s in first)
        assert len(set(first)) > 1  # actually spreads the keyspace

    def test_single_shard_maps_everything_to_zero(self):
        sm = ShardMap(1)
        assert {sm.shard_of(f"host:1.2.3.{i}") for i in range(32)} == {0}

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            ShardMap(0)


class TestShardInvariance:
    """The acceptance property: shards ∈ {1, 2, 4} agree on everything."""

    @pytest.fixture(scope="class")
    def platforms(self):
        return {shards: run_platform(shards) for shards in (1, 2, 4)}

    def test_digest_identical_across_shard_counts(self, platforms):
        digests = {shards: platform_digest(p) for shards, p in platforms.items()}
        assert len(set(digests.values())) == 1, digests

    def test_search_and_aggregates_identical(self, platforms):
        base = platforms[1]
        queries = (
            "services.service_name: HTTP",
            "services.port: [1 to 1024]",
            'location.country: US',
        )
        for shards, plat in platforms.items():
            for query in queries:
                assert plat.search(query) == base.search(query), (shards, query)
            assert plat.index.aggregate("services.port: *", "services.service_name") == \
                base.index.aggregate("services.port: *", "services.service_name")

    def test_lookups_identical(self, platforms):
        base = platforms[1]
        sample = [i.ip_index for i in base.internet.services_alive_at(0.0)[:25]]
        for shards, plat in platforms.items():
            for ip_index in sample:
                assert plat.lookup_host(ip_index) == base.lookup_host(ip_index), (shards, ip_index)

    def test_analytics_snapshots_identical(self, platforms):
        base = platforms[1]
        for plat in platforms.values():
            plat.snapshot_now()
        for shards, plat in platforms.items():
            assert plat.analytics.days() == base.analytics.days(), shards
            assert plat.analytics.latest() == base.analytics.latest(), shards
            assert plat.analytics.group_count(plat.analytics.days()[-1], "services.service_name") == \
                base.analytics.group_count(base.analytics.days()[-1], "services.service_name")

    def test_storage_actually_distributed(self, platforms):
        report = platforms[4].traffic_report()["shards"]
        assert report["count"] == 4
        assert sum(report["entities_per_shard"]) == len(platforms[4].journal)
        assert sum(1 for n in report["events_per_shard"] if n > 0) >= 2
        assert sum(report["documents_per_shard"]) == len(platforms[1].index)


class TestShardedJournalLayer:
    def test_per_shard_wal_directories(self, tmp_path):
        sm = ShardMap(2)
        journal = ShardedJournal.durable(str(tmp_path), sm)
        journal.append("host:10.0.0.1", 1.0, EventKind.SERVICE_FOUND, {"key": "80/tcp", "record": {}})
        journal.append("host:10.0.0.2", 1.0, EventKind.SERVICE_FOUND, {"key": "22/tcp", "record": {}})
        journal.close()
        subdirs = sorted(p.name for p in tmp_path.iterdir() if p.is_dir())
        assert subdirs == ["shard-00", "shard-01"]
        recovered = ShardedJournal.recover(str(tmp_path), sm)
        assert sorted(recovered.entity_ids()) == ["host:10.0.0.1", "host:10.0.0.2"]
        assert recovered.event_count("host:10.0.0.1") == 1

    def test_entity_order_preserved_across_shard_counts(self):
        entities = [f"host:10.1.{i}.9" for i in range(24)]
        journals = []
        for shards in (1, 3):
            j = ShardedJournal(ShardMap(shards))
            for i, entity in enumerate(entities):
                j.append(entity, float(i), EventKind.SERVICE_FOUND, {"key": "80/tcp", "record": {}})
            journals.append(j)
        assert list(journals[0].entity_ids()) == list(journals[1].entity_ids()) == entities


class TestShardedSearchIndex:
    def test_reput_moves_doc_to_end_like_unsharded(self):
        sharded = ShardedSearchIndex(ShardMap(3))
        for n in range(6):
            sharded.put(f"doc{n}", {"field": [n]})
        sharded.put("doc2", {"field": [99]})  # re-put: delete + insert
        assert list(sharded.doc_ids())[-1] == "doc2"
        assert sharded.get("doc2") == {"field": [99]}

    def test_counts_and_membership(self):
        sharded = ShardedSearchIndex(ShardMap(2))
        sharded.put("a", {"x": [1]})
        sharded.put("b", {"x": [2]})
        assert len(sharded) == 2 and "a" in sharded
        assert sharded.delete("a") and "a" not in sharded
        assert sum(sharded.docs_per_shard()) == 1


class TestQueueShardingAndPruning:
    def test_dedup_state_bounded_by_window(self):
        queue = ScanQueue(dedup_window_hours=12.0)
        for i in range(500):
            queue.push_new(i, 80, "tcp", source="discovery", not_before=float(i) * 0.01)
        assert queue.dedup_map_size == 500
        # Drain far past the window: every cooldown entry is prunable.
        queue.pop_ready(now=100.0)
        assert queue.dedup_map_size == 0
        assert queue.pruned == 500
        assert queue.stats()["dedup_map_size"] == 0

    def test_pruning_does_not_change_dedup_decisions(self):
        queue = ScanQueue(dedup_window_hours=12.0)
        assert queue.push_new(1, 80, "tcp", source="discovery", not_before=0.0)
        queue.pop_ready(now=5.0)  # inside the window: entry must survive
        assert queue.dedup_map_size == 1
        assert not queue.push_new(1, 80, "tcp", source="discovery", not_before=6.0)
        queue.pop_ready(now=20.0)  # past the window: entry pruned
        assert queue.push_new(1, 80, "tcp", source="discovery", not_before=20.5)


class TestStagedFacade:
    @pytest.fixture(scope="class")
    def plat(self):
        return run_platform(1, days=6.0)

    def test_facade_composes_five_stages(self, plat):
        assert isinstance(plat.discovery, DiscoveryStage)
        assert isinstance(plat.interrogation, InterrogationStage)
        assert isinstance(plat.ingest, IngestStage)
        assert isinstance(plat.derivation, DerivationStage)
        assert isinstance(plat.serving, ServingLayer)
        assert plat.stages == [
            plat.discovery, plat.interrogation, plat.ingest, plat.derivation, plat.serving
        ]

    def test_compat_aliases_point_into_stages(self, plat):
        assert plat.secondary is plat.derivation.secondary
        assert plat.cert_processor is plat.derivation.cert_processor
        assert plat.analytics is plat.serving.analytics
        assert plat.tiers is plat.discovery.sweep.tiers

    def test_serving_counters_track_queries(self, plat):
        before = dict(plat.serving.counters)
        plat.lookup_host(1)
        plat.search("services.port: 80")
        assert plat.serving.counters["lookups_served"] == before["lookups_served"] + 1
        assert plat.serving.counters["searches_served"] == before["searches_served"] + 1


class TestTrafficReportSchema:
    """Pin the extended report schema (satellite: per-stage accounting)."""

    def test_schema(self):
        plat = run_platform(2, days=4.0)
        report = plat.traffic_report()
        assert set(report) == {
            "probes_by_tier",
            "total_probes",
            "probes_per_hour",
            "mean_minutes_between_probes_per_ip",
            "stages",
            "queue",
            "scheduler",
            "shards",
            "read_cache",
            "storage",
            "executor",
            "replication",
            "subscriptions",
        }
        assert report["subscriptions"] == {"enabled": False}
        # Satellite: the storage block — segment counts, tiered byte
        # accounting, and compaction counters (None until enabled).
        assert set(report["storage"]) == {
            "compaction_enabled", "segments", "wal_records", "wal_bytes_written",
            "heartbeats_encoded", "live_bytes", "superseded_bytes", "cold_bytes",
            "total_bytes", "resident_events", "resident_event_bytes",
            "segments_per_shard", "compaction",
        }
        assert report["storage"]["compaction_enabled"] is False
        assert report["storage"]["compaction"] is None
        assert report["storage"]["resident_events"] == sum(
            report["shards"]["events_per_shard"]
        )
        assert report["storage"]["total_bytes"] == (
            report["storage"]["live_bytes"]
            + report["storage"]["superseded_bytes"]
            + report["storage"]["cold_bytes"]
        )
        assert set(report["stages"]) == {
            "discovery", "interrogation", "ingest", "derivation", "serving"
        }
        assert set(report["stages"]["discovery"]) == {
            "candidates_enqueued", "candidates_excluded", "predictive_proposed",
            "reinjections", "refreshes_scheduled", "web_names_due",
        }
        assert set(report["stages"]["interrogation"]) == {
            "interrogations_run", "connect_failures", "refresh_fastpaths",
            "excluded_purged", "web_scans", "ipv6_scans",
        }
        assert set(report["stages"]["ingest"]) == {
            "observations_ingested", "events_journaled", "batched_events",
            "group_commits", "messages_pumped", "evictions",
        }
        assert set(report["stages"]["derivation"]) == {
            "reindexed_entities", "deindexed_entities", "certificates_indexed",
        }
        assert set(report["stages"]["serving"]) == {
            "lookups_served", "replica_lookups_served", "searches_served",
            "histories_served", "snapshots_taken", "documents_exported",
        }
        assert set(report["queue"]) == {
            "enqueued", "deduplicated", "pruned", "backlog", "dedup_map_size",
        }
        assert set(report["scheduler"]) == {"tracked_services", "pending_eviction", "evictions"}
        assert set(report["shards"]) == {
            "count", "events_per_shard", "entities_per_shard", "documents_per_shard",
            "journal_versions_per_shard", "index_generations_per_shard",
        }
        assert report["shards"]["count"] == 2
        assert len(report["shards"]["events_per_shard"]) == 2
        assert report["stages"]["interrogation"]["interrogations_run"] == plat.observations_processed
        assert report["total_probes"] == sum(report["probes_by_tier"].values())
        # Satellite: the read-path cache counters (reconstruction hits/misses,
        # view + query-cache stats, per-shard versions/generations).
        cache_keys = {
            "hits", "misses", "invalidations", "evictions", "hit_rate", "entries",
            "lock_contention",
        }
        assert set(report["read_cache"]) == {"enabled", "reconstruction", "views", "query"}
        assert report["read_cache"]["enabled"] is True
        for block in ("reconstruction", "views", "query"):
            assert set(report["read_cache"][block]) == cache_keys, block
        # Satellite: the executor block (parallel shard execution tier).
        assert set(report["executor"]) == {
            "kind", "workers", "batches", "tasks", "inline_fallbacks",
        }
        assert report["executor"]["kind"] == "serial"
        # Satellite: the replication block (off by default — factor 0 must
        # leave every pre-replication code path untouched).
        assert report["replication"] == {"enabled": False}
        # The platform's own reindex/serving traffic must already be hitting.
        assert report["read_cache"]["reconstruction"]["misses"] > 0
        assert len(report["shards"]["journal_versions_per_shard"]) == 2
        assert len(report["shards"]["index_generations_per_shard"]) == 2
        assert sum(report["shards"]["journal_versions_per_shard"]) == \
            sum(report["shards"]["events_per_shard"])

    def test_read_cache_disabled_reports_zeroes(self):
        plat = CensysPlatform(
            small_world(),
            PlatformConfig(predictive_daily_budget=300, seed=6, read_cache=False),
            start_time=-2 * DAY,
        )
        plat.run_until(0.0, tick_hours=6.0)
        block = plat.traffic_report()["read_cache"]
        assert block["enabled"] is False
        for sub in ("reconstruction", "views", "query"):
            assert block[sub]["hits"] == 0 and block[sub]["entries"] == 0, sub
