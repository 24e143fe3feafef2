"""The parallel shard execution tier.

Pins the contract: both executor backends — serial and thread — produce
**bit-identical** results for scatter-gather queries, WAL recovery, and
the batch serving paths, for shard counts 1, 2, and 4.  Plus the
concurrency properties: thread-safe versioned caches with contention
accounting, idempotent close, nested-fan-out inlining, and configs that
name a backend or worker count that does not exist failing at
construction.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.platform import CensysPlatform, PlatformConfig
from repro.pipeline import (
    EventKind,
    SerialExecutor,
    ShardMap,
    ShardedJournal,
    ThreadShardExecutor,
    VersionedLRU,
    make_executor,
)
from repro.pipeline.cache import MISS
from repro.search import ShardedSearchIndex
from repro.simnet import DAY, WorkloadConfig, build_simnet
from tests.chaos_harness import journal_fingerprint

SHARD_COUNTS = (1, 2, 4)
BACKENDS = ("thread",)

QUERIES = (
    "services.service_name: HTTP",
    "services.port: [100 to 500]",
    "services.service_name: HTTP and location.country: US",
    "not services.service_name: SSH",
    "nginx",
)


def build_index(shards: int, executor=None, query_cache_entries: int = 0):
    """A synthetic corpus routed over ``shards`` index shards."""
    index = ShardedSearchIndex(
        ShardMap(shards), query_cache_entries=query_cache_entries, executor=executor
    )
    for n in range(64):
        index.put(
            f"host:10.0.{n // 16}.{n % 16}",
            {
                "services.service_name": [["HTTP", "SSH", "FTP"][n % 3]],
                "services.software.product": [["nginx", "openssh", "vsftpd"][n % 3]],
                "services.port": [(n % 7) * 100 + 22],
                "location.country": [["US", "DE", "JP", "BR"][n % 4]],
            },
        )
    return index


def query_digest(index):
    """Every query surface's full output, for cross-backend equality."""
    return {
        "search": {q: index.search(q) for q in QUERIES},
        "limited": {q: index.search(q, limit=5) for q in QUERIES},
        "count": {q: index.count(q) for q in QUERIES},
        "aggregate": {
            q: index.aggregate(q, "location.country") for q in QUERIES
        },
    }


# -- work units ---------------------------------------------------------------

def _double(x):
    return x * 2


def _boom(x):
    raise ValueError(f"boom {x}")


class TestExecutorBasics:
    def test_make_executor_specs(self):
        assert make_executor(None).kind == "serial"
        assert make_executor("serial").kind == "serial"
        thread = make_executor("thread", workers=2)
        assert thread.kind == "thread" and thread.workers == 2
        assert SerialExecutor().inline and not thread.inline
        thread.close()
        existing = SerialExecutor()
        assert make_executor(existing) is existing
        with pytest.raises(ValueError):
            make_executor("gpu")

    def test_zero_workers_is_rejected_not_defaulted(self):
        """Only ``workers=None`` means "the default pool size"; an explicit
        0 is a config error, not a silent 4."""
        default = make_executor("thread")
        assert default.workers == 4
        default.close()
        with pytest.raises(ValueError, match="workers must be >= 1"):
            make_executor("thread", workers=0)

    def test_process_backend_is_rejected_at_construction(self):
        with pytest.raises(ValueError, match=r"serial \| thread\)"):
            make_executor("process")

    @pytest.mark.parametrize("backend", ("serial",) + BACKENDS)
    def test_map_shards_order_and_stats(self, backend):
        ex = make_executor(backend, workers=3)
        try:
            assert ex.map_shards(_double, [(i,) for i in range(7)]) == [
                i * 2 for i in range(7)
            ]
            report = ex.report()
            assert report["kind"] == backend
            assert report["tasks"] == 7 and report["batches"] == 1
        finally:
            ex.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_task_errors_propagate(self, backend):
        ex = make_executor(backend, workers=2)
        try:
            with pytest.raises(ValueError):
                ex.map_shards(_boom, [(1,), (2,), (3,)])
            # The pool stays usable: the next scatter still works.
            assert ex.map_shards(_double, [(4,), (5,)]) == [8, 10]
        finally:
            ex.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_nested_scatter_runs_inline(self, backend):
        outer = make_executor(backend, workers=2)
        inner = ThreadShardExecutor(workers=2)
        try:
            def task(n):
                # Inside a shard task: the inner scatter must not re-enter
                # a (possibly full) pool — the depth guard runs it inline.
                return sum(inner.map_shards(_double, [(i,) for i in range(n)]))

            assert outer.map_shards(task, [(3,), (4,)]) == [6, 12]
            assert inner.report()["inline_fallbacks"] == 2
        finally:
            outer.close()
            inner.close()


class TestScatterGatherEquality:
    """Tentpole invariant: backends are bit-identical to SerialExecutor."""

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_query_surfaces_bit_identical(self, shards, backend):
        reference = query_digest(build_index(shards, SerialExecutor()))
        ex = make_executor(backend, workers=3)
        try:
            assert query_digest(build_index(shards, ex)) == reference
        finally:
            ex.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_writes_after_queries_stay_visible(self, backend):
        """A write after a warm scatter must be seen by the next one."""
        ex = make_executor(backend, workers=2)
        try:
            index = build_index(4, ex)
            before = index.count("services.service_name: HTTP")
            index.put(
                "host:10.9.9.9",
                {"services.service_name": ["HTTP"], "services.port": [80],
                 "location.country": ["US"],
                 "services.software.product": ["nginx"]},
            )
            assert index.count("services.service_name: HTTP") == before + 1
            assert "host:10.9.9.9" in index.search("services.service_name: HTTP")
            index.delete("host:10.9.9.9")
            assert index.count("services.service_name: HTTP") == before
        finally:
            ex.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_query_cache_composes_with_parallel_scatter(self, backend):
        ex = make_executor(backend, workers=2)
        try:
            index = build_index(4, ex, query_cache_entries=32)
            first = query_digest(index)
            assert query_digest(index) == first       # all hits
            assert index.cache_report()["hits"] > 0
            assert first == query_digest(build_index(4, SerialExecutor()))
        finally:
            ex.close()


class TestParallelRecovery:
    def _write_corpus(self, directory, shards):
        journal = ShardedJournal.durable(str(directory), ShardMap(shards))
        for i in range(40):
            entity = f"host:10.2.{i % 8}.{i}"
            journal.append(
                entity, float(i), EventKind.SERVICE_FOUND,
                {"key": f"{80 + i % 3}/tcp", "record": {"banner": f"b{i}"}},
            )
            if i % 5 == 0:
                journal.append(
                    entity, float(i) + 0.5, EventKind.SERVICE_REMOVED,
                    {"key": f"{80 + i % 3}/tcp"},
                )
        journal.close()

    def _digest(self, journal):
        ids = sorted(journal.entity_ids())
        return {
            "ids": ids,
            "states": [journal.reconstruct(e) for e in ids],
            "events": journal.stats.events,
            "per_shard": journal.events_per_shard(),
        }

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_recovery_identical_across_backends(self, tmp_path, shards, backend):
        self._write_corpus(tmp_path, shards)
        reference = self._digest(
            ShardedJournal.recover(str(tmp_path), ShardMap(shards), executor=None)
        )
        ex = make_executor(backend, workers=3)
        try:
            recovered = ShardedJournal.recover(
                str(tmp_path), ShardMap(shards), executor=ex
            )
            assert self._digest(recovered) == reference
            # The WAL was reopened: appends resume post-recovery.
            recovered.append(
                "host:10.2.0.0", 99.0, EventKind.SERVICE_FOUND,
                {"key": "443/tcp", "record": {}},
            )
            recovered.close()
        finally:
            ex.close()


class TestBatchServing:
    @pytest.fixture(scope="class")
    def world(self):
        return build_simnet(
            bits=10,
            workload_config=WorkloadConfig(
                seed=31, services_target=60, t_start=-4 * DAY, t_end=4 * DAY
            ),
            seed=31,
        )

    def _platform(self, world, executor):
        plat = CensysPlatform(
            world,
            PlatformConfig(
                shards=4, seed=31, predictive_daily_budget=200, executor=executor
            ),
            start_time=-2 * DAY,
        )
        plat.run_until(0.0, tick_hours=6.0)
        return plat

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_paths_match_serial_loops(self, world, backend):
        base = self._platform(world, "serial")
        plat = self._platform(world, backend)
        try:
            ips = list(range(0, world.space.size, max(1, world.space.size // 50)))
            expected = [base.lookup_host(i) for i in ips]
            assert plat.lookup_many(ips) == expected
            assert base.lookup_many(ips) == expected   # serial batch == loop

            queries = list(QUERIES) * 3
            expected_hits = [base.search(q, limit=10) for q in queries]
            assert plat.search_many(queries, limit=10) == expected_hits
            assert base.search_many(queries, limit=10) == expected_hits

            served = plat.traffic_report()["stages"]["serving"]
            assert served["lookups_served"] >= len(ips)
            assert served["searches_served"] >= len(queries)
        finally:
            base.close()
            plat.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_reads_race_concurrent_ingest(self, world, backend):
        """The hammer: lookup_many/search_many race live ticks (journal
        writes, reindexing) on the pooled backends without crashing or
        returning malformed views; once ingest quiesces, batch answers are
        identical to a serial per-item re-query of the same platform."""
        plat = CensysPlatform(
            world,
            PlatformConfig(
                shards=4, seed=31, predictive_daily_budget=200, executor=backend
            ),
            start_time=-2 * DAY,
        )
        plat.run_until(-1.0 * DAY, tick_hours=6.0)
        ips = list(range(0, world.space.size, max(1, world.space.size // 40)))
        queries = list(QUERIES)
        errors = []
        done = threading.Event()

        def ingester():
            try:
                while plat.clock.now < 0.0:
                    plat.tick(3.0)
            except Exception as exc:  # pragma: no cover - the failure path
                errors.append(exc)
            finally:
                done.set()

        def reader():
            try:
                while not done.is_set():
                    views = plat.lookup_many(ips)
                    assert len(views) == len(ips)
                    for view in views:
                        assert view["entity_id"].startswith("host")
                        assert "services" in view
                    for hits in plat.search_many(queries, limit=10):
                        assert len(hits) <= 10
            except Exception as exc:  # pragma: no cover - the failure path
                errors.append(exc)

        threads = [threading.Thread(target=ingester)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        try:
            assert not errors, errors
            # Quiesced: the batch paths agree with serial re-queries.
            assert plat.lookup_many(ips) == [plat.lookup_host(i) for i in ips]
            assert plat.search_many(queries, limit=10) == [
                plat.search(q, limit=10) for q in queries
            ]
        finally:
            plat.close()

    def test_platform_executor_report_and_close(self, world):
        plat = self._platform(world, "thread")
        plat.search("services.service_name: HTTP", limit=10)
        report = plat.traffic_report()["executor"]
        assert report["kind"] == "thread"
        assert report["batches"] > 0
        plat.close()
        plat.close()                     # idempotent
        assert plat.journal.closed

    @pytest.mark.parametrize(
        "overrides", [{"executor": "thread", "executor_workers": 0}, {"executor": "process"}]
    )
    def test_bad_executor_config_fails_at_construction(self, world, overrides):
        with pytest.raises(ValueError):
            CensysPlatform(world, PlatformConfig(shards=4, seed=31, **overrides))


#: Standing queries that match live traffic in the oracle's world.
LIVE_WATCHLIST = (
    "services.protocol: http",
    "services.service_name: SSH",
    "services.port > 8000",
    "services.tls.self_signed: true",
)


class TestEverythingOnOracle:
    """The thread backend under the config the end-to-end benchmark runs it
    in (``serve_under_ingest``: 4 shards, durable, group commit 64,
    replication factor 2, compaction, live standing queries) equals the
    serial twin on every surface: per-shard journals, answers,
    notifications and accounting."""

    @pytest.fixture(scope="class")
    def twins(self, tmp_path_factory):
        twins = {}
        for backend in ("serial", "thread"):
            # The benchmark's quick world; one world per twin, so nothing a
            # run leaves in the simulated Internet can leak into the other.
            world = build_simnet(
                bits=13,
                workload_config=WorkloadConfig(
                    seed=6, services_target=600, t_start=-4 * DAY, t_end=2 * DAY
                ),
                seed=6,
            )
            plat = CensysPlatform(
                world,
                PlatformConfig(
                    seed=6, predictive_daily_budget=300, shards=4,
                    wal_dir=str(tmp_path_factory.mktemp(f"wal-{backend}")),
                    group_commit_events=64, replication_factor=2,
                    # A small world seals few segments in two days: fold
                    # from the first one so the daily pass has work.
                    compaction=True, compaction_min_sealed_segments=1,
                    subscriptions=True, executor=backend, executor_workers=2,
                ),
                start_time=-2 * DAY,
            )
            for i, query in enumerate(LIVE_WATCHLIST):
                plat.subscribe(query, sub_id=f"live-{i}")
            plat.run_until(0.0, tick_hours=6.0)
            twins[backend] = (plat, plat.drain_notifications())
        yield twins
        for plat, _notes in twins.values():
            plat.close()

    def test_the_run_exercised_every_subsystem(self, twins):
        plat, notes = twins["thread"]
        report = plat.traffic_report()
        assert report["executor"]["kind"] == "thread"
        assert report["executor"]["batches"] > 0
        assert report["storage"]["compaction"]["segments_compacted"] > 0
        assert report["replication"]["enabled"]
        assert notes

    def test_journals_match_shard_by_shard(self, twins):
        serial, thread = twins["serial"][0], twins["thread"][0]
        assert [journal_fingerprint(j) for j in thread.journal.journals] == [
            journal_fingerprint(j) for j in serial.journal.journals
        ]
        # Global first-append order and index put order: the cross-shard
        # state the parallel ingest merge rebuilds serially.
        assert list(thread.journal.entity_ids()) == list(serial.journal.entity_ids())
        assert list(thread.index.doc_ids()) == list(serial.index.doc_ids())

    def test_answers_and_notifications_match(self, twins):
        (serial, serial_notes), (thread, thread_notes) = twins["serial"], twins["thread"]
        assert thread_notes == serial_notes
        sample = [i.ip_index for i in serial.internet.services_alive_at(0.0)[:40]]
        assert [thread.lookup_host(i) for i in sample] == [
            serial.lookup_host(i) for i in sample
        ]
        for query in LIVE_WATCHLIST + QUERIES:
            assert thread.search(query) == serial.search(query), query
            assert thread.index.aggregate(query, "services.port") == serial.index.aggregate(
                query, "services.port"
            ), query

    def test_traffic_reports_match_apart_from_the_executor(self, twins):
        reports = {}
        for backend, (plat, _notes) in twins.items():
            report = plat.traffic_report()
            report.pop("executor")
            reports[backend] = report
        assert reports["thread"] == reports["serial"]


class TestThreadSafety:
    def test_versioned_lru_hammer(self):
        lru = VersionedLRU(max_entries=64)
        stop = threading.Event()
        errors = []

        def worker(tid):
            try:
                version = 0
                for n in range(3000):
                    key = ("q", n % 80)
                    if n % 7 == 0:
                        version += 1
                    value = lru.get(key, version)
                    if value is MISS:
                        lru.put(key, version, (tid, n))
                    if n % 911 == 0:
                        lru.clear()
            except Exception as exc:  # pragma: no cover - the failure path
                errors.append(exc)
            finally:
                stop.set()

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        report = lru.report()
        assert "lock_contention" in report
        assert report["hits"] + report["misses"] > 0
        assert report["entries"] <= 64

    def test_sharded_index_concurrent_reads_and_writes(self):
        """The hammer: interleaved put/search/aggregate from many threads
        never crashes, never poisons the cache, and quiesces to the same
        answers a fresh serial index gives."""
        ex = ThreadShardExecutor(workers=4)
        index = build_index(4, ex, query_cache_entries=64)
        errors = []
        done = threading.Event()

        def writer():
            try:
                for n in range(200):
                    index.put(
                        f"host:10.8.0.{n % 32}",
                        {"services.service_name": ["HTTP"],
                         "services.software.product": ["nginx"],
                         "services.port": [8080],
                         "location.country": ["US"]},
                    )
                    if n % 3 == 0:
                        index.delete(f"host:10.8.0.{n % 32}")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
            finally:
                done.set()

        def reader():
            try:
                while not done.is_set():
                    for q in QUERIES:
                        hits = index.search(q, limit=10)
                        assert len(hits) <= 10
                        assert index.count(q) >= 0
                        index.aggregate(q, "location.country")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ex.close()
        assert not errors
        # Quiesced: every cached and recomputed answer matches a serial
        # rebuild of the identical final corpus.
        reference = ShardedSearchIndex(ShardMap(4), query_cache_entries=0)
        for doc_id, doc in index.items():
            reference.put(doc_id, doc)
        assert query_digest(index) == query_digest(reference)


class TestIdempotentClose:
    def test_sharded_journal_close_twice(self, tmp_path):
        journal = ShardedJournal.durable(str(tmp_path), ShardMap(2))
        journal.append("host:10.3.0.1", 1.0, EventKind.SERVICE_FOUND,
                       {"key": "80/tcp", "record": {}})
        assert not journal.closed
        journal.close()
        assert journal.closed
        journal.close()                  # second close: a no-op, no error
        # In-memory reads still work after close.
        assert journal.reconstruct("host:10.3.0.1")["services"]

    def test_close_races_with_in_flight_reads(self, tmp_path):
        """Closing while an executor still holds shard refs is safe."""
        journal = ShardedJournal.durable(str(tmp_path), ShardMap(2))
        for i in range(20):
            journal.append(f"host:10.4.0.{i}", float(i), EventKind.SERVICE_FOUND,
                           {"key": "80/tcp", "record": {}})
        errors = []

        def reader():
            try:
                for i in range(20):
                    journal.reconstruct(f"host:10.4.0.{i}")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def closer():
            try:
                journal.close()
                journal.close()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(2)] + [
            threading.Thread(target=closer) for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors and journal.closed
