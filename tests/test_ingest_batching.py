"""The ingest fast path: batched ingest must be bit-identical to per-event.

The property under test (the PR's equality contract): *any* partition of
an observation stream into ``submit_many`` batches yields byte-identical
journal state, search-index digest, and subscription transition stream
versus submitting one observation at a time — across shard counts and
both shard executors, with any group-commit window.  Amortization
(fewer fsyncs, fewer generation bumps, fewer lock acquisitions) must be
observable only in the accounting, never in the data.
"""

import dataclasses
import functools
import hashlib
import json
import random
import shutil

import pytest

from repro.core import CensysPlatform, PlatformConfig
from repro.pipeline import (
    EventBus,
    ScanObservation,
    ShardMap,
    ShardedJournal,
    WriteSideProcessor,
    make_executor,
)
from repro.pipeline.read_side import ReadSide
from repro.pipeline.subscriptions import SubscriptionEngine
from repro.search import ShardedSearchIndex
from repro.search.flatten import flatten_host_view
from repro.search.index import SearchIndex
from repro.simnet import DAY, WorkloadConfig, build_simnet
from tests.chaos_harness import journal_fingerprint
from repro.protocols.interrogate import InterrogationResult


# ---------------------------------------------------------------------------
# Synthetic observation streams
# ---------------------------------------------------------------------------


def _result(port, success=True, version=1):
    if not success:
        return InterrogationResult(port=port, transport="tcp", success=False)
    return InterrogationResult(
        port=port, transport="tcp", success=True, protocol="HTTP",
        record={"http.status": 200 + version, "banner": f"v{version}"},
    )


def build_stream(seed=7, n_hosts=12, events=220):
    """Mixed finds / refreshes / changes / failures over a host pool,
    including back-to-back same-entity runs (the run-batching path)."""
    rng = random.Random(seed)
    hosts = [f"host:10.1.{i // 8}.{i % 8 + 1}" for i in range(n_hosts)]
    ports = [22, 80, 443]
    versions = {}
    stream = []
    while len(stream) < events:
        host = rng.choice(hosts)
        # Occasionally emit a same-entity run of 2-4 observations.
        run = rng.choice([1, 1, 1, 2, 3, 4])
        for _ in range(run):
            port = rng.choice(ports)
            t = float(len(stream))
            roll = rng.random()
            key = (host, port)
            if roll < 0.15:
                result = _result(port, success=False)
            elif roll < 0.35:
                versions[key] = versions.get(key, 0) + 1
                result = _result(port, version=versions[key])
            else:
                versions.setdefault(key, 1)
                result = _result(port, version=versions[key])
            stream.append(
                ScanObservation(host, t, port, "tcp", result, obs_seq=len(stream))
            )
    return stream[:events]


def partition(stream, seed):
    """A random partition of the stream into non-empty batches."""
    rng = random.Random(seed)
    batches, pos = [], 0
    while pos < len(stream):
        size = rng.choice([1, 2, 3, 5, 8, 13, 32, 64])
        batches.append(stream[pos : pos + size])
        pos += size
    return batches


def sharded_fingerprint(journal):
    """Per-shard journal fingerprints (ShardedJournal or plain journal)."""
    journals = getattr(journal, "journals", [journal])
    return [journal_fingerprint(j) for j in journals]


# ---------------------------------------------------------------------------
# The core property: partition-invariance of submit_many
# ---------------------------------------------------------------------------


class TestSubmitManyPartitionInvariance:
    STREAM = build_stream()

    def _run_reference(self, shards):
        journal = ShardedJournal(ShardMap(shards))
        ws = WriteSideProcessor(journal, EventBus())
        kinds = [ws.submit(obs) for obs in self.STREAM]
        return journal, ws, kinds

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("executor_kind", ["serial", "thread"])
    def test_any_partition_matches_per_event(self, shards, executor_kind):
        ref_journal, ref_ws, ref_kinds = self._run_reference(shards)
        executor = make_executor(executor_kind)
        try:
            for part_seed in (1, 2):
                journal = ShardedJournal(ShardMap(shards))
                ws = WriteSideProcessor(journal, EventBus())
                kinds = []
                for batch in partition(self.STREAM, part_seed):
                    kinds.extend(ws.submit_many(batch, executor=executor))
                assert kinds == ref_kinds, (
                    f"event kinds diverged: shards={shards} "
                    f"executor={executor_kind} partition={part_seed}"
                )
                assert sharded_fingerprint(journal) == sharded_fingerprint(ref_journal)
                assert dataclasses.asdict(ws.stats) == dataclasses.asdict(ref_ws.stats)
                assert list(journal.entity_ids()) == list(ref_journal.entity_ids())
        finally:
            executor.close()

    def test_degenerate_partitions(self):
        """All-in-one-batch and one-per-batch both equal the reference."""
        ref_journal, _ref_ws, ref_kinds = self._run_reference(2)
        for batches in ([self.STREAM], [[obs] for obs in self.STREAM]):
            journal = ShardedJournal(ShardMap(2))
            ws = WriteSideProcessor(journal, EventBus())
            kinds = []
            for batch in batches:
                kinds.extend(ws.submit_many(batch))
            assert kinds == ref_kinds
            assert sharded_fingerprint(journal) == sharded_fingerprint(ref_journal)

    def test_durable_batched_recovery_matches_reference(self, tmp_path):
        """Group-commit + batched ingest recover to the per-event state."""
        ref_journal, _ws, _kinds = self._run_reference(2)
        journal = ShardedJournal.durable(
            str(tmp_path / "wal"), ShardMap(2), group_commit_events=16
        )
        ws = WriteSideProcessor(journal, EventBus())
        for batch in partition(self.STREAM, 3):
            ws.submit_many(batch)
        journal.flush_commit_windows()
        assert sharded_fingerprint(journal) == sharded_fingerprint(ref_journal)
        journal.close()
        recovered = ShardedJournal.recover(str(tmp_path / "wal"), ShardMap(2), reopen=False)
        assert sharded_fingerprint(recovered) == sharded_fingerprint(ref_journal)


# ---------------------------------------------------------------------------
# SearchIndex.put_many / ShardedSearchIndex.put_many
# ---------------------------------------------------------------------------


def _docs(seed=5, n=40, ids=12):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        doc_id = f"host:10.9.0.{rng.randrange(ids)}"
        out.append(
            (doc_id, {
                "services.port": [rng.choice([22, 80, 443])],
                "services.protocol": [rng.choice(["HTTP", "SSH", "TLS"])],
                "banner": [f"b{i}"],
            })
        )
    return out


class TestPutMany:
    def test_put_many_equals_sequential_puts(self):
        updates = _docs()
        a, b = SearchIndex(), SearchIndex()
        for doc_id, doc in updates:
            a.put(doc_id, doc)
        applied = b.put_many(updates)
        assert applied == len({d for d, _ in updates})
        assert list(a.items()) == list(b.items())  # same docs, same put order
        assert a._postings == b._postings
        for query in ("services.port: 80", "services.protocol: SSH", "b3"):
            assert a.search(query) == b.search(query)
        assert b.generation == 1  # one bump for the whole batch
        assert a.generation >= len(updates)  # sequential: >= one bump per put

    def test_put_many_lww_and_move_to_end(self):
        index = SearchIndex()
        index.put("x", {"f": ["old"]})
        index.put("y", {"f": ["keep"]})
        gen = index.generation
        index.put_many([("x", {"f": ["mid"]}), ("z", {"f": ["new"]}), ("x", {"f": ["last"]})])
        assert index.get("x") == {"f": ["last"]}
        assert index.search("f: old") == [] and index.search("f: mid") == []
        assert index.search("f: last") == ["x"]
        # Re-put moves x to the end, after z — like sequential puts would.
        assert [d for d, _ in index.items()] == ["y", "z", "x"]
        assert index.generation == gen + 1
        assert index.put_many([]) == 0
        assert index.generation == gen + 1  # empty batch: no bump

    def test_put_many_invalidates_numeric_columns(self):
        index = SearchIndex()
        index.put("a", {"n": [5]})
        assert index.search("n > 1") == ["a"]  # builds the column
        index.put_many([("a", {"n": [50]}), ("b", {"n": [2]})])
        assert index.search("n > 10") == ["a"]
        assert index.search("n > 1") == ["a", "b"]

    @pytest.mark.parametrize("shards", [1, 3])
    def test_sharded_put_many_equals_sequential(self, shards):
        updates = _docs(seed=9)
        a = ShardedSearchIndex(ShardMap(shards))
        b = ShardedSearchIndex(ShardMap(shards))
        for doc_id, doc in updates:
            a.put(doc_id, doc)
        b.put_many(updates)
        assert list(a.doc_ids()) == list(b.doc_ids())
        assert list(a.items()) == list(b.items())
        for query in ("services.port: 443", "services.protocol: HTTP"):
            assert a.search(query) == b.search(query)
            assert a.count(query) == b.count(query)
        assert a.aggregate("services.port: 443", "services.protocol") == (
            b.aggregate("services.port: 443", "services.protocol")
        )
        # One generation bump per *touched* shard, not per document.
        assert all(g <= 1 for g in b.generations())


# ---------------------------------------------------------------------------
# SubscriptionEngine.on_documents
# ---------------------------------------------------------------------------


class TestSubscriptionBatchFeed:
    QUERIES = [
        "services.protocol: SSH",
        "services.port: 80 and services.protocol: HTTP",
        "banner: b3 or services.protocol: TLS",
        "services.port > 100",  # un-anchorable: broad
    ]

    def _engine(self):
        engine = SubscriptionEngine()
        for i, q in enumerate(self.QUERIES):
            engine.subscribe(q, sub_id=f"s{i}", now=0.0)
        return engine

    def _transitions(self, engine):
        engine.deliverer.pump()
        return [
            (n.seq, n.sub_id, n.entity_id, n.transition)
            for n in engine.deliverer.drain_delivered()
        ]

    def test_on_documents_equals_per_event(self):
        updates = _docs(seed=11, n=60)
        # Interleave deletions so exits are exercised.
        feed = []
        seen = set()
        for i, (doc_id, doc) in enumerate(updates):
            if i % 7 == 3 and doc_id in seen:
                feed.append((doc_id, None))
            else:
                feed.append((doc_id, doc))
                seen.add(doc_id)
        a, b = self._engine(), self._engine()
        # Per-event reference vs one batch per advance-sized chunk, with
        # each chunk deduped to one entry per entity (the derivation
        # stage's dirty-set contract).
        pos = 0
        while pos < len(feed):
            chunk, chunk_entities = [], set()
            while pos < len(feed) and feed[pos][0] not in chunk_entities:
                chunk.append(feed[pos])
                chunk_entities.add(feed[pos][0])
                pos += 1
            for entity_id, doc in chunk:
                a.on_document(entity_id, doc, now=1.0)
            b.on_documents(chunk, now=1.0)
        assert self._transitions(a) == self._transitions(b)
        assert a.events_seen == b.events_seen
        assert a.notifications_emitted == b.notifications_emitted
        for i in range(len(self.QUERIES)):
            assert a.matching_entities(f"s{i}") == b.matching_entities(f"s{i}")

    def test_on_documents_coalesces_lww(self):
        engine = self._engine()
        emitted = engine.on_documents(
            [
                ("host:h1", {"services.protocol": ["SSH"]}),
                ("host:h1", {"services.protocol": ["FTP"]}),  # LWW: not SSH
            ],
            now=1.0,
        )
        assert emitted == 0
        assert engine.matching_entities("s0") == set()
        assert engine.events_seen == 1  # one coalesced entry


# ---------------------------------------------------------------------------
# Platform-level invariance and accounting
# ---------------------------------------------------------------------------


def small_world(seed=6):
    return build_simnet(
        bits=12,
        workload_config=WorkloadConfig(
            seed=seed, services_target=250, t_start=-8 * DAY, t_end=4 * DAY
        ),
        seed=seed,
    )


def run_platform(tmp_path, name, **overrides):
    cfg = dict(
        predictive_daily_budget=300, seed=6, shards=2, subscriptions=True,
        wal_dir=str(tmp_path / name),
    )
    cfg.update(overrides)
    plat = CensysPlatform(small_world(), PlatformConfig(**cfg), start_time=-4 * DAY)
    plat.subscribe("services.protocol: HTTP", sub_id="watch-http")
    plat.subscribe("services.port: 22", sub_id="watch-ssh")
    plat.run_until(0.0, tick_hours=6.0)
    return plat


def serving_digest(plat):
    """Hash of the user-visible read surfaces: journal, docs, queries,
    history, notifications."""
    h = hashlib.sha256()
    for fp in sharded_fingerprint(plat.journal):
        h.update(json.dumps(fp, sort_keys=True, default=str).encode())
    for doc_id in plat.index.doc_ids():
        h.update(json.dumps({doc_id: plat.index.get(doc_id)}, sort_keys=True, default=str).encode())
    for query in ("services.protocol: HTTP", "services.port: 22", "services.port > 100"):
        h.update(repr(plat.search(query)).encode())
    h.update(json.dumps(plat.drain_notifications(), sort_keys=True).encode())
    return h.hexdigest()


class TestPlatformBatchingInvariance:
    @pytest.mark.parametrize(
        "batch, window, window_bytes",
        [(8, 16, 1 << 16), (64, 64, None), (64, 1 << 20, None)],
        ids=["batch8-window16", "batch64-window64", "batch64-window-never-fills"],
    )
    def test_batched_platform_matches_per_event_reference(
        self, batch, window, window_bytes, tmp_path
    ):
        """Journal, documents, answers and notifications of a batched,
        group-committed platform equal the batch 1 / window 1 twin's."""
        ref = run_platform(tmp_path, "ref", ingest_batch=1, group_commit_events=1)
        fast = run_platform(
            tmp_path, "fast",
            ingest_batch=batch, group_commit_events=window, group_commit_bytes=window_bytes,
        )
        try:
            assert serving_digest(fast) == serving_digest(ref)
            # The fast platform actually exercised the batched path and
            # amortized its fsyncs.
            ingest = fast.traffic_report()["stages"]["ingest"]
            assert ingest["batched_events"] > 0
            assert 0 < ingest["group_commits"] < ingest["batched_events"]
            wals = [j.wal for j in fast.journal.journals]
            assert ingest["group_commits"] <= sum(wal.stats.fsyncs for wal in wals)
            if window > max(wal.stats.records for wal in wals):
                # No window can have filled: every counted group commit is
                # an ack-time flush — at most one per shard per flush point
                # (16 ticks + 4 daily housekeeping passes) — or a segment
                # rotation's pair of close-path fsyncs.
                rotations = sum(wal.stats.segments - 1 for wal in wals)
                assert ingest["group_commits"] <= len(wals) * (16 + 4) + 2 * rotations
            ref_ingest = ref.traffic_report()["stages"]["ingest"]
            assert ref_ingest["batched_events"] == 0  # per-event reference
            assert ref_ingest["group_commits"] == 0
            assert ingest["events_journaled"] == ref_ingest["events_journaled"]
        finally:
            ref.close()
            fast.close()

    def test_ingest_many_facade_matches_per_event(self, tmp_path):
        plat = run_platform(tmp_path, "facade", ingest_batch=8, group_commit_events=8)
        twin = run_platform(tmp_path, "twin", ingest_batch=8, group_commit_events=8)
        try:
            extra = build_stream(seed=99, n_hosts=6, events=40)
            kinds_batch = plat.ingest_many(extra)
            kinds_ref = [twin.ingest.submit(obs) for obs in extra]
            assert kinds_batch == kinds_ref
            assert sharded_fingerprint(plat.journal) == sharded_fingerprint(twin.journal)
        finally:
            plat.close()
            twin.close()

    def test_subscriptions_never_see_an_open_commit_window(self, tmp_path):
        """Derivation (which feeds subscriptions) must only ever run with
        every shard's group-commit window already fsynced."""
        plat = CensysPlatform(
            small_world(),
            PlatformConfig(
                predictive_daily_budget=300, seed=6, shards=2, subscriptions=True,
                wal_dir=str(tmp_path / "wal"),
                ingest_batch=8, group_commit_events=64,
            ),
            start_time=-2 * DAY,
        )
        plat.subscribe("services.protocol: HTTP", sub_id="watch")
        original = plat.derivation.advance

        def checked_advance():
            for shard_journal in plat.journal.journals:
                wal = shard_journal.wal
                assert wal._records_since_fsync == 0
                assert not wal._pending_durable
            return original()

        plat.derivation.advance = checked_advance
        try:
            plat.run_until(0.0, tick_hours=6.0)
            assert plat.derivation.counters["reindexed_entities"] > 0
            assert plat.subscriptions.events_seen > 0
        finally:
            plat.close()


# ---------------------------------------------------------------------------
# The ack unit: the drain commits into the window, the tick gives the ack
# ---------------------------------------------------------------------------


def open_windows(journal):
    """Shard WALs holding records (or callbacks) no fsync has covered yet."""
    return [
        shard for shard, j in enumerate(journal.journals)
        if j.wal._records_since_fsync or j.wal._pending_durable
    ]


class TestTickGranularAck:
    def test_an_acked_tick_is_a_durable_tick(self, tmp_path):
        """Mid-drain the windows stay open (no ack-time fsync per chunk);
        a commit listener still never sees a record before its covering
        fsync; and when ``tick()`` returns no shard has an open window and
        every journaled record has reached its listener."""
        plat = CensysPlatform(
            small_world(),
            PlatformConfig(
                predictive_daily_budget=300, seed=6, shards=2,
                wal_dir=str(tmp_path / "wal"), ingest_batch=64, group_commit_events=64,
            ),
            start_time=-2 * DAY,
        )
        delivered = [0] * plat.journal.shard_map.shards
        for shard, shard_journal in enumerate(plat.journal.journals):
            def listener(batch, shard=shard, wal=shard_journal.wal):
                # The covering fsync resets the window before it drains
                # the callbacks: a listener inside an open window would
                # be seeing un-fsynced records.
                assert wal._records_since_fsync == 0
                delivered[shard] += len(batch.events)

            shard_journal.commit_listener = listener
        open_after_chunk = []
        submit_many = plat.ingest.submit_many

        def recording_submit_many(observations, executor=None):
            kinds = submit_many(observations, executor=executor)
            open_after_chunk.append(bool(open_windows(plat.journal)))
            return kinds

        plat.ingest.submit_many = recording_submit_many
        try:
            for _ in range(8):
                plat.tick(6.0)
                assert open_windows(plat.journal) == []
                assert delivered == [j.stats.wal_events for j in plat.journal.journals]
            assert sum(delivered) == plat.journal.stats.events > 0
            # The drain really did leave its chunks to the tick's flush.
            assert len(open_after_chunk) > 8 and sum(open_after_chunk) > len(open_after_chunk) // 2
        finally:
            plat.close()

    def test_the_facade_acks_a_durable_batch_the_stage_does_not(self, tmp_path):
        plat = idle_platform(tmp_path, "facade", shards=2)
        try:
            stream = platform_stream(plat, n=96)
            assert any(kind is not None for kind in plat.ingest.submit_many(stream[:48]))
            assert open_windows(plat.journal) != []  # committed, not yet acked
            assert any(kind is not None for kind in plat.ingest_many(stream[48:]))
            assert open_windows(plat.journal) == []  # an acked batch is a durable batch
            live = sharded_fingerprint(plat.journal)
        finally:
            plat.close()
        recovered = ShardedJournal.recover(str(tmp_path / "facade"), ShardMap(2), reopen=False)
        assert sharded_fingerprint(recovered) == live

    @pytest.mark.parametrize("mode", ["pre_fsync", "torn"])
    def test_crash_mid_drain_recovers_whole_chunks_and_redelivery_converges(self, mode, tmp_path):
        """A crash while the drain is committing chunks into an open window
        leaves whole chunks on disk — never a prefix of one — and resuming
        the drain's stream after the last durable chunk converges to the
        fault-free journal."""
        from repro.pipeline import CrashPoint, FaultPlan, SimulatedCrash

        world = shared_world()
        targets = [
            (inst.ip_index, inst.port)
            for inst in world.services_alive_at(0.5) if inst.transport == "tcp"
        ][:160]
        assert len(targets) == 160

        def drain(name, arm=None):
            """One real interrogation drain over ``targets``; returns the
            platform, the chunks it submitted, the journal event count
            after each, and whether a simulated crash stopped it."""
            plat = idle_platform(tmp_path, name, ingest_batch=16, group_commit_events=4)
            chunks, boundaries = [], [0]
            submit_many = plat.ingest.submit_many

            def recording_submit_many(observations, executor=None):
                chunks.append(list(observations))
                kinds = submit_many(observations, executor=executor)
                boundaries.append(plat.journal.stats.events)
                return kinds

            plat.ingest.submit_many = recording_submit_many
            for ip_index, port in targets:
                plat.queue.push_new(ip_index, port, "tcp", source="discovery", not_before=0.5)
            if arm is not None:
                arm(plat.journal.journals[0])
            crashed = False
            try:
                plat.interrogation.advance(1.0, 1.0)
                plat.ingest.ack()
            except SimulatedCrash:
                crashed = True
            return plat, chunks, boundaries, crashed

        def json_shaped(journal):
            # Recovered records are JSON-shaped (tuples come back as lists).
            return json.loads(json.dumps(sharded_fingerprint(journal), default=str))

        oracle, chunks, boundaries, crashed = drain("oracle")
        assert not crashed and len(chunks) >= 10
        oracle_fingerprint = json_shaped(oracle.journal)
        oracle.close()
        # Aim inside the seventh chunk: the window (4 records) is half open.
        target = 6
        assert boundaries[target + 1] - boundaries[target] >= 2

        shipped = []

        def arm(shard_journal):
            shard_journal.commit_listener = lambda batch: shipped.append(len(batch.events))
            if mode == "torn":
                plan = FaultPlan(seed=1, crash_points=(CrashPoint(boundaries[target] + 2, "torn"),))
                shard_journal.fault_injector = plan.injector()
                return
            seen = {"n": 0}

            def hook(point):
                if point == "pre_fsync":
                    seen["n"] += 1
                    if seen["n"] == 2:  # the fsync covering chunks 5-8
                        raise SimulatedCrash("crash before a mid-drain covering fsync")

            shard_journal.wal.crash_hook = hook

        victim, victim_chunks, _boundaries, crashed = drain("victim", arm)
        assert crashed
        crashed_in = len(victim_chunks) - 1
        assert victim_chunks == chunks[: crashed_in + 1]
        assert crashed_in == (target if mode == "torn" else 7)
        # Listeners saw only chunks a completed fsync covers: the first full
        # window (pre_fsync), or everything the torn write's own fsync
        # swept up ahead of the torn record.
        acked = 4 if mode == "pre_fsync" else target
        assert len(shipped) == acked and sum(shipped) == boundaries[acked]
        victim.journal.journals[0].commit_listener = None
        victim.close()

        wal_dir = str(tmp_path / "victim")
        recovered = ShardedJournal.recover(wal_dir, ShardMap(1), group_commit_events=4)
        assert recovered.journals[0].stats.torn_records_discarded == (1 if mode == "torn" else 0)
        # pre_fsync: the crashing chunk's record had reached the file, so the
        # (simulated) crash keeps it whole; torn loses exactly that chunk.
        survived = crashed_in + 1 if mode == "pre_fsync" else crashed_in
        assert recovered.stats.events == boundaries[survived]
        assert recovered.journals[0].stats.wal_batches == survived

        ws = WriteSideProcessor(recovered, EventBus())
        for chunk in chunks[survived:]:
            ws.submit_chunk(chunk)
        recovered.flush_commit_windows()
        assert json_shaped(recovered) == oracle_fingerprint
        recovered.close()
        cold = ShardedJournal.recover(wal_dir, ShardMap(1), reopen=False)
        assert json_shaped(cold) == oracle_fingerprint


# ---------------------------------------------------------------------------
# The commit unit: one WAL record per ingest chunk per shard
# ---------------------------------------------------------------------------


def collision_free_stream(n):
    """``n`` distinct hosts, one successful observation each: every
    observation journals exactly one event and no chunk repeats an entity."""
    return [
        ScanObservation(
            f"host:10.7.{i // 200}.{i % 200 + 1}", float(i), 443, "tcp", _result(443),
            obs_seq=i,
        )
        for i in range(n)
    ]


def chunks_of(stream, size):
    return [stream[i : i + size] for i in range(0, len(stream), size)]


class TestChunkCommit:
    CHUNK = 16

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_one_wal_record_per_chunk_per_shard(self, shards, tmp_path):
        stream = collision_free_stream(160)
        shard_map = ShardMap(shards)
        journal = ShardedJournal.durable(
            str(tmp_path / "wal"), shard_map, group_commit_events=64
        )
        ws = WriteSideProcessor(journal, EventBus())
        expected_records = [0] * shards
        for chunk in chunks_of(stream, self.CHUNK):
            ws.submit_many(chunk)
            for shard in {shard_map.shard_of(obs.entity_id) for obs in chunk}:
                expected_records[shard] += 1
            # An acked chunk is a durable chunk: nothing left in any window.
            for shard_journal in journal.journals:
                assert shard_journal.wal._records_since_fsync == 0
                assert not shard_journal.wal._pending_durable
        assert [j.wal.stats.records for j in journal.journals] == expected_records
        assert sum(expected_records) < len(stream) // 2  # not one record per event
        assert [j.stats.wal_batches for j in journal.journals] == expected_records
        assert sum(j.stats.wal_events for j in journal.journals) == len(stream)
        live = sharded_fingerprint(journal)
        journal.close()
        recovered = ShardedJournal.recover(str(tmp_path / "wal"), shard_map, reopen=False)
        assert sharded_fingerprint(recovered) == live

    @pytest.mark.parametrize("mode", ["before", "torn", "pre_fsync"])
    def test_crash_inside_a_chunk_recovers_whole_chunks_only(self, mode, tmp_path):
        """A crash while a multi-entity chunk commits loses that whole
        un-acked chunk or none of it — never a prefix — and redelivery
        from the durable watermark converges to the fault-free oracle."""
        from repro.pipeline import (
            CrashPoint, EventJournal, FaultPlan, SimulatedCrash, WriteAheadLog,
        )
        from tests.chaos_harness import max_durable_seq

        stream = build_stream(seed=21, n_hosts=30, events=200)
        chunks = chunks_of(stream, self.CHUNK)
        oracle = EventJournal()
        oracle_ws = WriteSideProcessor(oracle, EventBus())
        events_after_chunk = []
        for chunk in chunks:
            for obs in chunk:
                oracle_ws.submit(obs)
            events_after_chunk.append(oracle.stats.events)
        # Aim strictly inside the fifth chunk's durable-event range.
        target = 4
        lo, hi = events_after_chunk[target - 1] + 1, events_after_chunk[target]
        assert hi - lo >= 2
        entities = {obs.entity_id for obs in chunks[target]}
        assert len(entities) > 1  # a multi-entity chunk

        crash_points = () if mode == "pre_fsync" else (CrashPoint(lo + 1, mode),)
        injector = FaultPlan(seed=1, crash_points=crash_points).injector()
        fsyncs_seen = {"n": 0}

        def wal_hook(point):
            if mode == "pre_fsync" and point == "pre_fsync":
                fsyncs_seen["n"] += 1
                if fsyncs_seen["n"] == target + 1:
                    raise SimulatedCrash("crash before the chunk's covering fsync")

        wal_dir = str(tmp_path / "wal")
        journal = EventJournal(
            wal=WriteAheadLog(wal_dir, group_commit_events=64, crash_hook=wal_hook),
            fault_injector=injector,
        )
        shipped = []
        journal.commit_listener = lambda batch: shipped.append(len(batch.events))
        ws = WriteSideProcessor(journal, EventBus())
        crashed_at = None
        for index, chunk in enumerate(chunks):
            try:
                ws.submit_many(chunk)
            except SimulatedCrash:
                crashed_at = index
                break
        assert crashed_at == target
        # Commit listeners saw exactly the acked chunks, one batch each.
        assert shipped == [
            events_after_chunk[i] - (events_after_chunk[i - 1] if i else 0)
            for i in range(target)
        ]
        journal.commit_listener = None
        journal.close()

        recovered = EventJournal.recover(wal_dir, group_commit_events=64)
        torn = recovered.stats.torn_records_discarded
        assert torn == (1 if mode == "torn" else 0)
        # pre_fsync: the record had reached the file, so the (simulated)
        # crash keeps the whole chunk; before/torn lose the whole chunk.
        survived = target + 1 if mode == "pre_fsync" else target
        prefix = EventJournal()
        prefix_ws = WriteSideProcessor(prefix, EventBus())
        for chunk in chunks[:survived]:
            for obs in chunk:
                prefix_ws.submit(obs)
        assert journal_fingerprint(recovered) == journal_fingerprint(prefix)
        assert recovered.stats.wal_batches == survived

        # Redelivery: everything past the durable watermark, re-chunked.
        resume = max_durable_seq(recovered) + 1
        ws = WriteSideProcessor(recovered, EventBus())
        for chunk in chunks_of(stream[resume:], self.CHUNK):
            ws.submit_many(chunk)
        assert journal_fingerprint(recovered) == journal_fingerprint(oracle)
        recovered.close()
        cold = EventJournal.recover(wal_dir, reopen=False)
        assert journal_fingerprint(cold) == journal_fingerprint(oracle)


@functools.lru_cache(maxsize=None)
def shared_world():
    return small_world()


def idle_platform(tmp_path, name, **overrides):
    """A platform that only ingests what it is handed (no discovery)."""
    cfg = dict(
        seed=6, predictive_enabled=False, wal_dir=str(tmp_path / name),
        group_commit_events=64,
    )
    cfg.update(overrides)
    plat = CensysPlatform(shared_world(), PlatformConfig(**cfg), start_time=0.0)
    plat.tiers = []
    return plat


def platform_stream(plat, n=256):
    """Mixed finds / changes / failures over in-space hosts, so location
    and routing enrichment run, with same-entity repeats inside the chunk."""
    rng = random.Random(31)
    hosts = [plat.entity_for_ip(ip) for ip in range(8, 72)]
    versions = {}
    stream = []
    for i in range(n):
        host, port = rng.choice(hosts), rng.choice([22, 80, 443])
        roll = rng.random()
        if roll < 0.12:
            result = _result(port, success=False)
        else:
            if roll < 0.3:
                versions[(host, port)] = versions.get((host, port), 0) + 1
            result = _result(port, version=versions.setdefault((host, port), 1))
        stream.append(ScanObservation(host, 0.001 * i, port, "tcp", result))
    return stream


def platform_serving_digest(plat):
    h = hashlib.sha256()
    for ip in range(8, 72):
        h.update(json.dumps(plat.lookup_host(ip), sort_keys=True, default=str).encode())
    for doc_id, doc in plat.index.items():
        h.update(json.dumps({doc_id: doc}, sort_keys=True, default=str).encode())
    for query in ("services.protocol: HTTP", "services.port: 22", "services.port > 100"):
        h.update(repr(plat.search(query)).encode())
    return h.hexdigest()


class TestOneChunkEqualsManySingles:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_ingest_many_chunk_matches_256_single_calls(self, shards, executor, tmp_path):
        chunked = idle_platform(tmp_path, "chunked", shards=shards, executor=executor)
        singles = idle_platform(tmp_path, "singles", shards=shards, executor=executor)
        try:
            stream = platform_stream(chunked)
            kinds = chunked.ingest_many(stream)
            kinds_single = [singles.ingest_many([obs])[0] for obs in stream]
            assert kinds == kinds_single
            records = [j.wal.stats.records for j in chunked.journal.journals]
            assert records == [1] * shards  # the chunk: one record per shard
            assert sum(j.wal.stats.records for j in singles.journal.journals) == sum(
                kind is not None for kind in kinds_single
            )
            for plat in (chunked, singles):
                plat.tick(1.0)
            assert sharded_fingerprint(chunked.journal) == sharded_fingerprint(singles.journal)
            assert dataclasses.asdict(chunked.write_side.stats) == dataclasses.asdict(
                singles.write_side.stats
            )
            assert platform_serving_digest(chunked) == platform_serving_digest(singles)
        finally:
            chunked.close()
            singles.close()


# ---------------------------------------------------------------------------
# The ingest grid: batch size x shards x executor x group-commit window
# ---------------------------------------------------------------------------


GRID_STREAM = build_stream(seed=11, n_hosts=96, events=400)
GRID_QUERIES = (
    "services.service_name: HTTP",
    "services.port: 443",
    "services.port: [1 to 1024]",
    "services.banner: v2 or services.banner: v3",
    "not services.service_name: HTTP",
)
GRID_AGG_FIELDS = ("services.port", "services.service_name", "services.banner")


def logical_digest(journal):
    """Shard-count-independent hash of every entity's event stream."""
    h = hashlib.sha256()
    for entity_id in sorted(journal.entity_ids()):
        for e in journal.events_for(entity_id):
            h.update(json.dumps(
                [e.entity_id, e.seq, e.time, e.kind, e.payload], sort_keys=True, default=str
            ).encode())
    return h.hexdigest()


def read_digest(journal):
    """Every lookup view and history, and every search answer and aggregate
    table over an index built from those views."""
    reads = ReadSide(journal)
    index = SearchIndex()
    h = hashlib.sha256()
    for entity_id in sorted(journal.entity_ids()):
        view = reads.lookup(entity_id, enrich=False)
        h.update(json.dumps(view, sort_keys=True, default=str).encode())
        h.update(json.dumps(reads.history(entity_id), sort_keys=True, default=str).encode())
        if view["services"]:
            index.put(entity_id, flatten_host_view(view))
    for query in GRID_QUERIES:
        h.update(json.dumps(index.search(query), default=str).encode())
        for field in GRID_AGG_FIELDS:
            h.update(json.dumps(sorted(index.aggregate(query, field).items()), default=str).encode())
    return h.hexdigest()


def ingest_grid_point(wal_dir, batch, shards, executor):
    """Ingest the grid stream and ack it; batch 1 is the per-event path
    with fsync-per-batch, any other batch a group-commit window as wide."""
    journal = ShardedJournal.durable(wal_dir, ShardMap(shards), group_commit_events=batch)
    ws = WriteSideProcessor(journal, EventBus())
    if batch == 1:
        for obs in GRID_STREAM:
            ws.submit(obs)
    else:
        for lo in range(0, len(GRID_STREAM), batch):
            ws.submit_many(GRID_STREAM[lo : lo + batch], executor=executor)
    journal.flush_commit_windows()
    return journal, ws


class TestIngestGrid:
    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        journal, ws = ingest_grid_point(str(tmp_path_factory.mktemp("ref") / "wal"), 1, 1, None)
        yield logical_digest(journal), read_digest(journal), dataclasses.asdict(ws.stats)
        journal.close()

    @pytest.mark.parametrize(
        "batch, shards, backend",
        [(16, 1, "serial"), (64, 1, "serial"), (256, 1, "serial"),
         (256, 2, "serial"), (256, 2, "thread"), (256, 4, "serial"), (256, 4, "thread")],
    )
    def test_grid_point_matches_per_event_reference(
        self, reference, batch, shards, backend, tmp_path
    ):
        """Journal, reads and WriteStats equal the per-event reference's, and
        a copy of the WAL taken at the ack point (handles still open: a
        crash, not a clean close) recovers to the same journal and reads."""
        journal_ref, reads_ref, stats_ref = reference
        executor = make_executor(backend)
        try:
            journal, ws = ingest_grid_point(str(tmp_path / "wal"), batch, shards, executor)
        finally:
            executor.close()
        assert logical_digest(journal) == journal_ref
        assert read_digest(journal) == reads_ref
        assert dataclasses.asdict(ws.stats) == stats_ref
        shutil.copytree(tmp_path / "wal", tmp_path / "crash-copy")
        journal.close()
        recovered = ShardedJournal.recover(
            str(tmp_path / "crash-copy"), ShardMap(shards), reopen=False
        )
        assert logical_digest(recovered) == journal_ref
        assert read_digest(recovered) == reads_ref
