"""Unit and platform tests for per-shard replication (pipeline/replication).

The chaos-level guarantees live in ``test_failover_chaos.py``; this file
pins the mechanism piece by piece: watermark math, commit shipping, lossy
links, promotion byte-identity, epoch fencing, bounded-staleness replica
reads, and the platform wiring (including the ``replication_factor=0``
bit-identity contract).
"""

import hashlib
import json

import pytest

from tests.chaos_harness import (
    SNAPSHOT_EVERY,
    apply_item,
    build_workload,
    journal_fingerprint,
    run_oracle,
    storage_fingerprint,
)
from repro.core import CensysPlatform, PlatformConfig
from repro.pipeline import (
    CrashPoint,
    Event,
    EventBus,
    EventJournal,
    FaultPlan,
    ReplicatedShard,
    ReplicationBatch,
    ReplicationError,
    ShardReplicator,
    SimulatedCrash,
    WriteAheadLog,
    WriteSideProcessor,
)
from repro.pipeline.replication import promote_replica
from repro.pipeline.wal import encode_batch_body
from repro.simnet import DAY, WorkloadConfig, build_simnet

WORKLOAD = build_workload(seed=7)
ORACLE_JOURNAL, _ = run_oracle(WORKLOAD)
ORACLE_FP = journal_fingerprint(ORACLE_JOURNAL)


def _durable_primary(tmp_path, name="primary", fault_injector=None):
    return EventJournal(
        snapshot_every=SNAPSHOT_EVERY,
        wal=WriteAheadLog(str(tmp_path / name)),
        fault_injector=fault_injector,
    )


class TestShardReplicator:
    def test_factor_zero_watermark_is_every_batch(self, tmp_path):
        """Unreplicated: the WAL fsync is the ack (pre-replication pipeline)."""
        journal = _durable_primary(tmp_path)
        replicator = ShardReplicator(journal, 0)
        proc = WriteSideProcessor(journal, EventBus())
        for item in WORKLOAD[:20]:
            apply_item(proc, item)
        assert replicator.watermark() == len(replicator.log) > 0
        assert replicator.obs_watermark() >= 0
        journal.close()

    def test_ships_committed_batches_byte_identical(self, tmp_path):
        journal = _durable_primary(tmp_path)
        replicator = ShardReplicator(journal, 2)  # perfect links (plan=None)
        proc = WriteSideProcessor(journal, EventBus())
        for item in WORKLOAD:
            apply_item(proc, item)
        replicator.pump(1)
        assert replicator.lag_batches() == [0, 0]
        assert replicator.lag_events() == [0, 0]
        assert replicator.watermark() == len(replicator.log)
        for replica in replicator.replicas:
            assert journal_fingerprint(replica.journal) == ORACLE_FP
            assert storage_fingerprint(replica.journal) == storage_fingerprint(
                ORACLE_JOURNAL
            )
        journal.close()

    def test_ack_replicas_validation(self, tmp_path):
        journal = _durable_primary(tmp_path)
        with pytest.raises(ValueError):
            ShardReplicator(journal, 2, ack_replicas=0)
        with pytest.raises(ValueError):
            ShardReplicator(journal, 2, ack_replicas=3)
        with pytest.raises(ValueError):
            ShardReplicator(journal, -1)
        journal.close()

    def test_watermark_is_kth_largest_position(self, tmp_path):
        """ack_replicas=2 with one straggler pins the watermark to it."""
        journal = _durable_primary(tmp_path)
        replicator = ShardReplicator(journal, 2, ack_replicas=2)
        proc = WriteSideProcessor(journal, EventBus())
        for item in WORKLOAD[:10]:
            apply_item(proc, item)
        fast, slow = replicator.replicas
        for batch in replicator.log:
            fast.offer(batch)
        assert fast.acked_seq == len(replicator.log)
        assert slow.acked_seq == 0
        assert replicator.watermark() == 0  # straggler gates the ack
        assert replicator.obs_watermark() == -1
        assert replicator.most_advanced() is fast
        for batch in replicator.log:
            slow.offer(batch)
        assert replicator.watermark() == len(replicator.log)
        journal.close()

    def test_crashed_commit_never_ships(self, tmp_path):
        """A batch that dies before fsync must not reach the wire: the
        replicas converge to exactly the durable prefix."""
        plan = FaultPlan(seed=1, crash_points=(CrashPoint(12, "before"),))
        injector = plan.injector()
        journal = _durable_primary(tmp_path, fault_injector=injector)
        replicator = ShardReplicator(journal, 1)
        proc = WriteSideProcessor(journal, EventBus(), faults=injector)
        with pytest.raises(SimulatedCrash):
            for item in WORKLOAD:
                apply_item(proc, item)
        replicator.pump(1)
        journal.close()
        recovered = EventJournal.recover(str(tmp_path / "primary"), SNAPSHOT_EVERY, reopen=False)
        replica = replicator.replicas[0]
        assert replica.applied_events == recovered.stats.events < len(WORKLOAD)
        assert journal_fingerprint(replica.journal) == journal_fingerprint(recovered)

    def test_lossy_links_converge_with_duplicates_dropped(self, tmp_path):
        plan = FaultPlan(
            seed=77, drop_rate=0.3, duplicate_rate=0.3, reorder_rate=0.3, delay_rate=0.2
        )
        journal = _durable_primary(tmp_path)
        replicator = ShardReplicator(journal, 2, plan)
        proc = WriteSideProcessor(journal, EventBus())
        for item in WORKLOAD:
            apply_item(proc, item)
        for _ in range(200):
            replicator.pump(1)
            if replicator.lag_batches() == [0, 0]:
                break
        assert replicator.lag_batches() == [0, 0], f"never converged — plan {plan!r}"
        assert sum(r.duplicates_dropped for r in replicator.replicas) > 0
        for replica in replicator.replicas:
            assert journal_fingerprint(replica.journal) == ORACLE_FP
        journal.close()

    def test_sequence_gap_raises(self, tmp_path):
        journal = _durable_primary(tmp_path)
        replicator = ShardReplicator(journal, 1)
        replica = replicator.replicas[0]
        body, _ = encode_batch_body(
            [{"e": "host:1.2.3.4", "s": 7, "tm": 0.0, "k": "service_found", "p": {}}]
        )
        bogus = ReplicationBatch.decode(1, body, (31,))
        with pytest.raises(ReplicationError, match="sequence gap"):
            replica.offer(bogus)
        journal.close()


def _old_wire(events):
    """The wire before log shipping: the primary's event dicts dumped and
    parsed back (kept here as the oracle for what replicas apply)."""
    blob = json.dumps(events, separators=(",", ":"), sort_keys=True, default=str)
    return tuple(json.loads(blob))


class _CountingJson:
    """Stands in for the ``json`` name inside ``events.py`` only."""

    calls = 0

    @classmethod
    def dumps(cls, *args, **kwargs):
        cls.calls += 1
        return json.dumps(*args, **kwargs)


class TestLogShipping:
    """Replication ships the WAL's own record body plus the primary's
    per-event sizes; replicas decode it with the recovery decoder."""

    def _mixed_primary(self, tmp_path):
        """A primary fed batches with and without heartbeats, with and
        without delivery sequences, plus non-JSON-native payload values;
        every batch handed to the listener is recorded beside the log."""
        journal = _durable_primary(tmp_path)
        replicator = ShardReplicator(journal, 2)
        committed = []

        def record(batch):
            committed.append(batch)
            replicator._on_commit(batch)

        journal.commit_listener = record
        key = {"key": "80/tcp"}
        with journal.transaction():  # no obs_seq anywhere: obs_high None
            journal.append("h1", 1.0, "service_found", {"key": "80/tcp", "record": {"t": (1, 2)}})
            journal.append("h1", 2.0, "service_refreshed", dict(key))
        journal.append("h2", 3.0, "service_refreshed", {"key": "22/tcp", "obs_seq": 4})
        with journal.transaction():  # heartbeats mixed with a full event
            for i in range(12):
                journal.append("h1", 4.0 + i, "service_refreshed", {"key": "80/tcp", "obs_seq": 10 + i})
            journal.append("h2", 20.0, "service_changed", {"key": "22/tcp", "changed": {"v": 2}, "obs_seq": 30})
        journal.append("h3", 21.0, "host_meta", {"meta": {"asn": 7, "tags": ("a", "b")}})
        proc = WriteSideProcessor(journal, EventBus())
        for item in WORKLOAD[:40]:
            apply_item(proc, item)
        assert journal.wal.stats.heartbeats_encoded > 0
        return journal, replicator, committed

    def test_shipped_batches_equal_the_old_wire_round_trip(self, tmp_path):
        journal, replicator, committed = self._mixed_primary(tmp_path)
        assert len(committed) == len(replicator.log)
        live = list(replicator.log)
        highs = set()
        for batch, sent in zip(live, committed):
            oracle = _old_wire(sent.events)
            assert batch.events == oracle
            seqs = [raw["p"]["obs_seq"] for raw in oracle if "obs_seq" in raw["p"]]
            assert batch.obs_high == (max(seqs) if seqs else None)
            highs.add(batch.obs_high is None)
            assert batch.sizes == tuple(
                Event(raw["e"], raw["s"], raw["tm"], raw["k"], raw["p"]).encoded_size()
                for raw in oracle
            )
        assert highs == {True, False}
        # Frozen-then-decoded batches come back equal, events and all.
        assert replicator.log.freeze(len(live) // 2) == len(live) // 2
        assert list(replicator.log) == live
        assert replicator.log.decodes == len(live) // 2
        # What each replica applied is exactly the oracle's events.
        replicator.pump(1)
        expected = {}
        for sent in committed:
            for raw in _old_wire(sent.events):
                expected.setdefault(raw["e"], []).append((raw["s"], raw["tm"], raw["k"], raw["p"]))
        for replica in replicator.replicas:
            applied = {
                entity: [(e.seq, e.time, e.kind, dict(e.payload)) for e in replica.journal.events_for(entity)]
                for entity in replica.journal.entity_ids()
            }
            assert applied == expected
        journal.close()

    def test_replica_apply_encodes_nothing_and_matches_primary_storage(self, tmp_path, monkeypatch):
        """The twin of the compaction test: a replica takes each event's
        size from the batch, so pumping performs no ``events.py`` encode
        and the replica's accounting equals the primary's field by field."""
        import repro.pipeline.events as events_module

        journal, replicator, _ = self._mixed_primary(tmp_path)
        _CountingJson.calls = 0
        monkeypatch.setattr(events_module, "json", _CountingJson)
        assert replicator.pump(1) == 2 * len(replicator.log)
        monkeypatch.undo()
        assert _CountingJson.calls == 0
        fields = ("events", "event_bytes", "snapshot_bytes", "ssd_bytes", "hdd_bytes", "cold_bytes")
        primary = {name: getattr(journal.stats, name) for name in fields}
        assert primary["snapshot_bytes"] > 0 and primary["hdd_bytes"] > 0
        for replica in replicator.replicas:
            assert {name: getattr(replica.journal.stats, name) for name in fields} == primary
        journal.close()

    def test_promotion_from_partly_frozen_log_matches_never_frozen(self, tmp_path):
        journal, replicator, _ = self._mixed_primary(tmp_path)
        replicator.pump(1)
        frozen, plain = replicator.replicas
        half = len(frozen.batch_log) // 2
        assert frozen.batch_log.freeze(half) == half
        assert plain.batch_log.frozen_count == 0
        journal.close()
        from_frozen = promote_replica(frozen, str(tmp_path / "from-frozen"))
        from_plain = promote_replica(plain, str(tmp_path / "from-plain"))
        assert journal_fingerprint(from_frozen) == journal_fingerprint(from_plain)
        assert storage_fingerprint(from_frozen) == storage_fingerprint(from_plain)
        from_frozen.close()
        from_plain.close()
        segments = [
            sorted(p.read_bytes() for p in (tmp_path / name).glob("segment-*.log"))
            for name in ("from-frozen", "from-plain")
        ]
        assert segments[0] == segments[1]


class TestPromotionAndFailover:
    def test_promote_replica_is_byte_identical_and_durable(self, tmp_path):
        journal = _durable_primary(tmp_path)
        replicator = ShardReplicator(journal, 1)
        proc = WriteSideProcessor(journal, EventBus())
        for item in WORKLOAD:
            apply_item(proc, item)
        replicator.pump(1)
        journal.close()
        promoted = promote_replica(replicator.replicas[0], str(tmp_path / "promoted"))
        assert journal_fingerprint(promoted) == ORACLE_FP
        assert storage_fingerprint(promoted) == storage_fingerprint(ORACLE_JOURNAL)
        promoted.close()
        # The promoted lineage is durable: cold recovery agrees too.
        recovered = EventJournal.recover(str(tmp_path / "promoted"), SNAPSHOT_EVERY, reopen=False)
        assert journal_fingerprint(recovered) == ORACLE_FP

    def test_fail_over_resumes_ingest_on_promoted_primary(self, tmp_path):
        group = ReplicatedShard(
            str(tmp_path / "shard"), replication_factor=2, snapshot_every=SNAPSHOT_EVERY
        )
        proc = WriteSideProcessor(group.primary, EventBus())
        half = len(WORKLOAD) // 2
        for item in WORKLOAD[:half]:
            apply_item(proc, item)
        group.pump(1)
        group.kill_primary()
        promoted = group.fail_over()
        assert group.epoch == 1
        # Ingest resumes on the promotion; replicas keep converging.
        proc = WriteSideProcessor(promoted, EventBus())
        for item in WORKLOAD[half:]:
            apply_item(proc, item)
        group.pump(1)
        assert journal_fingerprint(group.primary) == ORACLE_FP
        for replica in group.replicator.replicas:
            assert journal_fingerprint(replica.journal) == ORACLE_FP
        group.close()
        recovered = EventJournal.recover(group.epoch_dir(1), SNAPSHOT_EVERY, reopen=False)
        assert journal_fingerprint(recovered) == ORACLE_FP

    def test_kill_primary_cannot_ship_its_final_batch(self, tmp_path):
        """The detach-before-close ordering: whatever the dying primary had
        not shipped stays lost, and the promotion only holds shipped state."""
        group = ReplicatedShard(
            str(tmp_path / "shard"), replication_factor=1, snapshot_every=SNAPSHOT_EVERY
        )
        proc = WriteSideProcessor(group.primary, EventBus())
        for item in WORKLOAD[:10]:
            apply_item(proc, item)
        group.pump(1)
        shipped = group.replicator.replicas[0].acked_seq
        # More writes that are never pumped to the replica...
        for item in WORKLOAD[10:14]:
            apply_item(proc, item)
        group.kill_primary()  # ...die before shipping them
        promoted = group.fail_over()
        assert len(group.replicator.log) == shipped
        assert promoted.stats.events < 14  # the unshipped tail is gone
        group.close()


def _small_world(seed=6):
    return build_simnet(
        bits=12,
        workload_config=WorkloadConfig(
            seed=seed, services_target=250, t_start=-8 * DAY, t_end=4 * DAY
        ),
        seed=seed,
    )


def _run_platform(tmp_path, days=4.0, **cfg_kwargs):
    plat = CensysPlatform(
        _small_world(),
        PlatformConfig(predictive_daily_budget=300, seed=6, shards=2, **cfg_kwargs),
        start_time=-days * DAY,
    )
    plat.run_until(0.0, tick_hours=6.0)
    return plat


def _digest(plat):
    """Observable-state hash under the durability layer's canonical JSON.

    Replication ships WAL-framed batches, so a promoted journal is
    byte-identical to a *crash-recovered* one: payload tuples come back as
    lists (exactly as ``EventJournal.recover`` yields them).  Hashing
    through the same canonical JSON the WAL uses makes live and
    recovered/replicated flavors compare equal — the repo's existing
    durability contract.
    """
    h = hashlib.sha256()
    for entity_id in plat.journal.entity_ids():
        for event in plat.journal.events_for(entity_id):
            h.update(entity_id.encode())
            h.update(
                json.dumps(
                    [event.seq, event.time, event.kind, event.payload],
                    separators=(",", ":"), sort_keys=True, default=str,
                ).encode()
            )
    for doc_id in plat.index.doc_ids():
        h.update(json.dumps({doc_id: plat.index.get(doc_id)}, sort_keys=True, default=str).encode())
    h.update(repr((len(plat.index), plat.observations_processed)).encode())
    return h.hexdigest()


class TestPlatformReplication:
    def test_requires_wal_dir(self):
        with pytest.raises(ValueError, match="requires wal_dir"):
            CensysPlatform(
                _small_world(), PlatformConfig(seed=6, replication_factor=1)
            )

    def test_replication_is_observation_invariant(self, tmp_path):
        """factor=2 answers exactly what the unreplicated platform answers,
        and the replicas end fully caught up under perfect links."""
        reference = _run_platform(tmp_path / "ref")
        replicated = _run_platform(
            tmp_path / "rep",
            wal_dir=str(tmp_path / "rep-wal"),
            replication_factor=2,
        )
        assert _digest(replicated) == _digest(reference)
        report = replicated.traffic_report()["replication"]
        assert report["enabled"] is True
        assert report["factor"] == 2
        assert report["fail_overs"] == 0
        for shard_report in report["shards"]:
            assert shard_report["lag_batches"] == [0, 0]
        reference.close()
        replicated.close()

    def test_replica_reads_are_bit_identical(self, tmp_path):
        reference = _run_platform(tmp_path / "ref")
        replicated = _run_platform(
            tmp_path / "rep",
            wal_dir=str(tmp_path / "rep-wal"),
            replication_factor=2,
            replica_reads=True,
            replica_max_lag_events=10_000,
        )
        def canon(view):
            # Same contract as _digest: replica-served views are identical
            # modulo the WAL's canonical JSON (tuples come back as lists).
            return json.dumps(view, sort_keys=True, default=str)

        for ip_index in range(0, 256, 7):
            assert canon(replicated.serving.lookup_host(ip_index)) == canon(
                reference.serving.lookup_host(ip_index)
            )
        served = replicated.serving.counters.get("replica_lookups_served")
        assert served > 0
        assert replicated.traffic_report()["replication"]["replica_reads_served"] == served
        reference.close()
        replicated.close()

    def test_batch_lookup_reads_replicas_like_single_lookups(self, tmp_path):
        """``lookup_many`` is N ``lookup_host`` calls: the same views and the
        same replica routing, so every read counter moves by the same
        amount either way."""
        plat = _run_platform(
            tmp_path / "rep",
            wal_dir=str(tmp_path / "rep-wal"),
            replication_factor=2,
            replica_reads=True,
            replica_max_lag_events=10_000,
        )
        ips = list(range(0, 256, 7))

        def read_counters():
            return (
                plat.serving.counters.get("lookups_served"),
                plat.serving.counters.get("replica_lookups_served"),
                plat.traffic_report()["replication"]["replica_reads_served"],
            )

        before = read_counters()
        singles = [plat.lookup_host(i) for i in ips]
        after_singles = read_counters()
        batch = plat.lookup_many(ips)
        after_batch = read_counters()
        try:
            assert batch == singles
            single_moves = [b - a for a, b in zip(before, after_singles)]
            batch_moves = [b - a for a, b in zip(after_singles, after_batch)]
            assert single_moves[0] == len(ips) and single_moves[1] > 0
            assert batch_moves == single_moves
        finally:
            plat.close()

    def test_platform_fail_over_mid_run(self, tmp_path):
        """Failing a shard over mid-run changes no observable answer: the
        promoted replica holds the full shipped prefix and ingest resumes."""
        reference = _run_platform(tmp_path / "ref")
        plat = CensysPlatform(
            _small_world(),
            PlatformConfig(
                predictive_daily_budget=300,
                seed=6,
                shards=2,
                wal_dir=str(tmp_path / "wal"),
                replication_factor=2,
            ),
            start_time=-4.0 * DAY,
        )
        plat.run_until(-2.0 * DAY, tick_hours=6.0)
        for shard in range(2):
            plat.fail_over(shard)
        plat.run_until(0.0, tick_hours=6.0)
        assert _digest(plat) == _digest(reference)
        report = plat.traffic_report()["replication"]
        assert report["fail_overs"] == 2
        assert [s["epoch"] for s in report["shards"]] == [1, 1]
        reference.close()
        plat.close()
