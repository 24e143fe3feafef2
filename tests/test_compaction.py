"""Journal compaction + tiered storage: folds, crash safety, composition.

The contract under test throughout: compaction changes *where* history
lives (resident events vs. cold runs, segment files vs. manifest), never
*what* reads return.  Every test compares against an uncompacted
reference journal fed the identical workload, at the read level
(canonical JSON — the WAL/cold tier round-trips tuples to lists).
"""

import dataclasses
import json
import os

import pytest

from repro.pipeline import (
    BatchLog,
    CrashPoint,
    EventJournal,
    EventKind,
    FaultPlan,
    ReplicatedShard,
    SegmentCompactor,
    ShardMap,
    ShardedCompactor,
    ShardedJournal,
    SimulatedCrash,
    WriteAheadLog,
    canonical_json,
)
from repro.pipeline.compaction import ColdStore, MANIFEST_NAME
from repro.pipeline.replication import ReplicationBatch
from repro.pipeline.wal import encode_batch_body
from tests.chaos_harness import (
    build_workload,
    read_fingerprint,
    run_chaos_with_compaction,
    run_oracle,
)

SEEDS = [int(s) for s in os.environ.get("CHAOS_SEEDS", "101,202,303,404,505").split(",")]

HOSTS = [f"host-{i}" for i in range(6)]


def feed(journal, rounds, *, t0=0.0, hosts=HOSTS):
    """A scripted workload: one find, then refreshes with periodic changes."""
    t = t0
    for round_ in range(rounds):
        for host in hosts:
            t += 1.0
            if round_ == 0 and t0 == 0.0:
                journal.append(host, t, EventKind.SERVICE_FOUND, {
                    "key": "80/http", "protocol": "http",
                    "record": {"banner": "b0", "status": 200},
                })
            elif round_ % 5 == 3:
                journal.append(host, t, EventKind.SERVICE_CHANGED, {
                    "key": "80/http", "changed": {"banner": f"b{round_}"},
                })
            else:
                journal.append(host, t, EventKind.SERVICE_REFRESHED, {"key": "80/http"})
    return t


def make_pair(tmp_path, rounds=40, segment_max_records=16, snapshot_every=8):
    """(durable journal, in-memory reference) fed the identical workload."""
    durable = EventJournal(
        snapshot_every=snapshot_every,
        wal=WriteAheadLog(str(tmp_path / "wal"), segment_max_records=segment_max_records),
    )
    reference = EventJournal(snapshot_every=snapshot_every)
    t = feed(durable, rounds)
    feed(reference, rounds)
    return durable, reference, t


def assert_reads_equal(journal, reference, times):
    for host in HOSTS:
        for at in times:
            assert canonical_json(journal.reconstruct(host, at)) == canonical_json(
                reference.reconstruct(host, at)
            ), f"{host} diverged at t={at}"
        got = [(e.seq, e.time, e.kind, canonical_json(e.payload))
               for e in journal.events_for(host)]
        want = [(e.seq, e.time, e.kind, canonical_json(e.payload))
                for e in reference.events_for(host)]
        assert got == want, f"{host}: stitched event stream diverged"


class TestFoldCorrectness:
    def test_reads_identical_across_eras(self, tmp_path):
        journal, reference, t_end = make_pair(tmp_path)
        compactor = SegmentCompactor(journal, str(tmp_path / "wal"), min_sealed_segments=2)
        report = compactor.run_once()
        assert report["folded"] and report["events"] > 0
        # Time-travel into the folded era, the boundary, and the live tail.
        assert_reads_equal(journal, reference, [2.0, t_end / 2, t_end, None])

    def test_resident_memory_drops_but_accounting_grows(self, tmp_path):
        journal, reference, _ = make_pair(tmp_path)
        before = journal.stats.resident_events
        SegmentCompactor(journal, str(tmp_path / "wal"), min_sealed_segments=2).run_once()
        after = journal.stats.resident_events
        assert after < before
        # Logical accounting is untouched: same totals as the reference.
        assert journal.stats.events == reference.stats.events
        assert journal.stats.event_bytes == reference.stats.event_bytes
        assert journal.stats.cold_bytes > 0
        assert journal.stats.total_bytes == (
            journal.stats.ssd_bytes + journal.stats.hdd_bytes + journal.stats.cold_bytes
        )

    def test_storage_accounting_unchanged_by_encoding_each_event_once(self, tmp_path, monkeypatch):
        """``Event.encoded_size`` is memoized; every number it feeds must be
        byte-for-byte what re-encoding on every call produced (the literals
        were captured at the commit before the memo)."""
        import repro.pipeline.events as events_module

        def fresh_size(event):
            return len(event.entity_id) + 12 + len(
                json.dumps(event.payload, default=str, sort_keys=True)
            )

        journal, _reference, t_end = make_pair(tmp_path)
        compactor = SegmentCompactor(journal, str(tmp_path / "wal"), min_sealed_segments=2)
        assert compactor.run_once()["events"] == 224
        feed(journal, 30, t0=t_end)

        class CountingJson:
            """Stands in for the ``json`` name inside ``events.py`` only."""

            calls = 0

            @classmethod
            def dumps(cls, *args, **kwargs):
                cls.calls += 1
                return json.dumps(*args, **kwargs)

        monkeypatch.setattr(events_module, "json", CountingJson)
        report = compactor.run_once()
        monkeypatch.undo()
        assert report["events"] == 192

        assert journal.storage_report() == {
            "cold_bytes": 34218, "heartbeats_encoded": 330, "live_bytes": 1968,
            "resident_event_bytes": 144, "resident_events": 4, "segments": 27,
            "superseded_bytes": 0, "total_bytes": 36186,
            "wal_bytes_written": 55974, "wal_records": 420,
        }
        stats = journal.stats
        assert (stats.event_bytes, stats.snapshot_bytes) == (17994, 18192)
        assert stats.ssd_bytes + stats.hdd_bytes + stats.cold_bytes == stats.total_bytes
        assert compactor.stats.event_bytes_folded == 17850
        # Independent of the memo: re-encode every event from scratch.
        every_event = [e for host in HOSTS for e in journal.events_for(host)]
        assert len(every_event) == stats.events
        assert sum(fresh_size(e) for e in every_event) == stats.event_bytes
        assert all(e.encoded_size() == fresh_size(e) for e in every_event)
        # No encode at all: folded bytes come from the resident rows sized
        # when they were appended, never from the events decoded from the
        # sealed segments (it was three encodes per event, then one).
        assert CountingJson.calls == 0

    def test_compaction_does_not_bump_versions(self, tmp_path):
        journal, _, _ = make_pair(tmp_path)
        versions = {h: journal.entity_version(h) for h in HOSTS}
        global_version = journal.version
        SegmentCompactor(journal, str(tmp_path / "wal"), min_sealed_segments=2).run_once()
        assert journal.version == global_version
        assert {h: journal.entity_version(h) for h in HOSTS} == versions

    def test_noop_when_not_enough_sealed(self, tmp_path):
        journal = EventJournal(
            snapshot_every=8,
            wal=WriteAheadLog(str(tmp_path / "wal"), segment_max_records=1000),
        )
        feed(journal, 5)
        report = SegmentCompactor(journal, str(tmp_path / "wal")).run_once()
        assert report == {"folded": False, "reason": "not-enough-sealed"}

    def test_second_fold_continues_from_manifest(self, tmp_path):
        journal, reference, t_mid = make_pair(tmp_path)
        compactor = SegmentCompactor(journal, str(tmp_path / "wal"), min_sealed_segments=2)
        first = compactor.run_once()
        t_end = feed(journal, 20, t0=t_mid)
        feed(reference, 20, t0=t_mid)
        second = compactor.run_once()
        assert first["folded"] and second["folded"]
        assert second["segments"][0] == first["segments"][-1] + 1
        assert_reads_equal(journal, reference, [2.0, t_mid, t_end, None])


class TestRecovery:
    def test_anchored_recovery_matches_live(self, tmp_path):
        journal, reference, t_mid = make_pair(tmp_path)
        SegmentCompactor(journal, str(tmp_path / "wal"), min_sealed_segments=2).run_once()
        t_end = feed(journal, 10, t0=t_mid)
        feed(reference, 10, t0=t_mid)
        journal.close()
        recovered = EventJournal.recover(
            str(tmp_path / "wal"), snapshot_every=8, segment_max_records=16
        )
        assert_reads_equal(recovered, reference, [2.0, t_end / 2, t_end, None])
        live = dataclasses.asdict(journal.stats)
        cold = dataclasses.asdict(recovered.stats)
        # Process-local replay counters differ by definition; everything
        # that describes storage must match exactly.
        for counter in ("replayed_events", "recovered_events"):
            live.pop(counter), cold.pop(counter)
        assert live == cold
        recovered.close()

    def test_recovery_replays_only_the_tail(self, tmp_path):
        journal, _, _ = make_pair(tmp_path, rounds=60)
        resident_before = journal.stats.resident_events
        SegmentCompactor(journal, str(tmp_path / "wal"), min_sealed_segments=2).run_once()
        journal.close()
        recovered = EventJournal.recover(
            str(tmp_path / "wal"), snapshot_every=8, segment_max_records=16, reopen=False
        )
        # O(snapshot + tail): the replay touched only unfolded events.
        assert recovered.stats.recovered_events < resident_before / 4
        assert recovered.stats.events == resident_before

    def test_sharded_recovery_with_manifests(self, tmp_path):
        shard_map = ShardMap(2)
        root = str(tmp_path / "root")
        journal = ShardedJournal.durable(root, shard_map, snapshot_every=8,
                                         segment_max_records=16)
        reference = ShardedJournal(ShardMap(2), snapshot_every=8)
        for target in (journal, reference):
            feed(target, 40)
        ShardedCompactor(
            journal.journals,
            [shard_map.shard_dir(root, s) for s in range(2)],
            min_sealed_segments=2,
        ).run_once()
        journal.close()
        recovered = ShardedJournal.recover(root, ShardMap(2), snapshot_every=8,
                                           segment_max_records=16)
        assert_reads_equal(recovered, reference, [2.0, 100.0, None])
        recovered.close()


class TestCrashSafety:
    POINTS = ["cold_written", "cold_renamed", "manifest_written", "mid_delete"]

    @pytest.mark.parametrize("point", POINTS)
    def test_crash_at_each_point_recovers_to_reference(self, tmp_path, point):
        journal, reference, t_end = make_pair(tmp_path)

        def crash_hook(hook):
            if hook == point:
                raise SimulatedCrash(CrashPoint(1, "after"))

        compactor = SegmentCompactor(
            journal, str(tmp_path / "wal"), min_sealed_segments=2, crash_hook=crash_hook
        )
        with pytest.raises(SimulatedCrash):
            compactor.run_once()
        journal.close()
        recovered = EventJournal.recover(
            str(tmp_path / "wal"), snapshot_every=8, segment_max_records=16
        )
        assert_reads_equal(recovered, reference, [2.0, t_end / 2, t_end, None])
        # A rerun (fresh process) converges; reads still agree.
        rerun = SegmentCompactor(recovered, str(tmp_path / "wal"), min_sealed_segments=2)
        report = rerun.run_once()
        if point in ("cold_written", "cold_renamed"):
            # The manifest never swapped: the fold restarts from scratch
            # (the orphan cold file was garbage-collected first).
            assert report["folded"]
        else:
            # The manifest swap committed the fold *before* the crash; the
            # rerun finds fully-folded leftover segments and removes them
            # instead of replaying them twice.
            assert rerun.stats.leftovers_removed > 0
        assert_reads_equal(recovered, reference, [2.0, t_end / 2, t_end, None])
        recovered.close()

    def test_orphan_cold_file_is_garbage_collected(self, tmp_path):
        journal, reference, t_end = make_pair(tmp_path)
        wal_dir = str(tmp_path / "wal")
        orphan = os.path.join(wal_dir, "cold-09999.cold")
        with open(orphan, "wb") as fh:
            fh.write(b"garbage never referenced by any manifest")
        compactor = SegmentCompactor(journal, wal_dir, min_sealed_segments=2)
        compactor.run_once()
        assert not os.path.exists(orphan)
        assert_reads_equal(journal, reference, [t_end, None])


class TestWatermark:
    def test_fold_never_passes_the_watermark(self, tmp_path):
        journal, _, _ = make_pair(tmp_path)
        total_batches = journal.stats.wal_batches
        limit = {"value": 0}
        compactor = SegmentCompactor(
            journal, str(tmp_path / "wal"), min_sealed_segments=2,
            batch_limit=lambda: limit["value"],
        )
        report = compactor.run_once()
        assert report == {"folded": False, "reason": "watermark"}
        assert compactor.stats.watermark_deferrals == 1
        # Watermark advances -> the fold proceeds, but only through it.
        limit["value"] = total_batches // 2
        report = compactor.run_once()
        assert report["folded"]
        assert compactor.store.manifest["batches_folded"] <= total_batches // 2


class TestHeartbeatEncoding:
    def test_refresh_payloads_are_interned_and_recovery_agrees(self, tmp_path):
        journal, reference, t_end = make_pair(tmp_path)
        assert journal.wal.stats.heartbeats_encoded > 0
        # The interned heartbeat payload is shared across resident refresh
        # events of the same service key (RAM-side delta encoding).
        refreshes = [
            e for e in journal.events_for(HOSTS[0])
            if e.kind == EventKind.SERVICE_REFRESHED
        ]
        assert len(refreshes) > 1
        assert len({id(e.payload) for e in refreshes}) == 1
        journal.close()
        recovered = EventJournal.recover(
            str(tmp_path / "wal"), snapshot_every=8, segment_max_records=16, reopen=False
        )
        assert_reads_equal(recovered, reference, [t_end, None])

    def _run_refreshes(self, path, payload_for):
        journal = EventJournal(
            snapshot_every=8, wal=WriteAheadLog(path, segment_max_records=16)
        )
        t = 0.0
        for round_ in range(40):
            for host in HOSTS:
                t += 1.0
                if round_ == 0:
                    journal.append(host, t, EventKind.SERVICE_FOUND,
                                   {"key": "80/http", "record": {"banner": "b0"}})
                else:
                    journal.append(host, t, EventKind.SERVICE_REFRESHED,
                                   payload_for(int(t)))
        journal.close()
        return journal

    def test_heartbeat_wire_beats_verbatim_payloads(self, tmp_path):
        # obs_seq-stamped refreshes still qualify; a foreign field does not.
        hb = self._run_refreshes(
            str(tmp_path / "hb"), lambda t: {"key": "80/http", "obs_seq": t}
        )
        plain = self._run_refreshes(
            str(tmp_path / "plain"), lambda t: {"key": "80/http", "extra": t}
        )
        assert hb.wal.stats.heartbeats_encoded > 0
        assert plain.wal.stats.heartbeats_encoded == 0
        assert hb.wal.stats.bytes_written < plain.wal.stats.bytes_written
        # Both decode back to full events on recovery.
        recovered = EventJournal.recover(
            str(tmp_path / "hb"), snapshot_every=8, segment_max_records=16, reopen=False
        )
        event = recovered.events_for(HOSTS[0])[5]
        assert event.kind == EventKind.SERVICE_REFRESHED
        assert set(event.payload) == {"key", "obs_seq"}


class TestReplicationComposition:
    def test_batch_log_freeze_round_trips(self):
        def wal_body(i):
            payload = {"key": "80/http", "obs_seq": i} if i % 2 else {"key": "80/http"}
            event = {"e": "h", "s": i, "tm": float(i), "k": "service_refreshed", "p": payload}
            return encode_batch_body([event])[0]

        batches = [ReplicationBatch.decode(i + 1, wal_body(i), (20 + i,)) for i in range(10)]
        assert [b.obs_high for b in batches] == [i if i % 2 else None for i in range(10)]
        log = BatchLog()
        for batch in batches:
            log.append(batch)
        assert log.freeze(6) == 6
        assert log.freeze(6) == 0  # idempotent
        assert log.frozen_count == 6 and len(log) == 10
        assert list(log) == batches
        assert log[2:8] == batches[2:8]
        assert log[3] == batches[3]

    def test_replica_compaction_survives_failover(self, tmp_path):
        group = ReplicatedShard(
            str(tmp_path / "shard"), replication_factor=2, snapshot_every=8,
            segment_max_records=16, ack_replicas=1,
        )
        reference = EventJournal(snapshot_every=8)
        t = feed(group.primary, 30)
        feed(reference, 30)
        group.pump(200)
        for replica in group.replicator.replicas:
            resident_before = replica.journal.stats.resident_events
            assert replica.compact() > 0
            assert replica.journal.stats.resident_events < resident_before
        assert all(r.batch_log.frozen_count > 0 for r in group.replicator.replicas)
        group.kill_primary()
        promoted = group.fail_over()
        # Promotion rebuilt the compacted replica: full fidelity, no loss.
        assert_reads_equal(promoted, reference, [2.0, t, None])
        t = feed(group.primary, 10, t0=t)
        feed(reference, 10, t0=t - 10 * len(HOSTS))
        group.pump(200)
        assert_reads_equal(group.primary, reference, [t, None])
        group.close()

    def test_primary_compactor_defers_to_replication_watermark(self, tmp_path):
        group = ReplicatedShard(
            str(tmp_path / "shard"), replication_factor=1, snapshot_every=8,
            segment_max_records=8, ack_replicas=1,
        )
        feed(group.primary, 30)
        compactor = SegmentCompactor(
            group.primary, group.epoch_dir(0), min_sealed_segments=2,
            batch_limit=group.replicator.watermark,
        )
        # Nothing pumped yet: the watermark is 0, so nothing may fold.
        report = compactor.run_once()
        assert report == {"folded": False, "reason": "watermark"}
        group.pump(200)
        assert group.replicator.watermark() == len(group.replicator.log)
        report = compactor.run_once()
        assert report["folded"]
        group.close()


class TestChaosThroughCompaction:
    """The satellite grid: compaction kills on the pinned chaos seeds."""

    WORKLOAD = build_workload(seed=7)

    @pytest.fixture(scope="class")
    def oracle_fp(self):
        journal, _ = run_oracle(self.WORKLOAD)
        return read_fingerprint(journal)

    #: The ingest-chunk commit unit: multi-entity WAL records of 8 items,
    #: with segments sized down so 7x fewer records still seal enough.
    CHUNKED = {"chunk": 8, "segment_max_records": 4}

    def _converges(self, seed, tmp_path, oracle_fp, **unit):
        plan = FaultPlan(seed=seed, drop_rate=0.15, duplicate_rate=0.1, reorder_rate=0.2)
        result = run_chaos_with_compaction(
            self.WORKLOAD, plan, str(tmp_path / "wal"),
            crash_hooks=("cold_renamed", "mid_delete"), **unit,
        )
        assert result.compaction_crashes == 2
        assert result.events_folded > 0
        assert result.recovered.cold_store is not None
        assert read_fingerprint(result.journal) == oracle_fp, f"live diverged — seed {seed}"
        assert read_fingerprint(result.recovered) == oracle_fp, f"recovery diverged — seed {seed}"
        result.recovered.close()
        return result

    def _crash_point(self, point, tmp_path, oracle_fp, **unit):
        plan = FaultPlan(seed=SEEDS[0], drop_rate=0.1, duplicate_rate=0.1)
        result = run_chaos_with_compaction(
            self.WORKLOAD, plan, str(tmp_path / "wal"),
            crash_hooks=(point,), **unit,
        )
        assert result.compaction_crashes == 1
        assert read_fingerprint(result.recovered) == oracle_fp, (
            f"recovery diverged — crash at {point}"
        )
        result.recovered.close()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_faulted_ingest_plus_compaction_converges(self, seed, tmp_path, oracle_fp):
        self._converges(seed, tmp_path, oracle_fp)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_chunk_sized_batches_plus_compaction_converge(self, seed, tmp_path, oracle_fp):
        result = self._converges(seed, tmp_path, oracle_fp, **self.CHUNKED)
        stats = result.journal.stats
        assert stats.wal_batches < stats.events // 4  # folds really saw chunk records

    @pytest.mark.parametrize(
        "point", ["cold_written", "cold_renamed", "manifest_written", "mid_delete"]
    )
    def test_each_crash_point_on_grid_seed(self, point, tmp_path, oracle_fp):
        self._crash_point(point, tmp_path, oracle_fp)

    @pytest.mark.parametrize(
        "point", ["cold_written", "cold_renamed", "manifest_written", "mid_delete"]
    )
    def test_each_crash_point_with_chunk_sized_batches(self, point, tmp_path, oracle_fp):
        self._crash_point(point, tmp_path, oracle_fp, **self.CHUNKED)


class TestManifestFile:
    def test_manifest_is_single_framed_record(self, tmp_path):
        journal, _, _ = make_pair(tmp_path)
        SegmentCompactor(journal, str(tmp_path / "wal"), min_sealed_segments=2).run_once()
        path = tmp_path / "wal" / MANIFEST_NAME
        assert path.exists()
        store = ColdStore.open(str(tmp_path / "wal"))
        assert store is not None
        assert store.through_segment >= 0
        assert set(store.manifest["stats"]) >= {"events", "ssd_bytes", "cold_bytes"}
        anchors = store.anchors()
        assert set(anchors) == set(HOSTS)
        for host, (base, _t, state) in anchors.items():
            assert base >= 1
            assert json.dumps(state, sort_keys=True)  # JSON-able
