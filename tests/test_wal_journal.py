"""WAL backend unit tests: framing, rotation, torn tails, recovery identity."""

import os

import pytest

from repro.pipeline import (
    EventBus,
    EventJournal,
    EventKind,
    ScanObservation,
    WalCorruptionError,
    WriteAheadLog,
    WriteSideProcessor,
)
from repro.pipeline import wal as wal_module
from repro.pipeline.wal import _HEADER_LEN, decode_segment, encode_record
from repro.protocols.interrogate import InterrogationResult
from tests.chaos_harness import journal_fingerprint, storage_fingerprint


def ok_result(record, port=80):
    return InterrogationResult(
        port=port, transport="tcp", success=True, protocol="HTTP", record=record
    )


def obs(t, record, port=80, entity="host:9.9.9.9", seq=None):
    return ScanObservation(
        entity_id=entity, time=t, port=port, transport="tcp",
        result=ok_result(record, port=port), obs_seq=seq,
    )


def durable_journal(tmp_path, **wal_kwargs):
    wal = WriteAheadLog(str(tmp_path / "wal"), **wal_kwargs)
    return EventJournal(snapshot_every=3, wal=wal)


def fill(journal, n=10, entity="host:9.9.9.9"):
    write = WriteSideProcessor(journal, EventBus())
    for i in range(n):
        write.submit(obs(float(i), {"v": i // 2}, entity=entity, seq=i))
    return write


def segment_files(tmp_path, suffix=".log"):
    wal_dir = tmp_path / "wal"
    return sorted(p for p in os.listdir(wal_dir) if p.endswith(suffix))


class TestFraming:
    def test_record_round_trip(self, tmp_path):
        path = str(tmp_path / "seg.log")
        bodies = [{"t": "batch", "events": [{"x": i, "y": "z" * i}]} for i in range(5)]
        with open(path, "wb") as fh:
            for body in bodies:
                fh.write(encode_record(body))
        records, valid, torn = decode_segment(path, tolerate_torn_tail=True)
        assert records == bodies
        assert torn == 0
        assert valid == os.path.getsize(path)

    @pytest.mark.parametrize("cut", ["header", "body", "terminator"])
    def test_torn_tail_variants_discarded(self, tmp_path, cut):
        path = str(tmp_path / "seg.log")
        good = encode_record({"t": "batch", "events": [{"a": 1}]})
        tail = encode_record({"t": "batch", "events": [{"b": 2}]})
        if cut == "header":
            tail = tail[: _HEADER_LEN // 2]
        elif cut == "body":
            tail = tail[: _HEADER_LEN + 5]
        else:
            tail = tail[:-1]  # complete body, missing newline
        with open(path, "wb") as fh:
            fh.write(good + tail)
        records, valid, torn = decode_segment(path, tolerate_torn_tail=True)
        assert torn == 1
        assert valid == len(good)
        assert records == [{"t": "batch", "events": [{"a": 1}]}]

    def test_checksum_mismatch_on_tail_is_torn(self, tmp_path):
        path = str(tmp_path / "seg.log")
        good = encode_record({"t": "batch", "events": [{"a": 1}]})
        bad = bytearray(encode_record({"t": "batch", "events": [{"b": 2}]}))
        bad[_HEADER_LEN + 2] ^= 0xFF  # flip a body byte; crc now mismatches
        with open(path, "wb") as fh:
            fh.write(good + bytes(bad))
        records, _valid, torn = decode_segment(path, tolerate_torn_tail=True)
        assert torn == 1 and len(records) == 1

    def test_mid_file_corruption_raises(self, tmp_path):
        path = str(tmp_path / "seg.log")
        records = [encode_record({"t": "batch", "events": [{"i": i}]}) for i in range(3)]
        blob = bytearray(b"".join(records))
        blob[_HEADER_LEN + 1] ^= 0xFF  # corrupt the FIRST record's body
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        with pytest.raises(WalCorruptionError):
            decode_segment(path, tolerate_torn_tail=True)


class TestDurableJournal:
    def test_recovery_is_byte_identical(self, tmp_path):
        journal = durable_journal(tmp_path)
        fill(journal, n=12)
        journal.close()
        recovered = EventJournal.recover(str(tmp_path / "wal"), snapshot_every=3, reopen=False)
        assert journal_fingerprint(recovered) == journal_fingerprint(journal)
        assert storage_fingerprint(recovered) == storage_fingerprint(journal)
        assert recovered.stats.recovered_events == 12
        assert recovered.stats.torn_records_discarded == 0

    def test_segment_rotation_and_resume(self, tmp_path):
        journal = durable_journal(tmp_path, segment_max_records=4)
        fill(journal, n=10)
        journal.close()
        assert len(segment_files(tmp_path)) >= 3
        # Recovery reopens for append; new events land after the old ones.
        recovered = EventJournal.recover(
            str(tmp_path / "wal"), snapshot_every=3, segment_max_records=4
        )
        write = WriteSideProcessor(recovered, EventBus())
        write.submit(obs(50.0, {"v": 99}, seq=50))
        recovered.close()
        again = EventJournal.recover(str(tmp_path / "wal"), snapshot_every=3, reopen=False)
        assert again.stats.events == 11
        assert again.reconstruct("host:9.9.9.9")["services"]["80/tcp"]["record"]["v"] == 99

    def test_torn_tail_truncated_then_appendable(self, tmp_path):
        journal = durable_journal(tmp_path)
        fill(journal, n=6)
        journal.close()
        seg = tmp_path / "wal" / segment_files(tmp_path)[-1]
        good_size = seg.stat().st_size
        with open(seg, "ab") as fh:
            fh.write(encode_record({"t": "batch", "events": [{"bogus": 1}]})[:-7])
        recovered = EventJournal.recover(str(tmp_path / "wal"), snapshot_every=3)
        assert recovered.stats.torn_records_discarded == 1
        assert recovered.stats.events == 6
        assert seg.stat().st_size == good_size  # tail truncated away
        write = WriteSideProcessor(recovered, EventBus())
        write.submit(obs(50.0, {"v": 7}, seq=50))
        recovered.close()
        final = EventJournal.recover(str(tmp_path / "wal"), snapshot_every=3, reopen=False)
        assert final.stats.events == 7
        assert final.stats.torn_records_discarded == 0

    def test_transaction_groups_events_into_one_batch(self, tmp_path):
        journal = durable_journal(tmp_path)
        with journal.transaction():
            journal.append("e", 1.0, EventKind.SERVICE_FOUND, {"key": "80/tcp", "record": {}})
            journal.append("e", 1.0, EventKind.HOST_META, {"meta": {"x": 1}})
        journal.append("e", 2.0, EventKind.SERVICE_REFRESHED, {"key": "80/tcp"})
        journal.close()
        assert journal.stats.wal_batches == 2  # txn batch + autocommitted append
        assert journal.stats.wal_events == 3
        recovered = EventJournal.recover(str(tmp_path / "wal"), snapshot_every=3, reopen=False)
        assert recovered.stats.events == 3

    def test_snapshot_sidecars_written_and_verified(self, tmp_path):
        journal = durable_journal(tmp_path)  # snapshot_every=3
        fill(journal, n=9)
        journal.close()
        sidecars = segment_files(tmp_path, suffix=".snap")
        assert sidecars
        scan = WriteAheadLog.scan(str(tmp_path / "wal"))
        assert len(scan.snapshots) == journal.stats.snapshots
        # verify_snapshots cross-checks sidecar state against the replay.
        recovered = EventJournal.recover(
            str(tmp_path / "wal"), snapshot_every=3, verify_snapshots=True, reopen=False
        )
        assert recovered.stats.snapshots == journal.stats.snapshots

    def test_diverged_sidecar_snapshot_detected(self, tmp_path):
        journal = durable_journal(tmp_path)
        fill(journal, n=9)
        journal.close()
        sidecar = tmp_path / "wal" / segment_files(tmp_path, suffix=".snap")[0]
        scan = WriteAheadLog.scan(str(tmp_path / "wal"))
        snap = dict(scan.snapshots[0])
        snap["state"] = dict(snap["state"], first_seen=-1.0)  # tamper
        with open(sidecar, "wb") as fh:
            fh.write(encode_record(snap))
        with pytest.raises(WalCorruptionError):
            EventJournal.recover(str(tmp_path / "wal"), snapshot_every=3, reopen=False)

    def test_recover_empty_directory(self, tmp_path):
        recovered = EventJournal.recover(str(tmp_path / "missing"), snapshot_every=3)
        assert len(recovered) == 0
        assert recovered.stats.events == 0
        recovered.close()

    def test_fsync_accounting(self, tmp_path):
        journal = durable_journal(tmp_path, group_commit_events=1)
        fill(journal, n=5)
        assert journal.wal.stats.fsyncs == journal.stats.wal_batches
        journal.close()
        batched = EventJournal(
            snapshot_every=3, wal=WriteAheadLog(str(tmp_path / "wal2"), group_commit_events=4)
        )
        fill(batched, n=5)
        assert batched.wal.stats.fsyncs < batched.stats.wal_batches
        batched.close()

    def test_group_commit_window_defers_fsync_and_callbacks(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal"), group_commit_events=3)
        fired = []
        for i in range(2):
            wal.append_batch([{"i": i}], on_durable=lambda i=i: fired.append(i))
        assert wal.stats.fsyncs == 0
        assert fired == []
        wal.append_batch([{"i": 2}], on_durable=lambda: fired.append(2))
        # The third batch fills the window: one fsync covers all three and
        # fires their durability callbacks in append order.
        assert wal.stats.fsyncs == 1
        assert fired == [0, 1, 2]
        wal.close()

    def test_flush_commit_window_forces_partial_window(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal"), group_commit_events=8)
        fired = []
        wal.append_batch([{"i": 0}], on_durable=lambda: fired.append(0))
        wal.flush_commit_window()
        assert wal.stats.fsyncs == 1
        assert fired == [0]
        # A clean window is a no-op: no spurious fsync.
        wal.flush_commit_window()
        assert wal.stats.fsyncs == 1
        wal.close()

    def test_group_commit_byte_bound(self, tmp_path):
        wal = WriteAheadLog(
            str(tmp_path / "wal"), group_commit_events=1000, group_commit_bytes=1
        )
        wal.append_batch([{"i": 0}])
        # Any record exceeds a 1-byte window, so every batch fsyncs.
        assert wal.stats.fsyncs == 1
        wal.close()

    def test_torn_write_fsync_covers_pending_window(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal"), group_commit_events=8)
        fired = []
        wal.append_batch([{"i": 0}], on_durable=lambda: fired.append(0))
        wal.append_batch([{"i": 1}], torn=True)
        # The torn prefix's fsync also makes the pending complete batch
        # durable (and fires its callback); the torn batch queued none.
        assert wal.stats.fsyncs == 1
        assert fired == [0]
        wal.close()

    def test_close_fsync_covers_open_window(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal"), group_commit_events=8)
        fired = []
        wal.append_batch([{"i": 0}], on_durable=lambda: fired.append(0))
        wal.close()
        assert fired == [0]
        assert wal.stats.fsyncs >= 1

    def test_every_real_fsync_is_counted(self, tmp_path, monkeypatch):
        """WalStats.fsyncs equals the number of actual os.fsync calls,
        across window fsyncs, torn-path fsyncs, rotation, and close."""
        real_fsync = os.fsync
        calls = {"n": 0}

        def counting_fsync(fd):
            calls["n"] += 1
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        wal = WriteAheadLog(
            str(tmp_path / "wal"), segment_max_records=3, group_commit_events=2
        )
        for i in range(8):  # crosses two rotation boundaries
            wal.append_batch([{"i": i}])
        wal.append_batch([{"torn": True}], torn=True)
        wal.append_batch([{"i": 99}])  # leaves an open window for close
        wal.close()
        assert wal.stats.fsyncs == calls["n"]
        assert wal.stats.fsyncs > 0

    def test_group_commit_recovery_identical_to_reference(self, tmp_path):
        reference = durable_journal(tmp_path, group_commit_events=1)
        fill(reference, n=12)
        reference.close()
        windowed_wal = WriteAheadLog(str(tmp_path / "wal-g"), group_commit_events=5)
        windowed = EventJournal(snapshot_every=3, wal=windowed_wal)
        fill(windowed, n=12)
        windowed.close()
        assert windowed_wal.stats.fsyncs < reference.wal.stats.fsyncs
        rec_ref = EventJournal.recover(str(tmp_path / "wal"), snapshot_every=3, reopen=False)
        rec_win = EventJournal.recover(str(tmp_path / "wal-g"), snapshot_every=3, reopen=False)
        assert journal_fingerprint(rec_win) == journal_fingerprint(rec_ref)
        assert storage_fingerprint(rec_win) == storage_fingerprint(rec_ref)

    def test_commit_listener_fires_only_after_covering_fsync(self, tmp_path):
        journal = durable_journal(tmp_path, group_commit_events=3)
        shipped = []
        journal.commit_listener = lambda batch: shipped.append(len(batch.events))
        journal.append("e", 1.0, EventKind.SERVICE_FOUND, {"key": "80/tcp", "record": {}})
        journal.append("e", 2.0, EventKind.SERVICE_REFRESHED, {"key": "80/tcp"})
        assert shipped == []  # buffered: the covering fsync has not run
        journal.append("e", 3.0, EventKind.SERVICE_REFRESHED, {"key": "80/tcp"})
        assert shipped == [1, 1, 1]  # window filled: all three ship, in order
        journal.append("e", 4.0, EventKind.SERVICE_REFRESHED, {"key": "80/tcp"})
        assert shipped == [1, 1, 1]
        journal.flush_commit_window()
        assert shipped == [1, 1, 1, 1]
        journal.close()

    def test_in_memory_journal_unaffected(self, tmp_path):
        """durable=False stays the default and writes nothing anywhere."""
        journal = EventJournal(snapshot_every=3)
        fill(journal, n=6)
        assert not journal.durable
        assert journal.stats.wal_batches == 0
        journal.close()  # no-op
        assert list(tmp_path.iterdir()) == []


class TestShardRecoveryErrors:
    """Per-shard recovery failures must say *which* shard died (satellite:
    ShardedJournal.recover error attribution, serial and executor paths)."""

    def _corrupted_sharded_wal(self, tmp_path):
        """A 2-shard durable journal with shard 1's WAL corrupted mid-file."""
        from repro.pipeline import ShardMap, ShardedJournal

        shard_map = ShardMap(2)
        sharded = ShardedJournal.durable(str(tmp_path), shard_map, snapshot_every=3)
        write = WriteSideProcessor(sharded, EventBus())
        hosts = [f"host:10.1.0.{i}" for i in range(8)]
        assert {shard_map.shard_of(h) for h in hosts} == {0, 1}
        for i, host in enumerate(hosts):
            write.submit(obs(float(i), {"v": i}, entity=host, seq=i))
        sharded.close()
        seg = tmp_path / "shard-01" / "segment-00000.log"
        blob = bytearray(seg.read_bytes())
        blob[_HEADER_LEN + 1] ^= 0xFF  # corrupt the FIRST record's body
        seg.write_bytes(bytes(blob))
        return shard_map

    def test_serial_recovery_attributes_the_shard(self, tmp_path):
        from repro.pipeline import ShardRecoveryError, ShardedJournal

        shard_map = self._corrupted_sharded_wal(tmp_path)
        with pytest.raises(ShardRecoveryError) as excinfo:
            ShardedJournal.recover(str(tmp_path), shard_map, snapshot_every=3, reopen=False)
        assert excinfo.value.shard == 1
        assert excinfo.value.directory.endswith("shard-01")
        assert "shard 01" in str(excinfo.value)
        assert "WalCorruptionError" in str(excinfo.value)

    def test_thread_recovery_attributes_the_shard(self, tmp_path):
        from repro.pipeline import ShardRecoveryError, ShardedJournal, ThreadShardExecutor

        shard_map = self._corrupted_sharded_wal(tmp_path)
        executor = ThreadShardExecutor(workers=2)
        try:
            with pytest.raises(ShardRecoveryError) as excinfo:
                ShardedJournal.recover(
                    str(tmp_path), shard_map, snapshot_every=3,
                    executor=executor, reopen=False,
                )
            assert excinfo.value.shard == 1
        finally:
            executor.close()


class TestRotationBoundaries:
    """Satellite: exact segment-rotation boundaries and sidecar torn tails."""

    def test_append_exactly_segment_max_records_rotates(self, tmp_path):
        journal = durable_journal(tmp_path, segment_max_records=4)
        # Each observation journals one batch record; 4 batches = exactly
        # one full segment, so the *next* append must open segment 1.
        fill(journal, n=4)
        assert journal.wal.stats.records == 4
        fill_more = WriteSideProcessor(journal, EventBus())
        fill_more.submit(obs(100.0, {"v": 99}, seq=100))
        journal.close()
        logs = segment_files(tmp_path)
        assert logs == ["segment-00000.log", "segment-00001.log"]
        first = decode_segment(str(tmp_path / "wal" / logs[0]), tolerate_torn_tail=False)
        assert len(first[0]) == 4  # sealed at exactly the cap, not cap+1

    def test_recovery_across_rotation_point(self, tmp_path):
        journal = durable_journal(tmp_path, segment_max_records=4)
        fill(journal, n=12)  # three exactly-full segments
        live = journal_fingerprint(journal)
        storage = storage_fingerprint(journal)
        journal.close()
        recovered = EventJournal.recover(
            str(tmp_path / "wal"), snapshot_every=3, segment_max_records=4, reopen=False
        )
        assert journal_fingerprint(recovered) == live
        assert storage_fingerprint(recovered) == storage

    def test_resume_after_recovery_lands_in_correct_segment(self, tmp_path):
        journal = durable_journal(tmp_path, segment_max_records=4)
        fill(journal, n=8)
        journal.close()
        recovered = EventJournal.recover(
            str(tmp_path / "wal"), snapshot_every=3, segment_max_records=4
        )
        WriteSideProcessor(recovered, EventBus()).submit(obs(50.0, {"v": 50}, seq=50))
        recovered.close()
        # Two sealed segments from before the restart; the resumed append
        # must not reopen a sealed one.
        logs = decode_segment(
            str(tmp_path / "wal" / "segment-00000.log"), tolerate_torn_tail=False
        )
        assert len(logs[0]) == 4

    def test_torn_tail_in_final_sidecar_is_tolerated(self, tmp_path):
        journal = durable_journal(tmp_path, segment_max_records=100)
        fill(journal, n=9)  # snapshot_every=3 -> sidecar snapshots exist
        live = journal_fingerprint(journal)
        journal.close()
        sidecars = segment_files(tmp_path, suffix=".snap")
        assert sidecars
        path = tmp_path / "wal" / sidecars[-1]
        size = os.path.getsize(path)
        with open(path, "ab") as fh:
            fh.truncate(size - 7)  # tear the final snapshot record
        recovered = EventJournal.recover(
            str(tmp_path / "wal"), snapshot_every=3, segment_max_records=100, reopen=False
        )
        # The torn sidecar record is discarded; snapshots regenerate
        # deterministically so the journal is still byte-identical.
        assert recovered.stats.torn_records_discarded >= 1
        assert journal_fingerprint(recovered) == live

    def test_torn_sidecar_in_sealed_segment_raises(self, tmp_path):
        journal = durable_journal(tmp_path, segment_max_records=4)
        fill(journal, n=12)
        journal.close()
        sidecars = segment_files(tmp_path, suffix=".snap")
        non_final = [s for s in sidecars if not s.startswith("segment-00002")]
        assert non_final
        path = tmp_path / "wal" / non_final[0]
        size = os.path.getsize(path)
        assert size > 7
        with open(path, "ab") as fh:
            fh.truncate(size - 7)
        with pytest.raises(WalCorruptionError):
            EventJournal.recover(
                str(tmp_path / "wal"), snapshot_every=3, segment_max_records=4, reopen=False
            )


class TestOnePassRecovery:
    """Recovery reads each file once and hands its layout to the reopened WAL."""

    def _multi_segment_dir(self, tmp_path):
        journal = durable_journal(tmp_path, segment_max_records=4)
        fill(journal, n=14)  # four segments, the last one partly full
        journal.close()
        wal_dir = tmp_path / "wal"
        assert len(segment_files(tmp_path)) == 4
        assert len(segment_files(tmp_path, suffix=".snap")) >= 2
        return wal_dir

    def _recover_counting_decodes(self, wal_dir, monkeypatch):
        decoded = []
        real = wal_module.decode_segment

        def counting(path, **kwargs):
            decoded.append(os.path.basename(path))
            return real(path, **kwargs)

        monkeypatch.setattr(wal_module, "decode_segment", counting)
        recovered = EventJournal.recover(
            str(wal_dir), snapshot_every=3, segment_max_records=4, reopen=True
        )
        monkeypatch.undo()
        return recovered, decoded

    def _assert_layout_matches_fresh_open(self, recovered, wal_dir):
        fresh = WriteAheadLog(str(wal_dir), segment_max_records=4)
        try:
            assert recovered.wal._segment_index == fresh._segment_index
            assert recovered.wal._segment_records == fresh._segment_records
            assert recovered.wal.stats.segments == fresh.stats.segments
        finally:
            fresh.close()

    def test_each_file_decoded_once(self, tmp_path, monkeypatch):
        wal_dir = self._multi_segment_dir(tmp_path)
        files = sorted(os.listdir(wal_dir))
        recovered, decoded = self._recover_counting_decodes(wal_dir, monkeypatch)
        try:
            assert sorted(decoded) == files
            assert recovered.stats.torn_records_discarded == 0
            assert recovered.stats.wal_batches == 14
            self._assert_layout_matches_fresh_open(recovered, wal_dir)
        finally:
            recovered.close()

    def test_each_file_decoded_once_after_torn_tail(self, tmp_path, monkeypatch):
        wal_dir = self._multi_segment_dir(tmp_path)
        files = sorted(os.listdir(wal_dir))
        tail = wal_dir / segment_files(tmp_path)[-1]
        good_size = tail.stat().st_size
        with open(tail, "ab") as fh:
            fh.write(encode_record({"t": "batch", "events": [{"bogus": 1}]})[:-7])
        recovered, decoded = self._recover_counting_decodes(wal_dir, monkeypatch)
        try:
            assert sorted(decoded) == files
            assert recovered.stats.torn_records_discarded == 1
            assert tail.stat().st_size == good_size
            self._assert_layout_matches_fresh_open(recovered, wal_dir)
        finally:
            recovered.close()

    def test_recovered_heartbeats_share_payloads_like_live(self, tmp_path):
        journal = durable_journal(tmp_path, segment_max_records=4)
        write = WriteSideProcessor(journal, EventBus())
        for i in range(24):
            # No delivery sequence: an unchanged re-observation journals a
            # bare {"key": ...} heartbeat.
            for port in (80, 8080):
                write.submit(obs(float(i), {"v": i // 8}, port=port, entity=f"host:{i % 3}"))
        journal.close()
        recovered = EventJournal.recover(str(tmp_path / "wal"), snapshot_every=3, reopen=False)

        def heartbeat_payload_ids(j):
            by_key = {}
            for entity_id in j.entity_ids():
                for e in j.events_for(entity_id):
                    if e.kind == EventKind.SERVICE_REFRESHED:
                        assert set(e.payload) == {"key"}
                        by_key.setdefault(e.payload["key"], []).append(id(e.payload))
            return {key: set(ids) for key, ids in by_key.items() if len(ids) > 1}

        live_ids = heartbeat_payload_ids(journal)
        recovered_ids = heartbeat_payload_ids(recovered)
        assert set(live_ids) == {"80/tcp", "8080/tcp"}
        assert set(recovered_ids) == set(live_ids)
        assert all(len(ids) == 1 for ids in live_ids.values())
        assert all(len(ids) == 1 for ids in recovered_ids.values())
        assert journal_fingerprint(recovered) == journal_fingerprint(journal)
        assert storage_fingerprint(recovered) == storage_fingerprint(journal)
