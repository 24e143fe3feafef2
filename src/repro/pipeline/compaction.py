"""Background journal compaction and the columnar cold storage tier.

The journal keeps every event since t=0 resident and replays the whole
history on recovery; that caps both uptime (RAM grows with history) and
restart time (replay is O(history)).  This module folds the *covered*
prefix of each entity's history — everything at or before an anchor
snapshot's ``seq_after`` — out of the hot path:

* sealed WAL segments whose batches are fully covered are rewritten into
  an immutable, columnar **cold run** file (dictionary-encoded kinds and
  payloads, one record per entity) that ``reconstruct(entity, at)`` can
  still time-travel into;
* a single **manifest** records, per entity, the anchor snapshot plus the
  folded prefix's contribution to the storage accounting, so recovery
  seeds each entity from its anchor and replays only the live tail —
  O(anchors + tail) instead of O(history);
* the resident event lists in RAM are truncated at the same boundary, so
  resident memory plateaus while the queryable history keeps growing.

Crash safety is rename-based and ordered::

    write cold run (tmp) -> fsync -> rename -> write manifest (tmp)
        -> fsync -> rename -> delete folded segments + sidecars

A crash before the manifest rename leaves at worst an orphaned cold file
(garbage-collected on the next run); a crash after it leaves at worst
stale segment files below ``through_segment``, which recovery skips and
the next run deletes.  Every step is idempotent, which is what the chaos
suite exercises by killing the compactor at each named crash point.

Compaction changes *where* history lives, never *what* reads return: it
does not bump ``EventJournal.version`` or any per-entity version, so the
versioned read caches stay valid, and reads through the cold tier are
canonical-JSON identical to the uncompacted reference.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.pipeline.events import Event
from repro.pipeline.journal import CompactionAnchor, EventJournal
from repro.pipeline.state import canonical_json, snapshot_size
from repro.pipeline.wal import (
    _HEADER_LEN,
    SEGMENT_PATTERN,
    SIDECAR_PATTERN,
    WalCorruptionError,
    decode_batch_events,
    decode_segment,
    encode_record,
)

__all__ = [
    "ColdStore",
    "CompactionStats",
    "SegmentCompactor",
    "ShardedCompactor",
    "compact_journal_in_memory",
    "MANIFEST_NAME",
    "COLD_PATTERN",
]

MANIFEST_NAME = "manifest.json"
COLD_PATTERN = "cold-%05d.cold"
#: Upper bound on sealed segments one fold takes from one journal.
MAX_SEGMENTS_PER_RUN = 64

_MANIFEST_STATS_ZERO = {
    "events": 0,
    "event_bytes": 0,
    "snapshots": 0,
    "snapshot_bytes": 0,
    "ssd_bytes": 0,
    "hdd_bytes": 0,
    "cold_bytes": 0,
    "wal_batches": 0,
    "wal_events": 0,
}


def _fsync_dir(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _decode_one_record(blob: bytes, offset: int, label: str) -> Dict[str, Any]:
    """Decode a single framed record starting at ``offset`` in ``blob``."""
    header = blob[offset : offset + _HEADER_LEN]
    if len(header) < _HEADER_LEN:
        raise WalCorruptionError(f"{label}: truncated cold record header at {offset}")
    length = int(header[:8], 16)
    crc = int(header[8:], 16)
    body = blob[offset + _HEADER_LEN : offset + _HEADER_LEN + length]
    if len(body) < length or (zlib.crc32(body) & 0xFFFFFFFF) != crc:
        raise WalCorruptionError(f"{label}: corrupt cold record at {offset}")
    return json.loads(body.decode("utf-8"))


def _read_record_at(path: str, offset: int) -> Dict[str, Any]:
    """Read one framed record from a cold file without loading the file."""
    with open(path, "rb") as fh:
        fh.seek(offset)
        header = fh.read(_HEADER_LEN)
        if len(header) < _HEADER_LEN:
            raise WalCorruptionError(f"{path}: truncated cold record header at {offset}")
        length = int(header[:8], 16)
        crc = int(header[8:], 16)
        body = fh.read(length)
        if len(body) < length or (zlib.crc32(body) & 0xFFFFFFFF) != crc:
            raise WalCorruptionError(f"{path}: corrupt cold record at {offset}")
        return json.loads(body.decode("utf-8"))


def _encode_run(
    run: int, per_entity: "OrderedDict[str, List[Event]]"
) -> Tuple[bytes, Dict[str, int]]:
    """Columnar-encode one compaction run; returns (framed bytes, offsets).

    Layout: a header record carrying the kind vocabulary and a dictionary
    of repeated canonical payloads, then one record per entity with
    parallel time/kind/payload columns.  Heartbeat payloads (one per
    service key, repeated every re-observation) dictionary-encode to a
    single small integer per event.
    """
    kinds: List[str] = []
    kind_index: Dict[str, int] = {}
    payload_counts: Dict[str, int] = {}
    encoded_payloads: Dict[str, List[str]] = {}
    for entity_id, events in per_entity.items():
        row = []
        for event in events:
            if event.kind not in kind_index:
                kind_index[event.kind] = len(kinds)
                kinds.append(event.kind)
            pj = canonical_json(event.payload)
            payload_counts[pj] = payload_counts.get(pj, 0) + 1
            row.append(pj)
        encoded_payloads[entity_id] = row
    pdict: List[str] = []
    pdict_index: Dict[str, int] = {}
    for entity_id, events in per_entity.items():
        for pj in encoded_payloads[entity_id]:
            if payload_counts[pj] > 1 and pj not in pdict_index:
                pdict_index[pj] = len(pdict)
                pdict.append(pj)
    chunks = [encode_record({"t": "coldhead", "run": run, "kinds": kinds, "pdict": pdict})]
    size = len(chunks[0])
    offsets: Dict[str, int] = {}
    for entity_id, events in per_entity.items():
        record = {
            "t": "cold",
            "e": entity_id,
            "s0": events[0].seq,
            "tm": [event.time for event in events],
            "k": [kind_index[event.kind] for event in events],
            "p": [
                pdict_index[pj] if payload_counts[pj] > 1 else pj
                for pj in encoded_payloads[entity_id]
            ],
        }
        offsets[entity_id] = size
        chunk = encode_record(record)
        chunks.append(chunk)
        size += len(chunk)
    return b"".join(chunks), offsets


def _decode_entity_column(
    header: Dict[str, Any], record: Dict[str, Any]
) -> List[Event]:
    kinds = header["kinds"]
    pdict = header["pdict"]
    entity_id = record["e"]
    s0 = record["s0"]
    events: List[Event] = []
    for i, (tm, k, p) in enumerate(zip(record["tm"], record["k"], record["p"])):
        payload = json.loads(pdict[p] if isinstance(p, int) else p)
        events.append(
            Event(entity_id=entity_id, seq=s0 + i, time=tm, kind=kinds[k], payload=payload)
        )
    return events


def _empty_manifest() -> Dict[str, Any]:
    return {
        "t": "manifest",
        "run": 0,
        "through_segment": -1,
        "batches_folded": 0,
        "runs": [],
        "entities": {},
        "stats": dict(_MANIFEST_STATS_ZERO),
    }


class ColdStore:
    """The columnar cold tier plus the manifest that anchors recovery.

    Disk mode (``directory`` set) backs each compaction run with an
    immutable cold file and persists the manifest; memory mode
    (``directory=None``, used by replicas) keeps runs as encoded blobs in
    RAM — still far denser than live ``Event`` objects — and the manifest
    in memory only, since replicas re-seed from the primary, not from disk.
    """

    def __init__(self, directory: Optional[str], manifest: Optional[Dict[str, Any]] = None):
        self.directory = directory
        self.manifest = manifest if manifest is not None else _empty_manifest()
        self._mem_runs: List[bytes] = []
        self._cache: "OrderedDict[str, List[Event]]" = OrderedDict()
        self._cache_max = 64
        self._lock = threading.Lock()

    @property
    def through_segment(self) -> int:
        return self.manifest["through_segment"]

    @classmethod
    def open(cls, directory: str) -> Optional["ColdStore"]:
        """Load the manifest from a WAL directory; None when uncompacted."""
        path = os.path.join(str(directory), MANIFEST_NAME)
        if not os.path.exists(path):
            return None
        records, _valid, _torn = decode_segment(path, tolerate_torn_tail=False)
        if len(records) != 1 or records[0].get("t") != "manifest":
            raise WalCorruptionError(f"{path}: malformed compaction manifest")
        return cls(str(directory), records[0])

    def anchors(self) -> Dict[str, Tuple[int, float, Dict[str, Any]]]:
        return {
            entity_id: (ent["base"], ent["time"], ent["state"])
            for entity_id, ent in self.manifest["entities"].items()
        }

    # -- reads -------------------------------------------------------------

    def events_for(self, entity_id: str) -> List[Event]:
        """The entity's full folded prefix (seqs [0, base)), oldest first."""
        with self._lock:
            cached = self._cache.get(entity_id)
            if cached is not None:
                self._cache.move_to_end(entity_id)
                return cached
        events: List[Event] = []
        for index, run in enumerate(self.manifest["runs"]):
            offset = run["offsets"].get(entity_id)
            if offset is None:
                continue
            header, record = self._read_run_records(index, run, offset)
            chunk = _decode_entity_column(header, record)
            if chunk and chunk[0].seq != len(events):
                raise WalCorruptionError(
                    f"cold run {index}: non-contiguous history for {entity_id}: "
                    f"expected seq {len(events)}, found {chunk[0].seq}"
                )
            events.extend(chunk)
        with self._lock:
            self._cache[entity_id] = events
            self._cache.move_to_end(entity_id)
            while len(self._cache) > self._cache_max:
                self._cache.popitem(last=False)
        return events

    def _read_run_records(
        self, index: int, run: Dict[str, Any], offset: int
    ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        if run["file"] is None:
            blob = self._mem_runs[run["mem"]]
            label = f"mem-run-{index}"
            return _decode_one_record(blob, 0, label), _decode_one_record(blob, offset, label)
        path = os.path.join(self.directory, run["file"])
        return _read_record_at(path, 0), _read_record_at(path, offset)

    # -- writes (compactor only) -------------------------------------------

    def write_run(
        self,
        per_entity: "OrderedDict[str, List[Event]]",
        *,
        crash_hook: Optional[Callable[[str], None]] = None,
    ) -> Tuple[Dict[str, Any], int]:
        """Persist one run; returns (manifest run entry, file bytes).

        Disk mode follows write-tmp -> fsync -> rename; the named crash
        hooks bracket the rename so the chaos suite can kill between
        "new data durable" and "new data visible".
        """
        run_id = self.manifest["run"]
        blob, offsets = _encode_run(run_id, per_entity)
        if self.directory is None:
            self._mem_runs.append(blob)
            entry = {"file": None, "mem": len(self._mem_runs) - 1, "offsets": offsets}
            return entry, len(blob)
        name = COLD_PATTERN % run_id
        final_path = os.path.join(self.directory, name)
        tmp_path = final_path + ".tmp"
        with open(tmp_path, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        if crash_hook is not None:
            crash_hook("cold_written")
        os.replace(tmp_path, final_path)
        _fsync_dir(self.directory)
        if crash_hook is not None:
            crash_hook("cold_renamed")
        return {"file": name, "offsets": offsets}, len(blob)

    def commit_manifest(
        self,
        manifest: Dict[str, Any],
        *,
        crash_hook: Optional[Callable[[str], None]] = None,
    ) -> None:
        """Atomically swap in a new manifest (and drop stale read cache)."""
        if self.directory is not None:
            final_path = os.path.join(self.directory, MANIFEST_NAME)
            tmp_path = final_path + ".tmp"
            with open(tmp_path, "wb") as fh:
                fh.write(encode_record(manifest))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_path, final_path)
            _fsync_dir(self.directory)
        self.manifest = manifest
        with self._lock:
            self._cache.clear()
        if crash_hook is not None:
            crash_hook("manifest_written")


#: One journal row: (seq_after, time, state, size) — see ``_EntityLog``.
_Snapshot = Tuple[int, float, Dict[str, Any], int]


class _FoldPlan(NamedTuple):
    """What ``_plan_anchors`` decided for one run."""

    anchors: Dict[str, CompactionAnchor]
    #: Per entity, the cadence snapshots this fold newly covers.
    new_cadence: Dict[str, List[_Snapshot]]
    synthetic: int
    #: Modeled bytes of every folded event, summed from the resident rows.
    folded_bytes: int


@dataclass(slots=True)
class CompactionStats:
    """Counters for one compactor (merged additively across shards)."""

    runs: int = 0
    segments_compacted: int = 0
    batches_folded: int = 0
    events_folded: int = 0
    event_bytes_folded: int = 0
    synthetic_anchors: int = 0
    cold_files: int = 0
    cold_file_bytes: int = 0
    #: Runs cut short (or skipped) because sealed batches were not yet
    #: committed on enough replicas.
    watermark_deferrals: int = 0
    #: Stale files removed during crash-recovery cleanup.
    leftovers_removed: int = 0


class SegmentCompactor:
    """Folds covered history from one journal's sealed WAL segments.

    ``batch_limit`` (when set) returns the number of WAL batches known
    committed on enough replicas; compaction never folds a batch beyond
    it, so a failover can always re-ship un-acked tail batches from the
    segment files.  ``crash_hook`` is called with a named crash point at
    each step boundary (chaos testing).
    """

    def __init__(
        self,
        journal: EventJournal,
        directory: str,
        *,
        min_sealed_segments: int = 2,
        batch_limit: Optional[Callable[[], Optional[int]]] = None,
        crash_hook: Optional[Callable[[str], None]] = None,
    ) -> None:
        if min_sealed_segments < 1:
            raise ValueError("min_sealed_segments must be >= 1")
        self.journal = journal
        self.directory = str(directory)
        self.min_sealed_segments = min_sealed_segments
        self.batch_limit = batch_limit
        self.crash_hook = crash_hook
        self.stats = CompactionStats()
        if journal.cold_store is None:
            journal.cold_store = ColdStore(self.directory)
        self.store: ColdStore = journal.cold_store

    # -- crash-recovery cleanup -------------------------------------------

    def cleanup(self) -> int:
        """Remove leftovers from a crashed run (idempotent).

        Orphaned ``*.tmp`` files and cold files above the manifest's last
        committed run never became visible; segment/sidecar files at or
        below ``through_segment`` are already folded into the manifest and
        recovery skips them — delete both kinds.
        """
        removed = 0
        through = self.store.through_segment
        referenced = {run["file"] for run in self.store.manifest["runs"] if run["file"]}
        for name in sorted(os.listdir(self.directory)):
            path = os.path.join(self.directory, name)
            if name.endswith(".tmp"):
                os.unlink(path)
                removed += 1
            elif name.startswith("cold-") and name.endswith(".cold") and name not in referenced:
                os.unlink(path)
                removed += 1
            elif name.startswith("segment-") and (name.endswith(".log") or name.endswith(".snap")):
                index = int(name[len("segment-") : name.rindex(".")])
                if index <= through:
                    os.unlink(path)
                    removed += 1
        if removed:
            _fsync_dir(self.directory)
        self.stats.leftovers_removed += removed
        return removed

    # -- one compaction run ------------------------------------------------

    def run_once(self) -> Dict[str, Any]:
        """Attempt one fold; returns a small report dict.

        No-ops (with a reason) when there are not enough sealed segments
        or the replication watermark does not yet cover them.
        """
        self.cleanup()
        wal = self.journal.wal
        if wal is None:
            return {"folded": False, "reason": "no-wal"}
        through = self.store.through_segment
        candidates = [i for i in wal.sealed_segments() if i > through]
        if len(candidates) < self.min_sealed_segments:
            return {"folded": False, "reason": "not-enough-sealed"}
        candidates = candidates[:MAX_SEGMENTS_PER_RUN]

        limit: Optional[int] = None
        if self.batch_limit is not None:
            limit = self.batch_limit()
        batches_before = self.store.manifest["batches_folded"]
        segments: List[int] = []
        batch_count = 0
        per_entity: "OrderedDict[str, List[Event]]" = OrderedDict()
        deferred = False
        for index in candidates:
            path = os.path.join(self.directory, SEGMENT_PATTERN % index)
            records, _valid, _torn = decode_segment(path, tolerate_torn_tail=False)
            if limit is not None and batches_before + batch_count + len(records) > limit:
                deferred = True
                break
            for record in records:
                if record.get("t") != "batch":
                    raise WalCorruptionError(f"{path}: unexpected record type in sealed segment")
                for raw in decode_batch_events(record["events"]):
                    event = Event(
                        entity_id=raw["e"],
                        seq=raw["s"],
                        time=raw["tm"],
                        kind=raw["k"],
                        payload=raw["p"],
                    )
                    per_entity.setdefault(event.entity_id, []).append(event)
            batch_count += len(records)
            segments.append(index)
        if deferred:
            self.stats.watermark_deferrals += 1
        if len(segments) < self.min_sealed_segments:
            return {
                "folded": False,
                "reason": "watermark" if deferred else "not-enough-sealed",
            }

        plan = self._plan_anchors(per_entity)
        entry, blob_bytes = self.store.write_run(per_entity, crash_hook=self.crash_hook)
        events_folded = sum(len(events) for events in per_entity.values())
        manifest = self._build_manifest(plan, events_folded, segments, batch_count, entry)
        self.store.commit_manifest(manifest, crash_hook=self.crash_hook)
        self._delete_segments(segments)
        self.journal.truncate_compacted(plan.anchors)

        self.stats.runs += 1
        self.stats.segments_compacted += len(segments)
        self.stats.batches_folded += batch_count
        self.stats.events_folded += events_folded
        self.stats.event_bytes_folded += plan.folded_bytes
        self.stats.synthetic_anchors += plan.synthetic
        self.stats.cold_files += 1
        self.stats.cold_file_bytes += blob_bytes
        return {
            "folded": True,
            "segments": list(segments),
            "batches": batch_count,
            "events": events_folded,
            "entities": len(per_entity),
            "cold_file_bytes": blob_bytes,
        }

    def _plan_anchors(self, per_entity: "OrderedDict[str, List[Event]]") -> _FoldPlan:
        """Pick each entity's fold boundary and materialize its anchor.

        The boundary is exactly one past the last folded event, so the
        live tail (already durable in un-folded segments) never overlaps
        the cold tier.  When no cadence snapshot landed on that boundary,
        a synthetic anchor is computed by deterministic replay and sized
        here, once.  Folded bytes come from the resident events, which
        were sized when appended (the decoded copies never are).
        """
        anchors: Dict[str, CompactionAnchor] = {}
        new_cadence: Dict[str, List[_Snapshot]] = {}
        synthetic_count = 0
        folded_bytes = 0
        for entity_id, events in per_entity.items():
            log = self.journal._logs.get(entity_id)
            if log is None or events[0].seq != log.base_seq:
                raise WalCorruptionError(
                    f"{self.directory}: sealed segments diverge from resident journal "
                    f"for {entity_id}"
                )
            base = events[-1].seq + 1
            if len(events) != base - log.base_seq:
                raise WalCorruptionError(
                    f"{self.directory}: sequence gap in sealed segments for {entity_id}"
                )
            resident = log.events[: len(events)]
            if len(resident) != len(events):
                raise WalCorruptionError(
                    f"{self.directory}: sealed segments run past resident journal "
                    f"for {entity_id}"
                )
            folded_bytes += sum(event.encoded_size() for event in resident)
            cadence = next((s for s in log.snapshots if s[0] == base), None)
            if cadence is not None:
                _, time, state, size = cadence
                anchors[entity_id] = CompactionAnchor(base, time, state, False, size)
            else:
                state = self.journal.anchor_state(entity_id, base)
                anchors[entity_id] = CompactionAnchor(
                    base, events[-1].time, state, True, snapshot_size(state)
                )
                synthetic_count += 1
            # Cadence snapshots newly covered by this fold (strictly past the
            # previous anchor, at or below the new one): their accounting
            # moves into the manifest because recovery will no longer
            # regenerate them.
            new_cadence[entity_id] = [
                s for s in log.snapshots if log.base_seq < s[0] <= base
            ]
        return _FoldPlan(anchors, new_cadence, synthetic_count, folded_bytes)

    def _build_manifest(
        self,
        plan: _FoldPlan,
        folded_events: int,
        segments: List[int],
        batch_count: int,
        run_entry: Dict[str, Any],
    ) -> Dict[str, Any]:
        old = self.store.manifest
        # Entries are replaced whole, never mutated: share the old ones.
        entities: Dict[str, Any] = dict(old["entities"])
        for entity_id, anchor in plan.anchors.items():
            entities[entity_id] = _manifest_entry(anchor)
        stats = dict(old["stats"])
        covered_snaps = 0
        covered_snap_bytes = 0
        for entity_id, snaps in plan.new_cadence.items():
            covered_snaps += len(snaps)
            covered_snap_bytes += sum(s[3] for s in snaps)
            anchor = plan.anchors[entity_id]
            if anchor.synthetic:
                covered_snaps += 1
                covered_snap_bytes += anchor.size
        stats["events"] += folded_events
        stats["event_bytes"] += plan.folded_bytes
        stats["snapshots"] += covered_snaps
        stats["snapshot_bytes"] += covered_snap_bytes
        stats["wal_events"] += folded_events
        stats["wal_batches"] += batch_count
        # Tier model for the fully-folded prefix: every anchor snapshot is
        # hot, everything else (folded events, superseded snapshots) is cold.
        stats["ssd_bytes"] = sum(ent["state_bytes"] for ent in entities.values())
        stats["hdd_bytes"] = 0
        stats["cold_bytes"] = stats["event_bytes"] + stats["snapshot_bytes"] - stats["ssd_bytes"]
        return {
            "t": "manifest",
            "run": old["run"] + 1,
            "through_segment": segments[-1],
            "batches_folded": old["batches_folded"] + batch_count,
            "runs": old["runs"] + [run_entry],
            "entities": entities,
            "stats": stats,
        }

    def _delete_segments(self, segments: List[int]) -> None:
        first = True
        for index in segments:
            path = os.path.join(self.directory, SEGMENT_PATTERN % index)
            if os.path.exists(path):
                os.unlink(path)
            if first and self.crash_hook is not None:
                self.crash_hook("mid_delete")
            first = False
            sidecar = os.path.join(self.directory, SIDECAR_PATTERN % index)
            if os.path.exists(sidecar):
                os.unlink(sidecar)
        _fsync_dir(self.directory)


def _manifest_entry(anchor: CompactionAnchor) -> Dict[str, Any]:
    return {
        "base": anchor.base,
        "time": anchor.time,
        "state": anchor.state,
        "state_bytes": anchor.size,
    }


def compact_journal_in_memory(
    journal: EventJournal, *, min_fold_events: int = 1
) -> int:
    """Fold a WAL-less journal's covered prefix into a memory cold store.

    Replicas compact independently of the primary: every event a replica
    holds came from a committed (fsynced-on-primary) batch, so the fold
    boundary is simply each entity's newest cadence snapshot.  Folded
    events move from live ``Event`` objects into encoded columnar blobs;
    reads stitch them back exactly like the disk cold tier.  Returns the
    number of events folded.
    """
    anchors: Dict[str, CompactionAnchor] = {}
    per_entity: "OrderedDict[str, List[Event]]" = OrderedDict()
    for entity_id, log in journal._logs.items():
        if not log.snapshots:
            continue
        base, time, state, size = log.snapshots[-1]
        if base <= log.base_seq:
            continue
        folded = log.events[: base - log.base_seq]
        if len(folded) < min_fold_events:
            continue
        anchors[entity_id] = CompactionAnchor(base, time, state, False, size)
        per_entity[entity_id] = list(folded)
    if not anchors:
        return 0
    if journal.cold_store is None:
        journal.cold_store = ColdStore(None)
    store: ColdStore = journal.cold_store
    entry, _blob_bytes = store.write_run(per_entity)
    manifest = dict(store.manifest)
    manifest["run"] = manifest["run"] + 1
    manifest["runs"] = manifest["runs"] + [entry]
    entities = dict(manifest["entities"])
    for entity_id, anchor in anchors.items():
        entities[entity_id] = _manifest_entry(anchor)
    manifest["entities"] = entities
    store.commit_manifest(manifest)
    journal.truncate_compacted(anchors)
    return sum(len(events) for events in per_entity.values())


class ShardedCompactor:
    """One compactor per shard, driven from platform housekeeping.

    ``batch_limit_for(shard)`` supplies the per-shard replication
    watermark callable (None when the shard is unreplicated).  After a
    failover promotes a replica into a fresh WAL directory, ``rebind``
    re-attaches that shard's compactor to the new journal and directory.
    """

    def __init__(
        self,
        journals: List[EventJournal],
        directories: List[str],
        *,
        min_sealed_segments: int = 2,
        batch_limit_for: Optional[Callable[[int], Optional[Callable[[], Optional[int]]]]] = None,
        crash_hook: Optional[Callable[[str], None]] = None,
    ) -> None:
        if len(journals) != len(directories):
            raise ValueError("journals and directories must align")
        self.min_sealed_segments = min_sealed_segments
        self.batch_limit_for = batch_limit_for
        self.crash_hook = crash_hook
        self.compactors: List[SegmentCompactor] = [
            self._make(shard, journal, directory)
            for shard, (journal, directory) in enumerate(zip(journals, directories))
        ]

    def _make(self, shard: int, journal: EventJournal, directory: str) -> SegmentCompactor:
        batch_limit = self.batch_limit_for(shard) if self.batch_limit_for is not None else None
        return SegmentCompactor(
            journal,
            directory,
            min_sealed_segments=self.min_sealed_segments,
            batch_limit=batch_limit,
            crash_hook=self.crash_hook,
        )

    def rebind(self, shard: int, journal: EventJournal, directory: str) -> None:
        """Point one shard's compactor at a promoted journal/WAL dir."""
        self.compactors[shard] = self._make(shard, journal, directory)

    def run_once(self) -> List[Dict[str, Any]]:
        return [compactor.run_once() for compactor in self.compactors]

    def stats_report(self) -> Dict[str, int]:
        merged: Dict[str, int] = {name: 0 for name in CompactionStats.__dataclass_fields__}
        for compactor in self.compactors:
            for name in merged:
                merged[name] += getattr(compactor.stats, name)
        return merged
