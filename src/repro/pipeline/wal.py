"""Write-ahead log: append-only segments with length+checksum framing.

The durable backend for :class:`~repro.pipeline.journal.EventJournal`.
Events are committed in per-observation batches — one framed record per
batch — so an observation is either fully durable or not at all.  Records
use explicit framing so recovery can distinguish a *torn* final record
(the process died mid-write: discard it and keep the valid prefix) from
corruption in the middle of a segment (refuse to recover silently).

Record framing, one record per line::

    +----------+----------+------------------+----+
    | length:8 | crc32:8  | body (JSON, utf8)| \\n |
    +----------+----------+------------------+----+

``length`` and ``crc32`` are fixed-width lowercase hex of the body's byte
length and CRC-32.  Bodies are compact JSON with no embedded newlines, so
a segment doubles as a (framed) JSONL file readable with standard tools.

Segments rotate every ``segment_max_records`` records.  Snapshots are not
interleaved with events; they go to per-segment *sidecar* files
(``segment-00000.snap``) with the same framing, used at recovery time to
cross-check the deterministically regenerated snapshots.

Durability is governed by a *group-commit window*: every ``append_batch``
still reaches the OS page cache immediately (``flush``), but the fsync
that makes it durable may be deferred until ``group_commit_events``
records or ``group_commit_bytes`` bytes have accumulated since the last
sync.  Callers that need to act only once a batch is durable pass
``on_durable`` — the callback queues until the covering fsync and fires
immediately after it, so replication ship-eligibility and subscription
delivery stay anchored to real durability even when many batches share
one sync.

Two storage optimizations live at this layer:

* **streaming decode** — :func:`decode_segment` reads one frame at a
  time, so recovery's peak buffer is bounded by the largest single record
  (plus one read chunk), not by the segment size;
* **heartbeat encoding** — a ``service_refreshed`` event whose payload
  carries nothing beyond the service key (and delivery sequence) is the
  overwhelmingly common "re-observed, nothing changed" case.  On the wire
  it collapses to a compact positional ``{"hb": [...]}`` form and is
  expanded back to the canonical event dict on read, so every consumer
  above this layer (recovery, replication, compaction) sees identical
  event dicts while the segment bytes shrink.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "WalCorruptionError",
    "WalStats",
    "WriteAheadLog",
    "encode_record",
    "decode_segment",
    "encode_batch_events",
    "decode_batch_events",
]

_HEADER_LEN = 16  # 8 hex chars length + 8 hex chars crc32
_READ_CHUNK = 1 << 16
SEGMENT_PATTERN = "segment-%05d.log"
SIDECAR_PATTERN = "segment-%05d.snap"
_HB_KIND = "service_refreshed"


class WalCorruptionError(Exception):
    """A non-final WAL record failed validation (not a torn tail)."""


@dataclass(slots=True)
class WalStats:
    """Durable-storage accounting for one WAL instance."""

    records: int = 0
    segments: int = 0
    bytes_written: int = 0
    fsyncs: int = 0
    torn_writes: int = 0
    #: Re-observation events collapsed to the compact heartbeat wire form.
    heartbeats_encoded: int = 0


def encode_record(body: Dict[str, Any]) -> bytes:
    """Frame one record: fixed hex header (length+crc32) + JSON body + newline."""
    data = json.dumps(body, separators=(",", ":"), sort_keys=True, default=str).encode("utf-8")
    header = f"{len(data):08x}{zlib.crc32(data) & 0xFFFFFFFF:08x}".encode("ascii")
    return header + data + b"\n"


def _rest_is_tail(fh, offset: int) -> bool:
    """True when no record boundary exists at or after ``offset``.

    Streaming equivalent of "no newline in the rest of the file except
    possibly its very last byte": a bad record is only a torn tail when
    nothing after it could parse as another record start.
    """
    fh.seek(offset)
    pending_newline = False
    while True:
        chunk = fh.read(_READ_CHUNK)
        if not chunk:
            # A newline as the file's final byte does not start a new record.
            return True
        if pending_newline:
            return False
        if b"\n" in chunk[:-1]:
            return False
        pending_newline = chunk.endswith(b"\n")


def decode_segment(
    path: str,
    *,
    tolerate_torn_tail: bool,
    on_record: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> Tuple[List[Dict[str, Any]], int, int]:
    """Read one segment file; returns (records, valid_bytes, torn_discarded).

    Records are decoded one frame at a time, so peak memory is bounded by
    the largest single record rather than the segment size.  When
    ``on_record`` is given, each decoded record is passed to it and the
    returned record list is empty (fully streaming mode).

    A framing violation at the very end of the file is a torn write and is
    discarded (when ``tolerate_torn_tail``); anywhere else it is corruption.
    """
    records: List[Dict[str, Any]] = []
    sink = records.append if on_record is None else on_record
    with open(path, "rb") as fh:
        offset = 0
        while True:
            header = fh.read(_HEADER_LEN)
            if not header:
                return records, offset, 0
            torn_reason: Optional[str] = None
            tail_known: Optional[bool] = None
            if len(header) < _HEADER_LEN:
                torn_reason = "truncated header"
                tail_known = b"\n" not in header[:-1]
            else:
                try:
                    length = int(header[:8], 16)
                    crc = int(header[8:], 16)
                except ValueError:
                    torn_reason = "unparseable header"
                else:
                    framed = fh.read(length + 1)
                    if len(framed) < length + 1:
                        torn_reason = "truncated body"
                        tail_known = True
                    else:
                        body = framed[:-1]
                        if framed[-1:] != b"\n":
                            torn_reason = "missing record terminator"
                        elif (zlib.crc32(body) & 0xFFFFFFFF) != crc:
                            torn_reason = "checksum mismatch"
                        else:
                            try:
                                sink(json.loads(body.decode("utf-8")))
                            except (UnicodeDecodeError, json.JSONDecodeError):
                                torn_reason = "undecodable body"
            if torn_reason is None:
                offset = fh.tell()
                continue
            # The bad record must be the last thing in the file to count as torn.
            if tolerate_torn_tail and (tail_known if tail_known is not None else _rest_is_tail(fh, offset)):
                return records, offset, 1
            raise WalCorruptionError(f"{path}: {torn_reason} at byte {offset}")


def encode_batch_events(events: List[Dict[str, Any]]) -> Tuple[List[Dict[str, Any]], int]:
    """Compact-encode heartbeat events for the wire; returns (encoded, count).

    A ``service_refreshed`` event whose payload is just the service key plus
    an optional delivery sequence collapses to a positional
    ``{"hb": [entity, seq, time, key(, obs_seq)]}`` form.  Everything else
    passes through untouched.
    """
    out: List[Dict[str, Any]] = []
    heartbeats = 0
    for ev in events:
        payload = ev.get("p")
        if (
            ev.get("k") == _HB_KIND
            and isinstance(payload, dict)
            and "key" in payload
            and set(payload) <= {"key", "obs_seq"}
        ):
            hb = [ev["e"], ev["s"], ev["tm"], payload["key"]]
            if "obs_seq" in payload:
                hb.append(payload["obs_seq"])
            out.append({"hb": hb})
            heartbeats += 1
        else:
            out.append(ev)
    return out, heartbeats


def decode_batch_events(events: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Expand compact heartbeat entries back to canonical event dicts."""
    out: List[Dict[str, Any]] = []
    for ev in events:
        hb = ev.get("hb")
        if hb is None:
            out.append(ev)
            continue
        entity, seq, tm, key = hb[:4]
        payload: Dict[str, Any] = {"key": key}
        if len(hb) > 4:
            payload["obs_seq"] = hb[4]
        out.append({"e": entity, "s": seq, "tm": tm, "k": _HB_KIND, "p": payload})
    return out


@dataclass(slots=True)
class _ScanResult:
    """Everything recovery needs from one pass over a WAL directory."""

    batches: List[Dict[str, Any]] = field(default_factory=list)
    snapshots: List[Dict[str, Any]] = field(default_factory=list)
    torn_discarded: int = 0
    segment_indices: List[int] = field(default_factory=list)
    #: Records in the highest segment (so an appender can resume rotation).
    tail_records: int = 0


class WriteAheadLog:
    """Append-only framed segment files plus snapshot sidecars.

    Opening a directory that already holds segments resumes appending to the
    highest one, truncating a torn tail first (crash-consistent resume).
    """

    def __init__(
        self,
        directory: str,
        *,
        segment_max_records: int = 128,
        group_commit_events: int = 1,
        group_commit_bytes: Optional[int] = None,
        start_after: int = -1,
        crash_hook: Optional[Callable[[str], None]] = None,
    ) -> None:
        if segment_max_records < 1:
            raise ValueError("segment_max_records must be >= 1")
        if group_commit_events < 1:
            raise ValueError("group_commit_events must be >= 1")
        if group_commit_bytes is not None and group_commit_bytes < 1:
            raise ValueError("group_commit_bytes must be >= 1")
        self.directory = str(directory)
        self.segment_max_records = segment_max_records
        #: Commit window: fsync after this many records...
        self.group_commit_events = group_commit_events
        #: ...or after this many bytes, whichever fills first (None = events only).
        self.group_commit_bytes = group_commit_bytes
        self.stats = WalStats()
        self._fh = None
        self._sidecar_fh = None
        self._records_since_fsync = 0
        self._window_bytes = 0
        #: Durability callbacks queued behind the open commit window.
        self._pending_durable: List[Callable[[], None]] = []
        #: Chaos instrumentation: called with "pre_fsync" just before the
        #: covering fsync of a commit window and "post_fsync" right after
        #: its durability callbacks drain.  A hook that raises simulates a
        #: crash at that exact point (close-path fsyncs never fire it).
        self.crash_hook = crash_hook
        os.makedirs(self.directory, exist_ok=True)
        scan = self.scan(self.directory, truncate_torn=True, start_after=start_after)
        self._segment_index = scan.segment_indices[-1] if scan.segment_indices else start_after + 1
        self._segment_records = scan.tail_records
        self.stats.segments = max(1, len(scan.segment_indices))
        self._open_segment()

    # -- file management ---------------------------------------------------

    def _segment_path(self, index: int) -> str:
        return os.path.join(self.directory, SEGMENT_PATTERN % index)

    def _sidecar_path(self, index: int) -> str:
        return os.path.join(self.directory, SIDECAR_PATTERN % index)

    def _open_segment(self) -> None:
        self._close_handles()
        self._fh = open(self._segment_path(self._segment_index), "ab")
        self._sidecar_fh = open(self._sidecar_path(self._segment_index), "ab")

    def _close_handles(self) -> None:
        for fh in (self._fh, self._sidecar_fh):
            if fh is not None and not fh.closed:
                fh.flush()
                os.fsync(fh.fileno())
                self.stats.fsyncs += 1
                fh.close()
        self._fh = self._sidecar_fh = None
        # The segment fsync above covered any open commit window.
        self._records_since_fsync = 0
        self._window_bytes = 0
        self._drain_durable()

    def _maybe_rotate(self) -> None:
        if self._segment_records >= self.segment_max_records:
            self._segment_index += 1
            self._segment_records = 0
            self.stats.segments += 1
            self._open_segment()

    def close(self) -> None:
        self._close_handles()

    # -- append path -------------------------------------------------------

    def _drain_durable(self) -> None:
        """Fire the durability callbacks covered by the fsync that just ran."""
        pending, self._pending_durable = self._pending_durable, []
        for callback in pending:
            callback()

    def _fsync_now(self) -> None:
        """One real fsync on the open segment; exact-counts and drains."""
        if self.crash_hook is not None:
            self.crash_hook("pre_fsync")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.stats.fsyncs += 1
        self._records_since_fsync = 0
        self._window_bytes = 0
        self._drain_durable()
        if self.crash_hook is not None:
            self.crash_hook("post_fsync")

    def flush_commit_window(self) -> None:
        """Force the open group-commit window durable (no-op when clean)."""
        if self._fh is None or self._fh.closed:
            return
        if self._records_since_fsync == 0 and not self._pending_durable:
            return
        self._fsync_now()

    def append_batch(
        self,
        events: List[Dict[str, Any]],
        *,
        torn: bool = False,
        on_durable: Optional[Callable[[], None]] = None,
    ) -> None:
        """Append one committed batch (one framed record) to the window.

        The record is flushed to the OS immediately but only fsynced when
        the group-commit window fills (or :meth:`flush_commit_window` is
        called); ``on_durable`` fires right after the covering fsync.  With
        the default window of one event this degenerates to fsync-per-batch
        with the callback firing synchronously — the reference behavior.

        ``torn=True`` simulates a crash mid-write: only a prefix of the framed
        record reaches the file and no newline terminator is written.  The
        caller is expected to raise a simulated crash immediately after.  The
        fsync taken to persist the torn prefix also covers (and so makes
        durable) any complete batches pending in the window.
        """
        self._maybe_rotate()
        encoded, heartbeats = encode_batch_events(events)
        record = encode_record({"t": "batch", "events": encoded})
        self.stats.heartbeats_encoded += heartbeats
        if torn:
            cut = max(_HEADER_LEN + 1, len(record) // 2)
            self._fh.write(record[:cut])
            self.stats.torn_writes += 1
            self._fsync_now()  # torn batch itself queued no callback
            return
        self._fh.write(record)
        self._fh.flush()
        self._segment_records += 1
        self.stats.records += 1
        self.stats.bytes_written += len(record)
        self._records_since_fsync += 1
        self._window_bytes += len(record)
        if on_durable is not None:
            self._pending_durable.append(on_durable)
        if self._records_since_fsync >= self.group_commit_events or (
            self.group_commit_bytes is not None
            and self._window_bytes >= self.group_commit_bytes
        ):
            self._fsync_now()

    def append_snapshot(
        self, entity_id: str, seq_after: int, time: float, state: Dict[str, Any]
    ) -> None:
        """Write one snapshot record to the current segment's sidecar."""
        record = encode_record(
            {"t": "snap", "entity": entity_id, "seq_after": seq_after, "time": time, "state": state}
        )
        self._sidecar_fh.write(record)
        self._sidecar_fh.flush()
        self.stats.bytes_written += len(record)

    # -- recovery scan -----------------------------------------------------

    def sealed_segments(self) -> List[int]:
        """Indices of on-disk segments no longer open for append (sorted)."""
        indices = sorted(
            int(name[len("segment-") : -len(".log")])
            for name in os.listdir(self.directory)
            if name.startswith("segment-") and name.endswith(".log")
        )
        return [index for index in indices if index < self._segment_index]

    # -- recovery scan -----------------------------------------------------

    @staticmethod
    def scan(directory: str, *, truncate_torn: bool = False, start_after: int = -1) -> _ScanResult:
        """Read every segment (and sidecar) in order, validating framing.

        Segments with index <= ``start_after`` are skipped entirely — the
        compaction manifest covers them, and leftover files below that index
        (a crash between manifest swap and segment deletion) must not be
        replayed twice.

        A torn record is tolerated only at the tail of the *final* segment
        (or final sidecar); with ``truncate_torn`` the file is truncated back
        to its last valid record so appending can resume safely.  Any other
        framing violation raises :class:`WalCorruptionError`.
        """
        result = _ScanResult()
        if not os.path.isdir(directory):
            return result
        indices = sorted(
            int(name[len("segment-") : -len(".log")])
            for name in os.listdir(directory)
            if name.startswith("segment-") and name.endswith(".log")
        )
        indices = [index for index in indices if index > start_after]
        result.segment_indices = indices
        for pos, index in enumerate(indices):
            is_last = pos == len(indices) - 1
            path = os.path.join(directory, SEGMENT_PATTERN % index)
            records, valid_bytes, torn = decode_segment(path, tolerate_torn_tail=is_last)
            if torn and truncate_torn:
                with open(path, "ab") as fh:
                    fh.truncate(valid_bytes)
            result.torn_discarded += torn
            for record in records:
                if record.get("t") != "batch":
                    raise WalCorruptionError(f"{path}: unexpected record type {record.get('t')!r}")
                record["events"] = decode_batch_events(record["events"])
                result.batches.append(record)
            if is_last:
                result.tail_records = len(records)
            sidecar = os.path.join(directory, SIDECAR_PATTERN % index)
            if os.path.exists(sidecar):
                snaps, valid_bytes, torn = decode_segment(sidecar, tolerate_torn_tail=is_last)
                if torn and truncate_torn:
                    with open(sidecar, "ab") as fh:
                        fh.truncate(valid_bytes)
                result.torn_discarded += torn
                for record in snaps:
                    if record.get("t") != "snap":
                        raise WalCorruptionError(
                            f"{sidecar}: unexpected record type {record.get('t')!r}"
                        )
                    result.snapshots.append(record)
        return result
