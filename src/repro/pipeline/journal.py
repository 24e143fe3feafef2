"""The Bigtable-style event journal with snapshots and storage tiering.

Rows are keyed by (entity id, monotonic sequence number).  The journal
stores delta-encoded events plus periodic state snapshots; reconstruction
finds the latest snapshot at or before the queried time and replays the
events after it.  Snapshot-or-older rows migrate from the (simulated) SSD
tier to the HDD tier, mirroring how Censys keeps only the hot tail of each
entity's history on fast storage.

Durability (opt-in): constructing the journal with a
:class:`~repro.pipeline.wal.WriteAheadLog` makes every committed batch of
events durable before control returns to the caller, and
:meth:`EventJournal.recover` rebuilds byte-identical state from the WAL
directory after a crash — snapshots are *regenerated* during replay (the
snapshot cadence is deterministic in the event sequence) and cross-checked
against the sidecar copies written before the crash.  The default
(``wal=None``) keeps the original purely in-memory behaviour.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.pipeline.events import Event
from repro.pipeline.state import apply_event, new_entity_state, snapshot_size, snapshot_state
from repro.pipeline.wal import WalCorruptionError, WriteAheadLog

__all__ = ["JournalStats", "EventJournal", "CompactionAnchor", "CommittedBatch"]


@dataclass(slots=True)
class JournalStats:
    """Storage accounting (bytes are modeled, not measured)."""

    events: int = 0
    snapshots: int = 0
    event_bytes: int = 0
    snapshot_bytes: int = 0
    ssd_bytes: int = 0
    hdd_bytes: int = 0
    #: Bytes aged out of the hot/warm tiers into columnar cold storage.
    cold_bytes: int = 0
    #: Events (and their modeled bytes) still held as Python objects in RAM.
    #: Compaction folds the covered prefix out of RAM, so these plateau
    #: under a long run while ``events``/``event_bytes`` keep growing.
    resident_events: int = 0
    resident_event_bytes: int = 0
    replayed_events: int = 0
    #: Durability accounting (all zero for in-memory journals).
    wal_batches: int = 0
    wal_events: int = 0
    recovered_events: int = 0
    torn_records_discarded: int = 0

    @property
    def total_bytes(self) -> int:
        return self.event_bytes + self.snapshot_bytes


@dataclass(slots=True)
class _EntityLog:
    """Per-entity journal rows."""

    events: List[Event] = field(default_factory=list)
    #: (seq_after, time, state, size) rows; a snapshot at index i reflects
    #: all events with seq < seq_after.  ``size`` is its modeled bytes,
    #: computed once when the snapshot is taken.  States are never mutated.
    snapshots: List[Tuple[int, float, Dict[str, Any], int]] = field(default_factory=list)
    next_seq: int = 0
    #: Sequence numbers at or below this are on the HDD tier.
    hdd_watermark: int = -1
    #: Materialized current state (the hot serving row).
    current: Optional[Dict[str, Any]] = None
    #: Sequence number of ``events[0]``.  Non-zero once compaction has
    #: folded the covered prefix out of RAM; ``events[i]`` then has
    #: sequence ``base_seq + i`` and older history lives in the cold tier.
    base_seq: int = 0


class CompactionAnchor(NamedTuple):
    """The fold boundary for one entity.

    ``base`` is the first sequence number that stays in RAM; the anchor
    snapshot reflects every event with seq < base.  ``synthetic`` anchors
    were materialized by the compactor (no cadence snapshot landed exactly
    on the fold boundary) and are accounted as fresh snapshots.  ``size``
    is the anchor snapshot's modeled bytes (a cadence anchor's recorded
    size; a synthetic anchor's computed once by the compactor).
    """

    base: int
    time: float
    state: Dict[str, Any]
    synthetic: bool
    size: int


class CommittedBatch(NamedTuple):
    """One durably committed batch, as handed to ``commit_listener``.

    ``body`` is the WAL record body exactly as framed into the segment and
    ``sizes`` each event's ``encoded_size()`` in order, so a consumer
    (replication) neither re-serialises nor re-sizes what was committed.
    """

    events: List[Dict[str, Any]]
    body: bytes
    sizes: Tuple[int, ...]


class EventJournal:
    """Append-only journal of entity events plus snapshot management."""

    def __init__(
        self,
        snapshot_every: int = 32,
        wal: Optional[WriteAheadLog] = None,
        fault_injector: Optional[Any] = None,
    ) -> None:
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self.snapshot_every = snapshot_every
        self._logs: Dict[str, _EntityLog] = {}
        self.stats = JournalStats()
        #: Monotonic per-journal (= per-shard) write counter.  Bumped by
        #: every append — including eviction SERVICE_REMOVED events and
        #: recovery replay — so read-path caches can validate entries
        #: against "has this shard changed at all?".
        self.version = 0
        self.wal = wal
        #: Columnar cold tier holding history folded out of RAM (attached by
        #: the compactor, or by ``recover`` when a manifest exists).
        self.cold_store: Optional[Any] = None
        #: Interned ``{"key": ...}`` heartbeat payloads: re-observations that
        #: change nothing share one payload dict per service key instead of
        #: allocating a fresh dict per event.
        self._hb_payloads: Dict[str, Dict[str, Any]] = {}
        #: Consulted at commit time for simulated crash points (chaos tests).
        self.fault_injector = fault_injector
        #: Called with each durably committed batch as a
        #: :class:`CommittedBatch` (the replication shipping hook; see
        #: pipeline/replication.py).
        #: Fires only after the batch is fsynced — never for torn or
        #: "before"-mode crashed batches — so whatever the listener ships
        #: is exactly the durable prefix.
        self.commit_listener: Optional[Any] = None
        self._txn_depth = 0
        #: Version bumps deferred inside an open transaction (batched ingest
        #: amortizes the per-event bump into one adjustment at commit).
        self._deferred_version = 0
        self._pending_events: List[Event] = []
        self._pending_snapshots: List[Tuple[str, int, float, Dict[str, Any]]] = []
        #: Events durably committed to the WAL (1-based crash-point index).
        self._durable_events = 0
        self._replaying = False
        #: Close-once guard: ``close`` is idempotent and safe to call while
        #: a parallel executor still holds a reference to this shard.
        self._closed = False
        self._close_lock = threading.Lock()

    @property
    def durable(self) -> bool:
        return self.wal is not None

    # -- write path -------------------------------------------------------

    def append(self, entity_id: str, time: float, kind: str, payload: Dict[str, Any]) -> Event:
        """Journal one event; snapshots and tiering happen automatically.

        With a WAL attached the event is staged and becomes durable at the
        enclosing :meth:`transaction` commit (or immediately when no
        transaction is open).
        """
        log = self._logs.setdefault(entity_id, _EntityLog())
        event = Event(
            entity_id=entity_id,
            seq=log.next_seq,
            time=time,
            kind=kind,
            payload=self._intern_payload(kind, payload),
        )
        if log.events:
            head_time = log.events[-1].time
        elif log.snapshots:
            head_time = log.snapshots[-1][1]
        else:
            head_time = None
        if head_time is not None and time < head_time:
            raise ValueError(
                f"event time {time} precedes journal head {head_time} for {entity_id}"
            )
        self._apply_append(log, event)
        if self.wal is not None and not self._replaying:
            self._pending_events.append(event)
            if self._txn_depth == 0:
                self._commit()
        return event

    def _intern_payload(self, kind: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        """The payload an event keeps: a bare ``{"key": ...}`` heartbeat is
        shared per service key, anything else is kept as given.  Live
        appends and WAL replay both go through here."""
        if kind == "service_refreshed" and isinstance(payload, dict) and tuple(payload) == ("key",):
            return self._hb_payloads.setdefault(payload["key"], payload)
        return payload

    def _apply_append(self, log: _EntityLog, event: Event) -> None:
        """In-memory bookkeeping shared by live appends and WAL replay."""
        log.events.append(event)
        log.next_seq += 1
        if self._txn_depth > 0 and self.wal is not None and not self._replaying:
            # One version adjustment per committed run, not per event.  The
            # final value is identical (commit always follows); only the
            # number of integer bumps changes.
            self._deferred_version += 1
        else:
            self.version += 1
        if log.current is None:
            log.current = new_entity_state(event.entity_id)
        apply_event(log.current, event)
        size = event.encoded_size()
        self.stats.events += 1
        self.stats.event_bytes += size
        self.stats.ssd_bytes += size
        self.stats.resident_events += 1
        self.stats.resident_event_bytes += size
        if log.next_seq % self.snapshot_every == 0:
            self._snapshot(event.entity_id, log, event.time)

    def _snapshot(self, entity_id: str, log: _EntityLog, time: float) -> None:
        state = log.current if log.current is not None else new_entity_state(entity_id)
        snapped = snapshot_state(state)
        size = snapshot_size(state)
        log.snapshots.append((log.next_seq, time, snapped, size))
        self.stats.snapshots += 1
        self.stats.snapshot_bytes += size
        # Everything covered by the snapshot moves to the HDD tier.
        migrated = [e for e in log.events if log.hdd_watermark < e.seq < log.next_seq]
        moved = sum(e.encoded_size() for e in migrated)
        self.stats.ssd_bytes -= moved
        self.stats.hdd_bytes += moved
        self.stats.ssd_bytes += size  # the fresh snapshot itself stays hot
        log.hdd_watermark = log.next_seq - 1
        if self.wal is not None and not self._replaying:
            # The row's own copy: snapshot states are never mutated.
            self._pending_snapshots.append((entity_id, log.next_seq, time, snapped))

    # -- durability --------------------------------------------------------

    @contextmanager
    def transaction(self):
        """Group appends into one atomic WAL batch (one observation's
        events, or everything one ingest chunk or tick phase appends here).

        No-op for in-memory journals.  Nested transactions commit once, at
        the outermost exit.
        """
        self._txn_depth += 1
        try:
            yield self
        finally:
            self._txn_depth -= 1
            if self._txn_depth == 0 and self.wal is not None:
                self._commit()

    def _commit(self) -> None:
        """Flush staged events as one durable batch; fires simulated crashes."""
        self.version += self._deferred_version
        self._deferred_version = 0
        if not self._pending_events:
            self._pending_snapshots.clear()
            return
        events = [
            {"e": e.entity_id, "s": e.seq, "tm": e.time, "k": e.kind, "p": dict(e.payload)}
            for e in self._pending_events
        ]
        lo = self._durable_events + 1
        hi = self._durable_events + len(events)
        crash = None
        if self.fault_injector is not None:
            crash = self.fault_injector.crash_for_range(lo, hi)
        if crash is not None and crash.mode == "before":
            self._pending_events.clear()
            self._pending_snapshots.clear()
            self.fault_injector.raise_crash(crash)
        # Encoded before the append: the durability callback below may fire
        # inside it, and the listener ships these exact bytes.
        body = self.wal.encode_batch(events)
        if crash is not None and crash.mode == "torn":
            self.wal.append_body(body, torn=True)
            self._pending_events.clear()
            self._pending_snapshots.clear()
            self.fault_injector.raise_crash(crash)

        # Unstage before the append, so even a simulated crash firing inside
        # it (e.g. a mid-group-commit fsync hook) leaves nothing staged: the
        # record already hit the segment file, and a teardown close()
        # re-committing the batch would write a duplicate.  Staged snapshots
        # go with it — recovery regenerates them from replay.
        staged, self._pending_events = self._pending_events, []
        snapshots, self._pending_snapshots = self._pending_snapshots, []

        def _on_durable() -> None:
            # Fires right after the covering fsync (synchronously for the
            # default one-event window).  The listener is read at fire time:
            # a primary detached before its window flushed must not ship.
            listener = self.commit_listener
            if listener is not None:
                listener(CommittedBatch(events, body, tuple(e.encoded_size() for e in staged)))

        self.wal.append_body(body, on_durable=_on_durable)
        self._durable_events = hi
        self.stats.wal_batches += 1
        self.stats.wal_events += len(events)
        for entity_id, seq_after, time, state in snapshots:
            self.wal.append_snapshot(entity_id, seq_after, time, state)
        if crash is not None:  # mode == "after": the batch IS durable
            self.wal.flush_commit_window()
            self.fault_injector.raise_crash(crash)

    def flush_commit_window(self) -> None:
        """Make every WAL-appended batch durable now (no-op when clean).

        The platform calls this after each ingestion phase — before
        replication ships or subscriptions deliver — so "acked" always
        implies "fsynced" regardless of the group-commit window size.
        """
        if self.wal is not None:
            self.wal.flush_commit_window()

    def close(self) -> None:
        """Flush and close the WAL (in-memory journals: no-op).

        Idempotent: the first call flushes and closes, every later call is
        a no-op — so shard owners and executors holding the same reference
        can both shut down without double-flushing a closed WAL.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            if self.wal is not None:
                if self._pending_events:
                    self._commit()
                self.wal.close()

    @classmethod
    def recover(
        cls,
        directory: str,
        snapshot_every: int = 32,
        *,
        segment_max_records: int = 128,
        group_commit_events: int = 1,
        group_commit_bytes: Optional[int] = None,
        fault_injector: Optional[Any] = None,
        verify_snapshots: bool = True,
        reopen: bool = True,
    ) -> "EventJournal":
        """Rebuild a journal from its WAL directory after a crash.

        Replays every committed batch in order through the exact same
        bookkeeping as live appends, so reconstructed state — events,
        regenerated snapshots, materialized current rows, and storage
        accounting — is byte-identical to the pre-crash journal's durable
        prefix.  A torn final record is detected, counted in
        ``stats.torn_records_discarded``, and truncated away; corruption
        anywhere else raises :class:`~repro.pipeline.wal.WalCorruptionError`.

        One streaming pass: each WAL record is decoded once and replayed as
        it is read.  With ``reopen`` (default) the WAL is reopened for
        appending so the pipeline can resume where the durable prefix ends;
        it takes the directory layout from that same pass.

        When a compaction manifest exists in the directory, recovery is
        *snapshot-anchored*: each entity starts from its verified anchor
        snapshot, segments covered by the manifest are skipped entirely,
        and only the live tail is replayed — O(anchors + tail) instead of
        O(history).  The folded history stays reachable through the
        attached cold store.
        """
        from repro.pipeline.compaction import ColdStore

        store = ColdStore.open(directory)
        start_after = store.through_segment if store is not None else -1
        journal = cls(snapshot_every=snapshot_every)
        base_batches = 0
        base_events = 0
        if store is not None:
            journal.cold_store = store
            journal._seed_from_manifest(store)
            base_batches = journal.stats.wal_batches
            base_events = journal.stats.wal_events

        def replay(batch: List[Dict[str, Any]]) -> None:
            for raw in batch:
                entity_id, kind = raw["e"], raw["k"]
                log = journal._logs.setdefault(entity_id, _EntityLog())
                if raw["s"] != log.next_seq:
                    raise WalCorruptionError(
                        f"{directory}: sequence gap for {entity_id}: "
                        f"expected {log.next_seq}, found {raw['s']}"
                    )
                event = Event(
                    entity_id=entity_id,
                    seq=raw["s"],
                    time=raw["tm"],
                    kind=kind,
                    payload=journal._intern_payload(kind, raw["p"]),
                )
                journal._apply_append(log, event)
                journal.stats.recovered_events += 1

        # One pass: each batch is replayed as it is read, and the reopened
        # WAL takes its layout from the same pass.
        journal._replaying = True
        try:
            scan = WriteAheadLog.scan(
                directory, truncate_torn=True, start_after=start_after, on_batch=replay
            )
        finally:
            journal._replaying = False
        if verify_snapshots:
            journal._verify_sidecar_snapshots(directory, scan.snapshots)
        journal.stats.torn_records_discarded = scan.torn_discarded
        journal._durable_events = base_events + journal.stats.recovered_events
        journal.stats.wal_events = base_events + journal.stats.recovered_events
        journal.stats.wal_batches = base_batches + scan.batch_count
        journal.fault_injector = fault_injector
        if reopen:
            journal.wal = WriteAheadLog(
                directory,
                segment_max_records=segment_max_records,
                group_commit_events=group_commit_events,
                group_commit_bytes=group_commit_bytes,
                start_after=start_after,
                layout=scan,
            )
        return journal

    def _seed_from_manifest(self, store: Any) -> None:
        """Seed per-entity anchors and storage accounting from a manifest.

        After seeding, replaying the live tail through ``_apply_append``
        lands on exactly the stats and per-entity state the pre-crash
        journal held — the manifest records the folded prefix's
        contribution so seeded + tail == full history.
        """
        for entity_id, ent in store.manifest["entities"].items():
            base, time, state = ent["base"], ent["time"], ent["state"]
            # The anchor row shares the manifest's decoded state, as live
            # compaction shares ``anchor.state`` (snapshot states are never
            # mutated); only the serving row needs a private copy.
            self._logs[entity_id] = _EntityLog(
                events=[],
                snapshots=[(base, time, state, ent["state_bytes"])],
                next_seq=base,
                hdd_watermark=base - 1,
                current=snapshot_state(state),
                base_seq=base,
            )
        stats = store.manifest["stats"]
        self.stats.events = stats["events"]
        self.stats.event_bytes = stats["event_bytes"]
        self.stats.snapshots = stats["snapshots"]
        self.stats.snapshot_bytes = stats["snapshot_bytes"]
        self.stats.ssd_bytes = stats["ssd_bytes"]
        self.stats.hdd_bytes = stats["hdd_bytes"]
        self.stats.cold_bytes = stats["cold_bytes"]
        self.stats.wal_batches = stats["wal_batches"]
        self.stats.wal_events = stats["wal_events"]
        # Every folded event was once an append; the version counter must
        # end equal to the live journal's after the tail replays.
        self.version = stats["events"]

    def _verify_sidecar_snapshots(self, directory: str, snapshots: List[Dict[str, Any]]) -> None:
        """Cross-check sidecar snapshots against the regenerated ones."""
        regenerated: Dict[Tuple[str, int], Dict[str, Any]] = {}
        for entity_id, log in self._logs.items():
            for seq_after, _time, state, _size in log.snapshots:
                regenerated[(entity_id, seq_after)] = state
        for snap in snapshots:
            key = (snap["entity"], snap["seq_after"])
            log = self._logs.get(snap["entity"])
            if log is not None and snap["seq_after"] < log.base_seq:
                # Superseded by the compaction anchor: the snapshot's rows
                # were folded into the cold tier and its state is covered by
                # the (already verified) anchor — nothing left to cross-check.
                continue
            expected = regenerated.get(key)
            if expected is None:
                # Sidecar outlived its batch (crash between batch fsync and
                # sidecar write cannot happen — sidecars are written after —
                # but a torn-batch crash can leave a sidecar-less batch, never
                # the reverse).  An unmatched sidecar means corruption.
                raise WalCorruptionError(
                    f"{directory}: sidecar snapshot for {key} has no matching journal state"
                )
            if expected != snap["state"]:
                raise WalCorruptionError(
                    f"{directory}: sidecar snapshot for {key} diverges from replayed state"
                )

    @classmethod
    def from_events(cls, events: List[Event], snapshot_every: int = 32) -> "EventJournal":
        """Build an in-memory journal by replaying ``events`` in order.

        The reference for recovery tests: ``recover(dir)`` must equal
        ``from_events(durable_prefix)``.
        """
        journal = cls(snapshot_every=snapshot_every)
        for event in events:
            log = journal._logs.setdefault(event.entity_id, _EntityLog())
            if event.seq != log.next_seq:
                raise ValueError(f"sequence gap for {event.entity_id} at seq {event.seq}")
            journal._apply_append(log, event)
        return journal

    # -- compaction support ------------------------------------------------

    def anchor_state(self, entity_id: str, base: int) -> Dict[str, Any]:
        """State reflecting exactly the events with seq < ``base``.

        Used by the compactor to materialize synthetic anchors: start from
        the newest resident snapshot at or below ``base`` and replay the
        resident events up to it.  Deterministic, so the live value equals
        what recovery reads back from the manifest (modulo JSON flavor).
        """
        log = self._logs[entity_id]
        usable = [s for s in log.snapshots if s[0] <= base]
        if usable:
            start, _, snapped, _ = usable[-1]
            state = snapshot_state(snapped)
        else:
            start = log.base_seq
            state = new_entity_state(entity_id)
        for event in log.events[start - log.base_seq : base - log.base_seq]:
            apply_event(state, event)
        return state

    def truncate_compacted(self, anchors: Dict[str, CompactionAnchor]) -> None:
        """Fold each entity's prefix below its anchor out of RAM.

        Storage accounting moves the folded events (whatever tier they were
        on) and every superseded snapshot to the cold tier; a synthetic
        anchor is accounted as a fresh hot snapshot.  ``version`` and
        per-entity versions are deliberately untouched — compaction changes
        where history lives, never what reads return — so read-path caches
        stay valid.
        """
        for entity_id, anchor in anchors.items():
            log = self._logs[entity_id]
            cut = anchor.base - log.base_seq
            if cut < 0 or cut > len(log.events):
                raise ValueError(
                    f"anchor {anchor.base} outside resident range for {entity_id}"
                )
            folded = log.events[:cut]
            folded_bytes = 0
            for event in folded:
                size = event.encoded_size()
                folded_bytes += size
                if event.seq <= log.hdd_watermark:
                    self.stats.hdd_bytes -= size
                else:
                    self.stats.ssd_bytes -= size
            self.stats.cold_bytes += folded_bytes
            self.stats.resident_events -= len(folded)
            self.stats.resident_event_bytes -= folded_bytes
            kept = [s for s in log.snapshots if s[0] > anchor.base]
            cadence_anchor = next(
                (s for s in log.snapshots if s[0] == anchor.base), None
            )
            for seq_after, _time, _state, size in log.snapshots:
                if seq_after >= anchor.base:
                    continue
                self.stats.ssd_bytes -= size
                self.stats.cold_bytes += size
            if cadence_anchor is not None:
                head = [cadence_anchor]
            else:
                # ``anchor_state`` built a private state; the row takes it
                # as is (snapshot states are never mutated).
                head = [(anchor.base, anchor.time, anchor.state, anchor.size)]
                self.stats.snapshots += 1
                self.stats.snapshot_bytes += anchor.size
                self.stats.ssd_bytes += anchor.size
            log.snapshots = head + kept
            log.events = log.events[cut:]
            log.base_seq = anchor.base
            log.hdd_watermark = max(log.hdd_watermark, anchor.base - 1)
            if log.current is None:
                log.current = snapshot_state(head[0][2])

    def storage_report(self) -> Dict[str, Any]:
        """Per-journal storage block for ``traffic_report()["storage"]``."""
        wal = self.wal
        return {
            "segments": wal.stats.segments if wal is not None else 0,
            "wal_records": wal.stats.records if wal is not None else 0,
            "wal_bytes_written": wal.stats.bytes_written if wal is not None else 0,
            "heartbeats_encoded": wal.stats.heartbeats_encoded if wal is not None else 0,
            "live_bytes": self.stats.ssd_bytes,
            "superseded_bytes": self.stats.hdd_bytes,
            "cold_bytes": self.stats.cold_bytes,
            "total_bytes": self.stats.total_bytes,
            "resident_events": self.stats.resident_events,
            "resident_event_bytes": self.stats.resident_event_bytes,
        }

    # -- read path ---------------------------------------------------------

    def reconstruct(self, entity_id: str, at: Optional[float] = None) -> Dict[str, Any]:
        """Entity state at time ``at`` (None: current state).

        Finds the newest snapshot not after ``at`` and replays subsequent
        events with time <= ``at``.  A query older than every resident
        snapshot time-travels into the cold tier: the folded prefix is
        replayed from zero (compaction anchors guarantee the cold run holds
        every event older than the oldest resident snapshot).
        """
        log = self._logs.get(entity_id)
        if log is None:
            return new_entity_state(entity_id)
        if at is None:
            # Fast path: the materialized serving row.
            return snapshot_state(log.current) if log.current is not None else new_entity_state(entity_id)
        usable = [s for s in log.snapshots if s[1] <= at]
        if usable:
            snap_seq, _, snapped, _ = usable[-1]
            state = snapshot_state(snapped)
            for event in log.events[snap_seq - log.base_seq :]:
                if event.time > at:
                    break
                apply_event(state, event)
                self.stats.replayed_events += 1
            return state
        state = new_entity_state(entity_id)
        if log.base_seq > 0:
            # ``at`` precedes the anchor snapshot: every event with
            # time <= at is in the cold tier.
            for event in self._cold_events(entity_id):
                if event.time > at:
                    break
                apply_event(state, event)
                self.stats.replayed_events += 1
            return state
        for event in log.events:
            if event.time > at:
                break
            apply_event(state, event)
            self.stats.replayed_events += 1
        return state

    def peek_current(self, entity_id: str) -> Dict[str, Any]:
        """The live materialized state, WITHOUT copying.

        Write-side hot path only; callers must treat the result as
        read-only and mutate exclusively through :meth:`append`.
        """
        log = self._logs.get(entity_id)
        if log is None or log.current is None:
            return new_entity_state(entity_id)
        return log.current

    def events_for(self, entity_id: str, since_seq: int = 0) -> List[Event]:
        """Events with seq >= ``since_seq``, stitching cold history back in
        when the request reaches below the compaction fold boundary."""
        log = self._logs.get(entity_id)
        if log is None:
            return []
        if since_seq >= log.base_seq:
            return log.events[since_seq - log.base_seq :]
        cold = self._cold_events(entity_id)
        return cold[since_seq:] + log.events

    def _cold_events(self, entity_id: str) -> List[Event]:
        """The folded event prefix (seqs [0, base_seq)) from the cold tier."""
        if self.cold_store is None:
            return []
        return self.cold_store.events_for(entity_id)

    def entity_ids(self) -> Iterator[str]:
        return iter(self._logs.keys())

    def has_entity(self, entity_id: str) -> bool:
        return entity_id in self._logs

    def event_count(self, entity_id: str) -> int:
        log = self._logs.get(entity_id)
        return log.next_seq if log else 0

    def entity_version(self, entity_id: str) -> int:
        """Monotonic per-entity version: bumps on every append (including
        evictions), never otherwise — the read-path cache validity key.

        Identical to :meth:`event_count` today, but named for its contract:
        two calls returning the same version guarantee the entity's
        reconstructed state is unchanged.
        """
        log = self._logs.get(entity_id)
        return log.next_seq if log else 0

    def __len__(self) -> int:
        return len(self._logs)
