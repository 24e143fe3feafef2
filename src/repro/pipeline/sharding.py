"""Keyspace sharding for the journal layer (the Bigtable tablet split).

Production Censys horizontally partitions its Bigtable rows so that
ingestion, reindexing, and serving scale independently of any single
tablet server.  This module is that partitioning for the reproduction:

* :class:`ShardMap` — the deterministic entity-id → shard routing
  function (CRC-32 of the id, stable across processes and runs; Python's
  randomized ``hash()`` is deliberately avoided);
* :class:`ShardedJournal` — N per-shard :class:`EventJournal` instances
  behind the journal's read/write interface, with per-shard write-ahead
  log directories (``shard-00/``, ``shard-01/``, …) when durable.

Merge-order guarantees
----------------------

``entity_ids()`` iterates entities in **global first-append order**
regardless of the shard count: the wrapper records the (entity, shard)
assignment in an insertion-ordered dict at first append.  With
``shards=1`` every call delegates to the single underlying journal, so
behaviour — iteration order, stats objects, storage accounting — is
bit-identical to an unsharded :class:`EventJournal`.  After
:meth:`ShardedJournal.recover` the global order degrades to shard-major
(shard 0's entities first, each shard in its own append order): per-shard
WALs carry no cross-shard ordering, and no caller depends on one.
"""

from __future__ import annotations

import os
import threading
import zlib
from contextlib import ExitStack, contextmanager
from dataclasses import fields as dataclass_fields
from typing import Any, Dict, Iterator, List, Optional

from repro.pipeline.events import Event
from repro.pipeline.journal import EventJournal, JournalStats
from repro.pipeline.state import new_entity_state

__all__ = ["ShardMap", "ShardRecoveryError", "ShardedJournal"]


class ShardRecoveryError(RuntimeError):
    """One shard's WAL replay failed; carries *which* shard and directory.

    The executor backends collapse worker errors into a single re-raise,
    which used to lose the failing shard's identity — operators need to
    know which shard's WAL is torn before deciding what to rebuild.
    """

    def __init__(self, shard: int, directory: str, cause: BaseException) -> None:
        super().__init__(
            f"shard {shard:02d} recovery failed in {directory}: "
            f"{type(cause).__name__}: {cause}"
        )
        self.shard = shard
        self.directory = directory


def _recover_shard(
    shard: int, directory: str, snapshot_every: int, kwargs: Dict[str, Any]
) -> EventJournal:
    """One shard's WAL replay — the work unit of parallel recovery."""
    try:
        return EventJournal.recover(directory, snapshot_every=snapshot_every, **kwargs)
    except ShardRecoveryError:
        raise
    except Exception as exc:
        raise ShardRecoveryError(shard, directory, exc) from exc


class ShardMap:
    """Deterministic keyspace partitioning: entity id → shard number."""

    def __init__(self, shards: int = 1) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.shards = shards

    def shard_of(self, entity_id: str) -> int:
        if self.shards == 1:
            return 0
        return zlib.crc32(entity_id.encode("utf-8")) % self.shards

    def shard_dir(self, directory: str, shard: int) -> str:
        """The per-shard WAL directory under a durable root."""
        return os.path.join(directory, f"shard-{shard:02d}")

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"ShardMap(shards={self.shards})"


def _merge_stats(per_shard: List[JournalStats]) -> JournalStats:
    merged = JournalStats()
    for stats in per_shard:
        for f in dataclass_fields(JournalStats):
            setattr(merged, f.name, getattr(merged, f.name) + getattr(stats, f.name))
    return merged


class ShardedJournal:
    """N per-shard event journals behind the single-journal interface.

    Every method routes by ``shard_map.shard_of(entity_id)``; whole-map
    operations merge across shards in the stable order described in the
    module docstring.  The write side, certificate processor, read side,
    and serving layer all take either journal flavour interchangeably.
    """

    def __init__(
        self,
        shard_map: Optional[ShardMap] = None,
        journals: Optional[List[EventJournal]] = None,
        snapshot_every: int = 32,
    ) -> None:
        self.shard_map = shard_map or ShardMap(1)
        if journals is None:
            journals = [EventJournal(snapshot_every=snapshot_every) for _ in range(self.shard_map.shards)]
        if len(journals) != self.shard_map.shards:
            raise ValueError(
                f"expected {self.shard_map.shards} journals, got {len(journals)}"
            )
        self.journals = journals
        #: Close-once guard (see :meth:`close`).
        self._closed = False
        self._close_lock = threading.Lock()
        #: entity id -> shard, insertion-ordered by first append: the global
        #: iteration order that keeps entity_ids() shard-count invariant.
        self._entity_shard: Dict[str, int] = {}
        for shard, journal in enumerate(self.journals):
            for entity_id in journal.entity_ids():
                self._entity_shard[entity_id] = shard

    # -- construction helpers ---------------------------------------------

    @classmethod
    def durable(
        cls,
        directory: str,
        shard_map: Optional[ShardMap] = None,
        snapshot_every: int = 32,
        *,
        segment_max_records: int = 128,
        group_commit_events: int = 1,
        group_commit_bytes: Optional[int] = None,
        fault_injector: Optional[Any] = None,
    ) -> "ShardedJournal":
        """A sharded journal whose shards each own a WAL subdirectory."""
        from repro.pipeline.wal import WriteAheadLog

        shard_map = shard_map or ShardMap(1)
        journals = []
        for shard in range(shard_map.shards):
            wal = WriteAheadLog(
                shard_map.shard_dir(directory, shard),
                segment_max_records=segment_max_records,
                group_commit_events=group_commit_events,
                group_commit_bytes=group_commit_bytes,
            )
            journals.append(
                EventJournal(snapshot_every=snapshot_every, wal=wal, fault_injector=fault_injector)
            )
        return cls(shard_map, journals)

    @classmethod
    def recover(
        cls,
        directory: str,
        shard_map: Optional[ShardMap] = None,
        snapshot_every: int = 32,
        executor: Optional[Any] = None,
        **kwargs: Any,
    ) -> "ShardedJournal":
        """Recover every shard from its WAL subdirectory after a crash.

        Each shard recovers independently through
        :meth:`EventJournal.recover`, so the per-shard durable prefix is
        byte-identical to the pre-crash shard; the global entity order is
        rebuilt shard-major (see the module docstring).

        ``executor`` (a :class:`~repro.pipeline.executors.ShardExecutor`)
        replays the per-shard WALs concurrently; every shard replay is the
        same call as in serial recovery, so the recovered journal is
        identical regardless of backend.
        """
        shard_map = shard_map or ShardMap(1)
        dirs = [shard_map.shard_dir(directory, shard) for shard in range(shard_map.shards)]
        if executor is None:
            journals = [
                _recover_shard(shard, d, snapshot_every, dict(kwargs))
                for shard, d in enumerate(dirs)
            ]
        else:
            journals = executor.map_shards(
                _recover_shard,
                [(shard, d, snapshot_every, dict(kwargs)) for shard, d in enumerate(dirs)],
            )
        return cls(shard_map, journals)

    # -- routing -----------------------------------------------------------

    @property
    def shards(self) -> int:
        return self.shard_map.shards

    def shard_of(self, entity_id: str) -> int:
        return self.shard_map.shard_of(entity_id)

    def journal_for(self, entity_id: str) -> EventJournal:
        return self.journals[self.shard_map.shard_of(entity_id)]

    # -- write path --------------------------------------------------------

    def append(self, entity_id: str, time: float, kind: str, payload: Dict[str, Any]) -> Event:
        shard = self.shard_map.shard_of(entity_id)
        event = self.journals[shard].append(entity_id, time, kind, payload)
        if entity_id not in self._entity_shard:
            self._entity_shard[entity_id] = shard
        return event

    def transaction(self):
        """One atomic batch per shard (an observation only touches one)."""
        if len(self.journals) == 1:
            return self.journals[0].transaction()
        return self._transaction_all()

    @contextmanager
    def _transaction_all(self):
        with ExitStack() as stack:
            for journal in self.journals:
                stack.enter_context(journal.transaction())
            yield self

    def flush_commit_windows(self) -> None:
        """Force every shard's open group-commit window durable."""
        for journal in self.journals:
            journal.flush_commit_window()

    def replace_shard(self, shard: int, journal: EventJournal) -> None:
        """Swap one shard's journal (failover promoted a replica into it).

        The global iteration order is pruned, not rebuilt: entities the
        promoted journal never saw (writes the dead primary lost) drop out
        in place, everything else keeps its first-append position — so a
        lossless failover leaves ``entity_ids()`` unchanged.
        """
        if not 0 <= shard < len(self.journals):
            raise IndexError(f"shard {shard} out of range (0..{len(self.journals) - 1})")
        self.journals[shard] = journal
        self._entity_shard = {
            entity_id: owner
            for entity_id, owner in self._entity_shard.items()
            if owner != shard or journal.has_entity(entity_id)
        }
        for entity_id in journal.entity_ids():
            if entity_id not in self._entity_shard:
                self._entity_shard[entity_id] = shard

    def close(self) -> None:
        """Close every shard exactly once.

        Idempotent and safe to call while a parallel executor still holds
        references to the shard journals: the first close wins (per-shard
        closes are themselves close-once), repeat calls return immediately,
        and a concurrent caller blocks until the winning close finishes
        rather than racing the WAL flush.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            for journal in self.journals:
                journal.close()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- read path ---------------------------------------------------------

    def reconstruct(self, entity_id: str, at: Optional[float] = None) -> Dict[str, Any]:
        return self.journal_for(entity_id).reconstruct(entity_id, at=at)

    def peek_current(self, entity_id: str) -> Dict[str, Any]:
        shard = self._entity_shard.get(entity_id)
        if shard is None:
            return new_entity_state(entity_id)
        return self.journals[shard].peek_current(entity_id)

    def events_for(self, entity_id: str, since_seq: int = 0) -> List[Event]:
        return self.journal_for(entity_id).events_for(entity_id, since_seq=since_seq)

    def entity_ids(self) -> Iterator[str]:
        return iter(self._entity_shard.keys())

    def has_entity(self, entity_id: str) -> bool:
        return entity_id in self._entity_shard

    def event_count(self, entity_id: str) -> int:
        return self.journal_for(entity_id).event_count(entity_id)

    def entity_version(self, entity_id: str) -> int:
        """Per-entity version counter (routes to the owning shard)."""
        return self.journal_for(entity_id).entity_version(entity_id)

    def __len__(self) -> int:
        return len(self._entity_shard)

    # -- accounting --------------------------------------------------------

    @property
    def stats(self) -> JournalStats:
        """Aggregate storage accounting (the live object for one shard)."""
        if len(self.journals) == 1:
            return self.journals[0].stats
        return _merge_stats([j.stats for j in self.journals])

    @property
    def version(self) -> int:
        """Whole-map monotonic version (sum of per-shard counters)."""
        return sum(journal.version for journal in self.journals)

    def shard_versions(self) -> List[int]:
        """Per-shard monotonic write counters (append/evict bumps one)."""
        return [journal.version for journal in self.journals]

    def events_per_shard(self) -> List[int]:
        return [journal.stats.events for journal in self.journals]

    def entities_per_shard(self) -> List[int]:
        return [len(journal) for journal in self.journals]

    def storage_report(self) -> Dict[str, Any]:
        """Merged per-tier storage accounting plus per-shard segment counts."""
        per_shard = [journal.storage_report() for journal in self.journals]
        merged: Dict[str, Any] = {
            key: sum(report[key] for report in per_shard) for key in per_shard[0]
        }
        merged["segments_per_shard"] = [report["segments"] for report in per_shard]
        return merged
