"""Per-shard journal replication with committed watermarks and failover.

Production Censys keeps its map available through node loss: every
Bigtable tablet (here: a journal shard) has replicas that trail the
primary by a bounded amount, and a failed primary is replaced by its
most-advanced replica without losing acknowledged writes.  This module is
that availability layer for the reproduction:

* :class:`ReplicationBatch` — one committed WAL batch as shipped on the
  wire (the replication unit; ``seq`` is a 1-based per-shard batch index
  that keeps counting across failovers);
* :class:`ReplicaState` — one replica journal: applies batches strictly
  in order, buffers out-of-order arrivals, drops duplicates, and retains
  the applied batch log so it can be promoted;
* :class:`ShardReplicator` — the primary-side shipper: hooks the
  journal's commit path, retransmits unacknowledged batches to each
  replica over its own seeded :class:`~repro.pipeline.delivery.FaultyChannel`
  link, and exposes per-replica lag plus the **committed watermark**;
* :class:`ReplicatedShard` — one shard's primary + replicas + epoch
  bookkeeping with ``kill_primary()`` / ``fail_over()`` (the chaos
  harness's unit of destruction);
* :class:`ReplicationManager` — the platform-level wrapper over a
  :class:`~repro.pipeline.sharding.ShardedJournal`: one replicator per
  shard, a pump driven each tick, bounded-staleness replica reads, and
  whole-shard failover.

Watermark semantics
-------------------

Batch ``b`` is *acknowledged* once at least ``ack_replicas`` replicas
have applied it; the watermark is the highest batch index for which that
holds (equivalently the ``ack_replicas``-th largest replica position).
Writes are acked to the upstream source only up to the watermark, and the
watermark never exceeds the most-advanced replica's position — so failing
over to the most-advanced replica can never lose an acked write, for any
``ack_replicas >= 1``.  An unreplicated journal (``factor 0``) degenerates
to ``watermark == batches shipped`` (the WAL fsync is the ack), which is
exactly the pre-replication pipeline.

Staleness bound for replica reads
---------------------------------

A replica may serve a read only when (a) the whole-shard version gap
``primary.version - replica.version`` is within ``max_lag_events`` and
(b) the requested entity's version counter (PR 4) is *equal* on replica
and primary — equality makes the replica's answer bit-identical to the
primary's, so read-your-writes holds unconditionally: a write bumps the
entity version, and until the replica has applied it the read falls back
to the primary.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union

from repro.pipeline.delivery import FaultyChannel
from repro.pipeline.events import Event
from repro.pipeline.faults import FaultInjector, FaultPlan
from repro.pipeline.journal import CommittedBatch, EventJournal, _EntityLog
from repro.pipeline.wal import WriteAheadLog, decode_batch_body

__all__ = [
    "ReplicationBatch",
    "ReplicationError",
    "ReplicaState",
    "BatchLog",
    "ShardReplicator",
    "ReplicatedShard",
    "ReplicationManager",
]


class ReplicationError(RuntimeError):
    """Replication protocol violation (sequence gap, no replica, ...)."""


class ReplicationBatch(NamedTuple):
    """One committed WAL batch on the replication wire (log shipping).

    ``seq`` is the 1-based per-shard batch index (monotonic across
    failovers); the attribute name also makes a batch a valid
    :class:`~repro.pipeline.delivery.FaultyChannel` work item.  ``body``
    is the WAL record body the primary framed into its segment, and
    ``events`` are that body decoded by the decoder recovery uses, so a
    replica applies exactly what WAL recovery would replay.  ``sizes`` are
    the primary's ``encoded_size()`` of each event, in order.
    ``obs_high`` is the highest delivery sequence stamped into the batch
    (None when the batch carries no sequenced observation).
    """

    seq: int
    events: Tuple[Dict[str, Any], ...]
    obs_high: Optional[int]
    sizes: Tuple[int, ...]
    body: bytes

    @classmethod
    def decode(cls, seq: int, body: bytes, sizes: Tuple[int, ...]) -> "ReplicationBatch":
        """The batch carried by one WAL record body."""
        events = tuple(decode_batch_body(body))
        obs_high: Optional[int] = None
        for raw in events:
            obs_seq = raw["p"].get("obs_seq")
            if obs_seq is not None and (obs_high is None or obs_seq > obs_high):
                obs_high = obs_seq
        return cls(seq, events, obs_high, sizes, body)


def _apply_batch(journal: EventJournal, batch: ReplicationBatch, who: str) -> None:
    """Append one shipped batch through the live-append bookkeeping; each
    event takes the size its primary computed instead of re-encoding."""
    for raw, size in zip(batch.events, batch.sizes, strict=True):
        event = Event(
            entity_id=raw["e"], seq=raw["s"], time=raw["tm"], kind=raw["k"], payload=raw["p"]
        ).adopt_size(size)
        log = journal._logs.setdefault(event.entity_id, _EntityLog())
        if event.seq != log.next_seq:
            raise ReplicationError(
                f"{who}: sequence gap for {event.entity_id}: "
                f"expected {log.next_seq}, found {event.seq} in batch {batch.seq}"
            )
        journal._apply_append(log, event)


def _link_injector(
    plan: Optional[FaultPlan], shard_id: int, replica_id: int, epoch: int
) -> Optional[FaultInjector]:
    """A decorrelated injector for one primary→replica link.

    Links derive per-link seeds from the plan so every link has its own
    deterministic drop/dup/delay/reorder schedule (same plan, different
    decisions), replayable across runs.
    """
    if plan is None:
        return None
    seed = plan.seed + 7919 * (shard_id + 1) + 104729 * (replica_id + 1) + 15485863 * epoch
    return FaultInjector(dataclasses.replace(plan, seed=seed, crash_points=()))


class BatchLog:
    """An append-only batch log whose old prefix freezes to record bytes.

    Replication must retain every batch — promotion tail-replay and fresh
    replica catch-up both read from batch 1 — but keeping millions of
    live ``ReplicationBatch`` objects resident defeats journal compaction.
    ``freeze`` drops a committed prefix's decoded events and keeps only
    the WAL record bodies they came from (plus the primary's sizes);
    slicing decodes frozen entries on demand with the same decoder, and
    the steady-state pump path only ever slices past the frozen boundary.
    """

    def __init__(self, batches: Optional[Union["BatchLog", Iterable[ReplicationBatch]]] = None):
        if isinstance(batches, BatchLog):
            #: (body, sizes) of batch ``i + 1`` at index ``i``.
            self._frozen: List[Tuple[bytes, Tuple[int, ...]]] = list(batches._frozen)
            self._tail: List[ReplicationBatch] = list(batches._tail)
        else:
            self._frozen = []
            self._tail = list(batches or [])
        #: Frozen entries decoded back to live batches (catch-up/promotion).
        self.decodes = 0

    def __len__(self) -> int:
        return len(self._frozen) + len(self._tail)

    @property
    def frozen_count(self) -> int:
        return len(self._frozen)

    def frozen_bytes(self) -> int:
        return sum(len(body) for body, _sizes in self._frozen)

    def append(self, batch: ReplicationBatch) -> None:
        self._tail.append(batch)

    def _decode(self, index: int) -> ReplicationBatch:
        self.decodes += 1
        body, sizes = self._frozen[index]
        return ReplicationBatch.decode(index + 1, body, sizes)

    def __iter__(self) -> Iterator[ReplicationBatch]:
        for index in range(len(self._frozen)):
            yield self._decode(index)
        yield from self._tail

    def __getitem__(self, item: Union[int, slice]) -> Any:
        n_frozen = len(self._frozen)
        if isinstance(item, slice):
            start, stop, step = item.indices(len(self))
            if step != 1:
                raise ValueError("BatchLog slices must be contiguous")
            return [
                self._decode(i) if i < n_frozen else self._tail[i - n_frozen]
                for i in range(start, stop)
            ]
        if item < 0:
            item += len(self)
        if item < n_frozen:
            return self._decode(item)
        return self._tail[item - n_frozen]

    def freeze(self, through_seq: int) -> int:
        """Freeze batches with seq <= ``through_seq``; returns newly frozen.

        Batch at index i always carries seq i+1 (seqs are contiguous from
        1 within a lineage), so the boundary is a simple index cut.
        """
        target = min(through_seq, len(self))
        count = target - len(self._frozen)
        if count <= 0:
            return 0
        self._frozen.extend((batch.body, batch.sizes) for batch in self._tail[:count])
        del self._tail[:count]
        return count


class ReplicaState:
    """One replica journal: strictly-ordered batch application."""

    def __init__(self, replica_id: int, snapshot_every: int, channel: FaultyChannel) -> None:
        self.replica_id = replica_id
        self.journal = EventJournal(snapshot_every=snapshot_every)
        self.channel = channel
        #: The next batch seq this replica needs (applied prefix = next-1).
        self.next_seq = 1
        self._pending: Dict[int, ReplicationBatch] = {}
        #: Applied batches, retained for promotion tail-replay and for
        #: re-shipping to a fresh replacement replica.
        self.batch_log = BatchLog()
        self.applied_events = 0
        self.duplicates_dropped = 0

    @property
    def acked_seq(self) -> int:
        """Highest batch this replica has applied (its replication position)."""
        return self.next_seq - 1

    def offer(self, batch: ReplicationBatch) -> int:
        """One arrival off the wire; returns how many batches it unlocked."""
        if batch.seq < self.next_seq or batch.seq in self._pending:
            self.duplicates_dropped += 1
            return 0
        self._pending[batch.seq] = batch
        applied = 0
        while self.next_seq in self._pending:
            self._apply(self._pending.pop(self.next_seq))
            self.next_seq += 1
            applied += 1
        return applied

    def _apply(self, batch: ReplicationBatch) -> None:
        _apply_batch(self.journal, batch, f"replica {self.replica_id}")
        self.batch_log.append(batch)
        self.applied_events += len(batch.events)

    def fence(self, epoch_channel: FaultyChannel) -> None:
        """Epoch fence at failover: the old primary is dead, so drop its
        buffered out-of-order batches (their seqs will be reused by the new
        primary with different content) and start a fresh link."""
        self._pending.clear()
        self.channel = epoch_channel

    def compact(self, *, min_fold_events: int = 1) -> int:
        """Bound this replica's memory: fold the journal's applied history
        into its in-memory cold tier and freeze the applied batch prefix.

        Only the applied prefix (<= acked_seq) freezes — those batches are
        durable on the primary by definition of the ack, and promotion can
        decode them back if this replica is ever chosen.  Returns events
        folded out of the resident journal.
        """
        from repro.pipeline.compaction import compact_journal_in_memory

        folded = compact_journal_in_memory(self.journal, min_fold_events=min_fold_events)
        self.batch_log.freeze(self.acked_seq)
        return folded


class ShardReplicator:
    """Ships one shard primary's committed batches to its replicas."""

    def __init__(
        self,
        primary: EventJournal,
        replication_factor: int = 0,
        plan: Optional[FaultPlan] = None,
        *,
        shard_id: int = 0,
        epoch: int = 0,
        ack_replicas: Optional[int] = None,
        replicas: Optional[List[ReplicaState]] = None,
        log: Optional[Union[BatchLog, List[ReplicationBatch]]] = None,
    ) -> None:
        if replication_factor < 0:
            raise ValueError("replication_factor must be >= 0")
        self.primary = primary
        self.plan = plan
        self.shard_id = shard_id
        self.epoch = epoch
        #: Every batch committed by (this lineage of) the primary, by seq.
        self.log = BatchLog(log)
        if replicas is None:
            replicas = [
                ReplicaState(
                    rid,
                    primary.snapshot_every,
                    FaultyChannel(_link_injector(plan, shard_id, rid, epoch)),
                )
                for rid in range(replication_factor)
            ]
        self.replicas = replicas
        if ack_replicas is None:
            ack_replicas = len(self.replicas)
        if self.replicas and not 1 <= ack_replicas <= len(self.replicas):
            raise ValueError(
                f"ack_replicas must be in [1, {len(self.replicas)}], got {ack_replicas}"
            )
        self.ack_replicas = ack_replicas if self.replicas else 0
        #: obs-seq high-water per batch prefix: _obs_cum[i] = max obs_seq
        #: stamped anywhere in batches 1..i+1 (-1 = none yet).
        self._obs_cum: List[int] = []
        cum = -1
        for batch in self.log:
            if batch.obs_high is not None and batch.obs_high > cum:
                cum = batch.obs_high
            self._obs_cum.append(cum)
        primary.commit_listener = self._on_commit

    # -- primary side ------------------------------------------------------

    def _on_commit(self, committed: CommittedBatch) -> None:
        """Journal commit hook: record the durable batch for shipping."""
        batch = ReplicationBatch.decode(len(self.log) + 1, committed.body, committed.sizes)
        self.log.append(batch)
        obs_high = batch.obs_high
        prev = self._obs_cum[-1] if self._obs_cum else -1
        self._obs_cum.append(max(prev, obs_high) if obs_high is not None else prev)

    def pump(self, rounds: int = 1) -> int:
        """Run delivery rounds on every replica link; returns batches applied.

        Each round retransmits everything past the replica's position
        (at-least-once: duplicates and out-of-order arrivals are handled
        by the replica), exactly like the ingest source's redelivery loop.
        """
        applied = 0
        for _ in range(max(1, rounds)):
            for replica in self.replicas:
                pending = self.log[replica.acked_seq:]
                for batch in replica.channel.transmit(pending):
                    applied += replica.offer(batch)
        return applied

    # -- watermarks and lag ------------------------------------------------

    def watermark(self) -> int:
        """Highest batch seq applied by >= ``ack_replicas`` replicas.

        With no replicas the WAL fsync itself is the acknowledgement, so
        the watermark is simply every batch shipped.
        """
        if not self.replicas:
            return len(self.log)
        positions = sorted((r.acked_seq for r in self.replicas), reverse=True)
        return positions[self.ack_replicas - 1]

    def obs_watermark(self) -> int:
        """Highest delivery sequence covered by the watermark (-1 = none).

        Acking the upstream source through this value guarantees every
        acked observation survives failover to the most-advanced replica.
        """
        wm = self.watermark()
        return self._obs_cum[wm - 1] if wm > 0 else -1

    def most_advanced(self) -> ReplicaState:
        if not self.replicas:
            raise ReplicationError(f"shard {self.shard_id}: no replicas to promote")
        return max(self.replicas, key=lambda r: r.acked_seq)

    def lag_batches(self) -> List[int]:
        return [len(self.log) - r.acked_seq for r in self.replicas]

    def lag_events(self) -> List[int]:
        return [self.primary.version - r.journal.version for r in self.replicas]

    def freeze_log(self) -> int:
        """Freeze the primary-side batch log through the commit watermark.

        Batches past the watermark stay live — the pump path slices them
        every round and must not pay a decode per round.  Returns batches
        newly frozen.
        """
        return self.log.freeze(self.watermark())

    def report(self) -> Dict[str, Any]:
        return {
            "replicas": len(self.replicas),
            "epoch": self.epoch,
            "batches": len(self.log),
            "frozen_batches": self.log.frozen_count,
            "watermark": self.watermark(),
            "lag_batches": self.lag_batches(),
            "lag_events": self.lag_events(),
            "duplicates_dropped": [r.duplicates_dropped for r in self.replicas],
        }

    def detach(self) -> None:
        """Stop shipping (the primary is being killed or replaced)."""
        if self.primary.commit_listener is self._on_commit:
            self.primary.commit_listener = None


def _rebuild_journal(batch_log: BatchLog, snapshot_every: int) -> EventJournal:
    """Replay every retained batch into a fresh in-memory journal."""
    journal = EventJournal(snapshot_every=snapshot_every)
    for batch in batch_log:
        _apply_batch(journal, batch, "rebuild")
    return journal


def promote_replica(
    replica: ReplicaState,
    wal_dir: str,
    *,
    segment_max_records: int = 128,
    group_commit_events: int = 1,
    fault_injector: Optional[Any] = None,
) -> EventJournal:
    """Turn a replica journal into a durable primary: replay its retained
    batch tail into a fresh WAL directory and attach the log for appends.

    The replica applied every batch through the same bookkeeping as live
    appends, so after promotion the journal is byte-identical to a primary
    that had journaled exactly the replicated prefix — including the
    regenerated snapshot cadence.

    A replica that compacted in place (folded prefix + in-memory cold
    tier) is first rebuilt by full batch replay: the batch log retains
    every batch (frozen ones decode back), and the rebuilt journal is the
    exact uncompacted journal, so the WAL it seeds is identical to the
    never-compacted promotion.  Promotion is rare; steady-state replica
    memory stays bounded.
    """
    journal = replica.journal
    if any(log.base_seq for log in journal._logs.values()):
        journal = _rebuild_journal(replica.batch_log, journal.snapshot_every)
        replica.journal = journal
    wal = WriteAheadLog(
        wal_dir,
        segment_max_records=segment_max_records,
        group_commit_events=group_commit_events,
    )
    for batch in replica.batch_log:
        wal.append_batch([dict(raw) for raw in batch.events])
    # With a group-commit window (group_commit_events > 1) the replay tail
    # may not be fsynced yet; the promoted journal is about to claim the
    # whole batch log as durable, so make it true before the claim.
    wal.flush_commit_window()
    journal.wal = wal
    journal._durable_events = replica.applied_events
    journal.stats.wal_batches = len(replica.batch_log)
    journal.stats.wal_events = replica.applied_events
    journal.fault_injector = fault_injector
    return journal


def fail_over(
    replicator: ShardReplicator,
    wal_dir: str,
    *,
    segment_max_records: int = 128,
    group_commit_events: int = 1,
    fault_injector: Optional[Any] = None,
) -> Tuple[EventJournal, ShardReplicator]:
    """Promote the most-advanced replica and rebuild the replication group.

    Returns ``(promoted journal, new replicator)``.  Surviving replicas
    keep their applied prefix (always a prefix of the promoted replica's
    log, since batches are applied strictly in order and per-seq content
    is identical) and get epoch-fenced channels; a fresh empty replica
    replaces the promoted one and catches up through normal retransmission.
    """
    replicator.detach()
    best = replicator.most_advanced()
    epoch = replicator.epoch + 1
    promoted = promote_replica(
        best,
        wal_dir,
        segment_max_records=segment_max_records,
        group_commit_events=group_commit_events,
        fault_injector=fault_injector,
    )
    survivors: List[ReplicaState] = []
    for replica in replicator.replicas:
        if replica is best:
            continue
        replica.fence(
            FaultyChannel(
                _link_injector(replicator.plan, replicator.shard_id, replica.replica_id, epoch)
            )
        )
        survivors.append(replica)
    if replicator.replicas:
        fresh = ReplicaState(
            best.replica_id,
            promoted.snapshot_every,
            FaultyChannel(
                _link_injector(replicator.plan, replicator.shard_id, best.replica_id, epoch)
            ),
        )
        survivors.append(fresh)
    new_replicator = ShardReplicator(
        promoted,
        plan=replicator.plan,
        shard_id=replicator.shard_id,
        epoch=epoch,
        ack_replicas=replicator.ack_replicas or None,
        replicas=survivors,
        log=best.batch_log,
    )
    return promoted, new_replicator


class ReplicatedShard:
    """One shard's primary + replicas + epoch bookkeeping.

    The chaos harness's unit: owns a directory of per-epoch WAL
    subdirectories (``epoch-00/`` for the original primary, ``epoch-01/``
    for the first promotion, ...) so a killed primary's WAL is abandoned
    in place — total node loss — and the promoted replica starts a clean
    durable lineage.
    """

    def __init__(
        self,
        directory: str,
        *,
        replication_factor: int = 2,
        plan: Optional[FaultPlan] = None,
        snapshot_every: int = 32,
        segment_max_records: int = 128,
        group_commit_events: int = 1,
        ack_replicas: Optional[int] = None,
        fault_injector: Optional[Any] = None,
        shard_id: int = 0,
    ) -> None:
        self.directory = directory
        self.shard_id = shard_id
        self.segment_max_records = segment_max_records
        self.group_commit_events = group_commit_events
        self.epoch = 0
        self.fail_overs = 0
        self.primary = EventJournal(
            snapshot_every=snapshot_every,
            wal=WriteAheadLog(
                self.epoch_dir(0),
                segment_max_records=segment_max_records,
                group_commit_events=group_commit_events,
            ),
            fault_injector=fault_injector,
        )
        self.replicator = ShardReplicator(
            self.primary,
            replication_factor,
            plan,
            shard_id=shard_id,
            ack_replicas=ack_replicas,
        )

    def epoch_dir(self, epoch: int) -> str:
        return os.path.join(self.directory, f"epoch-{epoch:02d}")

    def pump(self, rounds: int = 1) -> int:
        return self.replicator.pump(rounds)

    def obs_watermark(self) -> int:
        return self.replicator.obs_watermark()

    def kill_primary(self) -> None:
        """Total node loss: the primary's memory and WAL dir are abandoned.

        The listener detaches *before* the close-flush so a dying primary
        cannot ship its final unacked batch, and the closed WAL merely
        keeps file handles tidy — nothing ever reads the dead epoch dir.
        """
        self.replicator.detach()
        self.primary.close()

    def fail_over(self) -> EventJournal:
        """Promote the most-advanced replica; resume ingest on it."""
        injector = self.primary.fault_injector
        self.epoch += 1
        self.fail_overs += 1
        promoted, self.replicator = fail_over(
            self.replicator,
            self.epoch_dir(self.epoch),
            segment_max_records=self.segment_max_records,
            group_commit_events=self.group_commit_events,
            fault_injector=injector,
        )
        self.primary = promoted
        return promoted

    def close(self) -> None:
        self.primary.close()


def _pump_replicator(replicator: ShardReplicator, rounds: int) -> int:
    """Module-level pump task so executors can fan shards out."""
    return replicator.pump(rounds)


class ReplicationManager:
    """Platform-level replication over a :class:`ShardedJournal`.

    One :class:`ShardReplicator` per shard attaches to the live shard
    journals; :meth:`pump` runs each tick (fanned across shards by the
    platform executor when one is configured); :meth:`replica_for_read`
    implements bounded-staleness reads; :meth:`fail_over` replaces one
    shard's primary in the router.
    """

    def __init__(
        self,
        journal: Any,
        replication_factor: int,
        wal_root: str,
        *,
        plan: Optional[FaultPlan] = None,
        ack_replicas: Optional[int] = None,
        serve_reads: bool = False,
        max_lag_events: int = 0,
        executor: Optional[Any] = None,
        segment_max_records: int = 128,
        group_commit_events: int = 1,
    ) -> None:
        if replication_factor < 1:
            raise ValueError("ReplicationManager requires replication_factor >= 1")
        self.journal = journal
        self.wal_root = wal_root
        self.replication_factor = replication_factor
        self.serve_reads = serve_reads
        self.max_lag_events = max_lag_events
        self.executor = executor
        self.segment_max_records = segment_max_records
        self.group_commit_events = group_commit_events
        self.replicators = [
            ShardReplicator(
                shard_journal,
                replication_factor,
                plan,
                shard_id=shard,
                ack_replicas=ack_replicas,
            )
            for shard, shard_journal in enumerate(journal.journals)
        ]
        self.epochs = [0] * len(self.replicators)
        self.fail_overs = 0
        self.replica_reads_served = 0
        self.primary_fallbacks = 0

    def pump(self, rounds: int = 1) -> int:
        """One replication delivery round per shard (parallel when possible)."""
        ex = self.executor
        if ex is not None and not ex.inline and len(self.replicators) > 1:
            return sum(
                ex.map_shards(_pump_replicator, [(r, rounds) for r in self.replicators])
            )
        return sum(r.pump(rounds) for r in self.replicators)

    # -- bounded-staleness reads -------------------------------------------

    def replica_for_read(self, entity_id: str) -> Optional[EventJournal]:
        """The replica journal admitted to serve this read, or None.

        Admission requires the global lag bound *and* per-entity version
        equality with the primary (see the module docstring) — so an
        admitted replica returns the bit-identical answer the primary
        would, preserving read-your-writes.
        """
        if not self.serve_reads:
            return None
        shard = self.journal.shard_of(entity_id)
        replicator = self.replicators[shard]
        if not replicator.replicas:
            return None
        primary = self.journal.journals[shard]
        best = replicator.most_advanced()
        if primary.version - best.journal.version > self.max_lag_events:
            self.primary_fallbacks += 1
            return None
        if best.journal.entity_version(entity_id) != primary.entity_version(entity_id):
            self.primary_fallbacks += 1
            return None
        self.replica_reads_served += 1
        return best.journal

    # -- compaction composition --------------------------------------------

    def batch_limit_for(self, shard: int):
        """A callable giving the shard's commit watermark, for the segment
        compactor's ``batch_limit``: compaction must never fold WAL batches
        replicas have not acknowledged, or failover could promote a replica
        missing history the primary already discarded from its segments.

        Resolved through ``self.replicators`` at call time so the bound
        survives fail-over replacing the replicator object.
        """

        def _limit() -> int:
            return self.replicators[shard].watermark()

        return _limit

    def compact_replicas(self, *, min_fold_events: int = 1) -> int:
        """Fold every replica journal at its snapshot cadence and freeze
        acked batch-log prefixes (primary side too).  Returns total events
        folded out of replica memory."""
        folded = 0
        for replicator in self.replicators:
            for replica in replicator.replicas:
                folded += replica.compact(min_fold_events=min_fold_events)
            replicator.freeze_log()
        return folded

    # -- failover ----------------------------------------------------------

    def fail_over(self, shard: int) -> EventJournal:
        """Kill shard's primary, promote its most-advanced replica, and
        swap the promoted journal into the router.

        Derived read stores (search index, secondary pivots) are not
        rolled back — the caller (platform) clears read caches and the
        divergence window closes as retransmitted writes re-apply.
        """
        old = self.journal.journals[shard]
        self.replicators[shard].detach()
        old.close()
        self.epochs[shard] += 1
        wal_dir = os.path.join(
            self.wal_root, f"shard-{shard:02d}-epoch-{self.epochs[shard]:02d}"
        )
        promoted, self.replicators[shard] = fail_over(
            self.replicators[shard],
            wal_dir,
            segment_max_records=self.segment_max_records,
            group_commit_events=self.group_commit_events,
            fault_injector=old.fault_injector,
        )
        self.journal.replace_shard(shard, promoted)
        self.fail_overs += 1
        return promoted

    def close(self) -> None:
        """Detach listeners (replica journals are in-memory; promoted
        primaries live in the router and close with it)."""
        for replicator in self.replicators:
            replicator.detach()

    def report(self) -> Dict[str, Any]:
        return {
            "factor": self.replication_factor,
            "fail_overs": self.fail_overs,
            "serve_reads": self.serve_reads,
            "max_lag_events": self.max_lag_events,
            "replica_reads_served": self.replica_reads_served,
            "primary_fallbacks": self.primary_fallbacks,
            "shards": [r.report() for r in self.replicators],
        }
