"""The ingest stage: the CQRS write side over the sharded journal.

Minimal processing at ingestion time (the paper's write-side rule):
observations become journal events through the
:class:`~repro.pipeline.write_side.WriteSideProcessor`, follow-up work is
published to the bus, and :meth:`pump` delivers it to the asynchronous
consumers once per tick.  Eviction of services staged past the retention
window runs here too — removals are write-side commands.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.scheduler import RefreshScheduler
from repro.core.stages.base import StageCounters
from repro.pipeline import EventBus, ScanObservation, WriteSideProcessor
from repro.pipeline.sharding import ShardedJournal
from repro.scan import PredictiveEngine

__all__ = ["IngestStage"]


class IngestStage:
    """Observations in, journal events and bus messages out."""

    def __init__(
        self,
        journal: ShardedJournal,
        bus: EventBus,
        write_side: WriteSideProcessor,
    ) -> None:
        self.journal = journal
        self.bus = bus
        self.write_side = write_side
        self.counters = StageCounters(
            observations_ingested=0,
            events_journaled=0,
            #: Events journaled through the batched fast path (submit_many).
            batched_events=0,
            #: WAL fsyncs that made batched events durable: windows that
            #: filled inside a submit_many plus the flushes of the :meth:`ack`
            #: that followed one.  batched_events / group_commits is the
            #: realized fsync amortization.
            group_commits=0,
            messages_pumped=0,
            evictions=0,
        )
        #: Batched events journaled since the last :meth:`ack`.
        self._batched_unacked = False

    # -- write path ----------------------------------------------------------

    def submit(self, obs: ScanObservation) -> Optional[str]:
        """Apply one observation; returns the journal event kind (or None)."""
        before = self.journal.stats.events
        kind = self.write_side.process(obs)
        self.counters.bump("observations_ingested")
        self.counters.bump("events_journaled", self.journal.stats.events - before)
        return kind

    def submit_many(
        self,
        observations: Sequence[ScanObservation],
        executor: Optional[object] = None,
    ) -> List[Optional[str]]:
        """Batched ingest: one chunk commit per call, acked by :meth:`ack`.

        Bit-identical to calling :meth:`submit` per observation.  Like
        :meth:`submit` it commits into the group-commit window and leaves
        the covering fsync to the window bound or the next :meth:`ack`.
        """
        observations = list(observations)
        if not observations:
            return []
        before_events = self.journal.stats.events
        before_fsyncs = self._wal_fsyncs()
        kinds = self.write_side.submit_chunk(observations, executor)
        journaled = self.journal.stats.events - before_events
        self.counters.bump("observations_ingested", len(observations))
        self.counters.bump("events_journaled", journaled)
        self.counters.bump("batched_events", journaled)
        self.counters.bump("group_commits", self._wal_fsyncs() - before_fsyncs)
        if journaled:
            self._batched_unacked = True
        return kinds

    def ack(self) -> None:
        """Make everything submitted so far durable: the ack point.

        Flushes every shard's open group-commit window, which is also what
        releases the commit listeners (replication shipping, subscription
        feeds).  ``tick()`` calls it once after the pump and
        ``CensysPlatform.ingest_many`` before it returns, so an acked tick
        is a durable tick and an acked batch a durable batch; between acks
        the window bounds bound what a crash can lose.
        """
        before_fsyncs = self._wal_fsyncs()
        self.journal.flush_commit_windows()
        if self._batched_unacked:
            self.counters.bump("group_commits", self._wal_fsyncs() - before_fsyncs)
            self._batched_unacked = False

    def _wal_fsyncs(self) -> int:
        return sum(j.wal.stats.fsyncs for j in self.journal.journals if j.wal is not None)

    def remove_service(self, entity_id: str, key: str, time: float) -> bool:
        return self.write_side.remove_service(entity_id, key, time)

    # -- asynchronous delivery ------------------------------------------------

    def pump(self) -> int:
        """Deliver queued bus messages to the derivation-side consumers.

        Consumers journal too (the certificate processor appends on TLS
        messages); everything one pump appends commits as one WAL batch
        per shard.  The caller then calls :meth:`ack`, so the batch is
        fsynced — and only then visible to commit listeners — before
        replication ships or subscriptions deliver.
        """
        with self.journal.transaction():
            delivered = self.bus.pump()
        self.counters.bump("messages_pumped", delivered)
        return delivered

    # -- retention ------------------------------------------------------------

    def evict_due(self, now: float, scheduler: RefreshScheduler, predictive: PredictiveEngine) -> int:
        """Remove services staged past the eviction window (daily work).

        Cache coherence: every successful eviction journals a
        ``SERVICE_REMOVED`` event, which bumps the entity's (and owning
        shard's) version counter — the read-path caches invalidate on the
        next lookup with no extra hooks here.  A no-op removal (service
        already gone) appends nothing and correctly leaves versions — and
        therefore cached reconstructions — untouched.
        """
        from repro.pipeline.events import service_key

        evicted = 0
        with self.journal.transaction():  # one WAL batch per shard per sweep
            for known in scheduler.due_evictions(now):
                self.remove_service(known.entity_id, service_key(known.port, known.transport), now)
                predictive.remember_evicted(known.ip_index, known.port, known.transport, now)
                scheduler.forget(known.ip_index, known.port, known.transport)
                evicted += 1
        self.counters.bump("evictions", evicted)
        return evicted
