"""The CQRS write (command) side: turning scan results into journal events.

For each inbound scan the processor (1) retrieves the entity's current
state, (2) computes the delta command, (3) journals the resulting event,
and (4) enqueues follow-up work on the bus — the paper's four write-side
steps.  It also implements two Censys data-quality policies:

* *eviction staging*: a failed scan of a known service marks it pending
  removal; actual removal is a separate command issued by the scheduler
  after the 72-hour window;
* *pseudo-service filtering*: hosts answering identically on many ports are
  flagged and excluded from serving (competitor engines skip this, which
  is one source of their inflated self-reported counts).

Fault tolerance (opt-in): with a :class:`~repro.pipeline.faults.FaultInjector`
attached, :meth:`WriteSideProcessor.submit` retries transient interrogation
timeouts on the processor's exponential-backoff
:class:`~repro.pipeline.reliability.RetryPolicy` and dead-letters
observations that exhaust their attempts.  Observations older than the
entity's journal head (redelivered after a crash, or reordered in transit)
are dropped as *stale* — last-writer-wins — instead of corrupting the
journal's time order.  When the journal is durable, ``submit`` commits each
observation's events as one atomic WAL batch and ``submit_many`` commits
the whole chunk as one batch per shard.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from dataclasses import fields as dataclass_fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.pipeline.events import EventKind, service_key
from repro.pipeline.faults import FaultInjector, TransientScanError
from repro.pipeline.journal import EventJournal
from repro.pipeline.queues import EventBus
from repro.pipeline.reliability import DeadLetterQueue, RetryPolicy
from repro.protocols.interrogate import InterrogationResult

__all__ = ["ScanObservation", "WriteStats", "WriteSideProcessor", "host_entity_id"]


def host_entity_id(ip_text: str) -> str:
    return f"host:{ip_text}"


@dataclass(slots=True)
class ScanObservation:
    """One completed interrogation (successful or failed) of one binding."""

    entity_id: str
    time: float
    port: int
    transport: str
    result: InterrogationResult
    source: str = "scan"   # "discovery" | "refresh" | "predictive" | "name"
    #: Monotonic delivery sequence number (set by the ingest layer when the
    #: pipeline runs over an at-least-once channel; None for direct calls).
    obs_seq: Optional[int] = None


@dataclass(slots=True)
class WriteStats:
    observations: int = 0
    found: int = 0
    changed: int = 0
    refreshed: int = 0
    pending: int = 0
    removed: int = 0
    pseudo_flagged: int = 0
    #: Fault-tolerance accounting.
    retries: int = 0
    backoff_hours: float = 0.0
    dead_lettered: int = 0
    stale_dropped: int = 0


class WriteSideProcessor:
    """Applies scan observations to the journal and emits follow-up work."""

    #: A host answering identically on more than this many ports is pseudo.
    PSEUDO_PORT_THRESHOLD = 20

    def __init__(
        self,
        journal: EventJournal,
        bus: Optional[EventBus] = None,
        filter_pseudo_services: bool = True,
        delta_encoding: bool = True,
        faults: Optional[FaultInjector] = None,
        retry: Optional[RetryPolicy] = None,
        dlq: Optional[DeadLetterQueue] = None,
    ) -> None:
        self.journal = journal
        self.bus = bus or EventBus()
        self.filter_pseudo_services = filter_pseudo_services
        #: False journals the full record on every rescan instead of the
        #: field-level diff — the storage-cost ablation's strawman.
        self.delta_encoding = delta_encoding
        self.faults = faults
        self.retry = retry or RetryPolicy()
        self.dlq = dlq if dlq is not None else DeadLetterQueue()
        self.stats = WriteStats()
        # Either journal flavour is accepted; which one this is never
        # changes, so the flavour-specific methods are resolved once.
        self._shard_of = getattr(journal, "shard_of", None)
        self._flush_commit_windows = getattr(
            journal, "flush_commit_windows", getattr(journal, "flush_commit_window", None)
        )

    # ------------------------------------------------------------------

    def submit(self, obs: ScanObservation) -> Optional[str]:
        """Process with retries: the at-least-once ingestion entry point.

        Transient interrogation timeouts back off exponentially; once
        ``retry.max_attempts`` is exhausted the observation is dead-lettered
        and ``None`` is returned.  A :class:`SimulatedCrash` always
        propagates — the driver owns recovery.
        """
        attempt = 0
        while True:
            attempt += 1
            try:
                return self.process(obs)
            except TransientScanError:
                if attempt >= self.retry.max_attempts:
                    self.dlq.push(obs, "transient timeouts exhausted", attempts=attempt)
                    self.stats.dead_lettered += 1
                    return None
                self.stats.retries += 1
                self.stats.backoff_hours += self.retry.backoff(attempt)

    def submit_many(
        self,
        observations: Sequence[ScanObservation],
        executor: Optional[Any] = None,
    ) -> List[Optional[str]]:
        """Batched ingest: bit-identical to ``submit`` per observation.

        The whole chunk commits as one WAL batch per shard it touches,
        amortizing the per-event encode/append/fsync cost while producing
        the exact same events, stats, bus publishes, and dead letters as
        the one-at-a-time reference.  The crash-atomicity unit is therefore
        the chunk-per-shard: a crash mid-chunk loses the whole un-acked
        chunk on that shard, and redelivery plus the stale-drop rule
        converge from there.  With a non-inline executor and a sharded
        journal the observations are grouped by owning shard and whole
        groups ingest in parallel (each shard's subsequence keeps its input
        order); bus publishes and new-entity registration are then replayed
        serially in input order, so the observable outcome is independent
        of the backend.  With a fault injector attached every observation
        keeps its own transaction on the serial path — retry and crash
        schedules are keyed to global per-observation commit ranges.

        Any open group-commit windows are flushed before returning:
        an acked batch is a durable batch.  A caller that gives its own
        ack later (the interrogation drain, acked by the tick) commits
        through :meth:`submit_chunk` instead.
        """
        observations = list(observations)
        if not observations:
            return []
        results = self.submit_chunk(observations, executor)
        if self._flush_commit_windows is not None:
            self._flush_commit_windows()
        return results

    def submit_chunk(
        self, observations: List[ScanObservation], executor: Optional[Any] = None
    ) -> List[Optional[str]]:
        """Commit one chunk into the group-commit window, without the ack.

        Everything :meth:`submit_many` does except the flush: the chunk's
        records reach the WAL file, but their covering fsync — and with it
        the commit listeners — waits for the window to fill or for the
        caller's own flush.  Until then a crash may lose the chunk.
        """
        if self.faults is not None:
            # Crash points and retry schedules are keyed to per-observation
            # commit ranges: one transaction each, so chaos scenarios mean
            # the same thing batched or not.
            return [self.submit(obs) for obs in observations]
        shard_of = self._shard_of
        if executor is not None and not executor.inline and shard_of is not None:
            groups: Dict[int, List[int]] = {}
            for pos, obs in enumerate(observations):
                groups.setdefault(shard_of(obs.entity_id), []).append(pos)
            if len(groups) > 1:
                return self._submit_many_parallel(observations, groups, executor)
        # Shards the chunk never touches commit nothing.
        with self.journal.transaction():
            return [self.submit(obs) for obs in observations]

    def _submit_many_parallel(
        self,
        observations: List[ScanObservation],
        groups: Dict[int, List[int]],
        executor: Any,
    ) -> List[Optional[str]]:
        """Whole shard groups ingest concurrently, then merge serially.

        Each group runs on a private processor clone bound to the owning
        shard's journal, with a recording bus and fresh stats/DLQ — the
        shard journals are disjoint, so clones share nothing.  Phase two
        (serial) replays bus publishes and first-append registrations in
        input-position order and folds the clone stats back in, making the
        merge order — the only cross-shard state — deterministic.
        """
        journal = self.journal
        results: List[Optional[str]] = [None] * len(observations)

        def _ingest_group(shard: int, positions: List[int]):
            shard_journal = journal.journals[shard]
            bus = _RecordingBus()
            clone = WriteSideProcessor(
                shard_journal,
                bus,
                filter_pseudo_services=self.filter_pseudo_services,
                delta_encoding=self.delta_encoding,
                faults=None,
                retry=self.retry,
                dlq=DeadLetterQueue(),
            )
            out: List[Tuple[int, Optional[str]]] = []
            first_appends: List[Tuple[int, str]] = []
            with shard_journal.transaction():
                for pos in positions:
                    entity = observations[pos].entity_id
                    bus.position = pos
                    known = shard_journal.has_entity(entity)
                    out.append((pos, clone.submit(observations[pos])))
                    if not known and shard_journal.has_entity(entity):
                        first_appends.append((pos, entity))
            return out, bus.published, clone.stats, clone.dlq.entries(), first_appends

        merged = executor.map_shards(
            _ingest_group, [(shard, positions) for shard, positions in groups.items()]
        )
        published: List[Tuple[int, str, Dict[str, Any]]] = []
        first_appends: List[Tuple[int, str]] = []
        for out, group_published, stats, dead_letters, group_first in merged:
            for pos, result in out:
                results[pos] = result
            published.extend(group_published)
            first_appends.extend(group_first)
            for f in dataclass_fields(WriteStats):
                setattr(
                    self.stats, f.name,
                    getattr(self.stats, f.name) + getattr(stats, f.name),
                )
            for letter in dead_letters:
                self.dlq.push(letter.item, letter.reason, attempts=letter.attempts)
        for _pos, entity in sorted(first_appends):
            if entity not in journal._entity_shard:
                journal._entity_shard[entity] = self._shard_of(entity)
        published.sort(key=lambda record: record[0])
        for _pos, topic, message in published:
            self.bus.publish(topic, message)
        return results

    def process(self, obs: ScanObservation) -> Optional[str]:
        """Apply one observation; returns the journal event kind (or None)."""
        if self.faults is not None:
            self.faults.maybe_timeout(obs.obs_seq)  # raises TransientScanError
        self.stats.observations += 1
        state = self.journal.peek_current(obs.entity_id)
        last_time = state.get("last_event_time")
        if last_time is not None and obs.time < last_time:
            # Redelivered or reordered observation older than the journal
            # head: everything it could say has been superseded.
            self.stats.stale_dropped += 1
            return None
        if self.filter_pseudo_services and state["meta"].get("pseudo_host"):
            return None  # filtered: pseudo hosts are not part of the map
        key = service_key(obs.port, obs.transport)
        existing = state["services"].get(key)
        with self.journal.transaction():
            if obs.result.success and obs.result.service_name:
                return self._apply_success(obs, key, existing)
            return self._apply_failure(obs, key, existing)

    def _journal(
        self, obs: ScanObservation, kind: str, payload: Dict[str, Any]
    ) -> None:
        """Append one event, stamping the delivery sequence when present."""
        if obs.obs_seq is not None:
            payload = dict(payload)
            payload["obs_seq"] = obs.obs_seq
        self.journal.append(obs.entity_id, obs.time, kind, payload)

    def _apply_success(
        self, obs: ScanObservation, key: str, existing: Optional[Dict[str, Any]]
    ) -> str:
        record = dict(obs.result.record)
        service_name = obs.result.service_name
        if existing is None:
            self._journal(
                obs,
                EventKind.SERVICE_FOUND,
                {
                    "key": key,
                    "protocol": obs.result.protocol,
                    "service_name": service_name,
                    "record": record,
                    "source": obs.source,
                },
            )
            self.stats.found += 1
            self.bus.publish(
                "service_found",
                {"entity_id": obs.entity_id, "key": key, "record": record, "time": obs.time,
                 "service_name": service_name, "source": obs.source},
            )
            if self.filter_pseudo_services:
                self._check_pseudo(obs, record)
            return EventKind.SERVICE_FOUND

        # Change detection against the previous scan of this binding.
        changed, removed_fields = _diff_records(existing["record"], record)
        name_changed = existing.get("service_name") != service_name
        if not changed and not removed_fields and not name_changed:
            refresh_payload: Dict[str, Any] = {"key": key}
            if not self.delta_encoding:
                refresh_payload["record"] = record  # full-record strawman
            self._journal(obs, EventKind.SERVICE_REFRESHED, refresh_payload)
            self.stats.refreshed += 1
            return EventKind.SERVICE_REFRESHED
        if not self.delta_encoding:
            changed = record  # store everything, not the diff
        payload: Dict[str, Any] = {"key": key, "changed": changed, "removed_fields": removed_fields}
        if name_changed:
            payload["service_name"] = service_name
            payload["protocol"] = obs.result.protocol
        self._journal(obs, EventKind.SERVICE_CHANGED, payload)
        self.stats.changed += 1
        self.bus.publish(
            "service_changed",
            {"entity_id": obs.entity_id, "key": key, "changed": changed, "time": obs.time,
             "record": record, "service_name": service_name},
        )
        return EventKind.SERVICE_CHANGED

    def _apply_failure(
        self, obs: ScanObservation, key: str, existing: Optional[Dict[str, Any]]
    ) -> Optional[str]:
        if existing is None:
            return None  # nothing known to stage for removal
        first_failure = existing.get("pending_removal_since") is None
        # Repeated failures are journaled too: they record the scan attempt
        # (last_checked) while the original staging time keeps the eviction
        # clock running.
        self._journal(obs, EventKind.SERVICE_PENDING_REMOVAL, {"key": key})
        if first_failure:
            self.stats.pending += 1
            self.bus.publish(
                "service_unresponsive",
                {"entity_id": obs.entity_id, "key": key, "time": obs.time},
            )
        return EventKind.SERVICE_PENDING_REMOVAL

    # ------------------------------------------------------------------

    def remove_service(
        self, entity_id: str, key: str, time: float, obs_seq: Optional[int] = None
    ) -> bool:
        """Evict a staged service (scheduler command after the 72 h window)."""
        state = self.journal.peek_current(entity_id)
        last_time = state.get("last_event_time")
        if last_time is not None and time < last_time:
            self.stats.stale_dropped += 1  # replayed command from before a crash
            return False
        service = state["services"].get(key)
        if service is None:
            return False
        payload: Dict[str, Any] = {"key": key}
        if obs_seq is not None:
            payload["obs_seq"] = obs_seq
        self.journal.append(entity_id, time, EventKind.SERVICE_REMOVED, payload)
        self.stats.removed += 1
        self.bus.publish("service_removed", {"entity_id": entity_id, "key": key, "time": time})
        return True

    def _check_pseudo(self, obs: ScanObservation, new_record: Dict[str, Any]) -> None:
        state = self.journal.peek_current(obs.entity_id)
        if state["meta"].get("pseudo_host"):
            return
        services = state["services"]
        if len(services) <= self.PSEUDO_PORT_THRESHOLD:
            return
        signatures = set()
        for service in services.values():
            signatures.add(_record_signature(service["record"]))
            if len(signatures) > 2:
                return
        self._journal(obs, EventKind.HOST_META, {"meta": {"pseudo_host": True}})
        self.bus.publish(
            "host_pseudo_flagged", {"entity_id": obs.entity_id, "time": obs.time}
        )
        self.stats.pseudo_flagged += 1


class _RecordingBus:
    """Captures publishes with the observation position that caused them,
    so the parallel ingest path can replay them in input order."""

    __slots__ = ("published", "position")

    def __init__(self) -> None:
        self.published: List[Tuple[int, str, Dict[str, Any]]] = []
        self.position = -1

    def publish(self, topic: str, message: Dict[str, Any]) -> None:
        self.published.append((self.position, topic, message))


def _diff_records(old: Dict[str, Any], new: Dict[str, Any]) -> Tuple[Dict[str, Any], list]:
    """Field-level delta: (changed/added fields, removed field names)."""
    changed = {
        k: v
        for k, v in new.items()
        if k not in old or not _values_equal(old[k], v)
    }
    removed = [k for k in old if k not in new]
    return changed, removed


def _values_equal(a: Any, b: Any) -> bool:
    """Equality across durability flavors.

    A record read back through the WAL or a replica is JSON-shaped: tuples
    come back as lists.  A refresh comparing a fresh observation (tuples)
    against such a stored record must not see phantom field changes, so
    sequences compare by content regardless of tuple/list flavor.
    """
    if a.__class__ is b.__class__ and a == b:
        return True
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_values_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_values_equal(v, b[k]) for k, v in a.items())
    return a == b


def _record_signature(record: Dict[str, Any]) -> str:
    """A loose identity for pseudo-service detection (raw banner shape).

    Canonical JSON (sorted keys at every nesting level) so two records with
    the same content but different dict insertion order — including inside
    nested values — hash identically.
    """
    interesting = {k: v for k, v in record.items() if not k.startswith("tls.")}
    return json.dumps(interesting, sort_keys=True, default=repr, separators=(",", ":"))


_MISSING = object()
