"""Deterministic chaos-harness helpers: workloads, oracle, faulted driver.

The harness runs the same scripted scan workload two ways:

* **oracle** — in-memory pipeline, observations applied in source order,
  no faults: the ground truth;
* **chaos** — durable (WAL-backed) pipeline fed through an at-least-once
  source, a seeded faulty channel (drop/duplicate/delay/reorder), a
  resequencer, and a write side with injected transient timeouts; planned
  crashes kill the in-memory journal mid-run and recovery rebuilds it
  from the WAL.

Convergence means the recovered journal is *byte-identical* to the
oracle: same events (sequence, time, kind, payload), same regenerated
snapshots, same materialized state, same storage accounting.
"""

from __future__ import annotations

import dataclasses
import os
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.pipeline import (
    AtLeastOnceSource,
    DeadLetterQueue,
    EventBus,
    EventJournal,
    FaultInjector,
    FaultPlan,
    FaultyChannel,
    ReplicatedShard,
    Resequencer,
    RetryPolicy,
    ScanObservation,
    ShardMap,
    ShardedJournal,
    SimulatedCrash,
    WriteAheadLog,
    WriteSideProcessor,
)
from repro.pipeline.delivery import item_seq
from repro.protocols.interrogate import InterrogationResult

SNAPSHOT_EVERY = 5


@dataclass(frozen=True)
class RemoveCommand:
    """A scheduler eviction command, sequenced like an observation."""

    entity_id: str
    key: str
    time: float
    seq: int


def _ok(record: Dict[str, Any], port: int, protocol: str = "HTTP") -> InterrogationResult:
    return InterrogationResult(
        port=port, transport="tcp", success=True, protocol=protocol, record=record
    )


def _fail(port: int) -> InterrogationResult:
    return InterrogationResult(port=port, transport="tcp", success=False)


def build_workload(seed: int = 7, n_hosts: int = 5, sweeps: int = 8) -> List[Any]:
    """A scripted scan workload: finds, refreshes, changes, failures,
    evictions, and one pseudo-host storm.  Times strictly increase with the
    global sequence number, so source order is also time order."""
    rng = random.Random(seed)
    hosts = [f"host:10.0.0.{i + 1}" for i in range(n_hosts)]
    ports = [22, 80, 443]
    versions: Dict[Tuple[str, int], int] = {}
    items: List[Any] = []

    def stamp(obs_or_cmd: Any) -> None:
        items.append(obs_or_cmd)

    def next_seq() -> int:
        return len(items)

    for sweep in range(sweeps):
        for host in hosts:
            for port in ports:
                roll = rng.random()
                seq = next_seq()
                t = float(seq)
                key = (host, port)
                if roll < 0.15 and sweep > 0:
                    stamp(ScanObservation(host, t, port, "tcp", _fail(port), obs_seq=seq))
                elif roll < 0.25:
                    versions[key] = versions.get(key, 0) + 1
                    record = {"http.status": 200 + versions[key], "banner": f"v{versions[key]}"}
                    stamp(ScanObservation(host, t, port, "tcp", _ok(record, port), obs_seq=seq))
                else:
                    versions.setdefault(key, 1)
                    record = {"http.status": 200 + versions[key], "banner": f"v{versions[key]}"}
                    stamp(ScanObservation(host, t, port, "tcp", _ok(record, port), obs_seq=seq))
            if rng.random() < 0.1 and sweep > 1:
                seq = next_seq()
                stamp(RemoveCommand(host, f"{rng.choice(ports)}/tcp", float(seq), seq))
    # One pseudo-host storm: identical banners on many ports.
    pseudo = "host:10.0.9.9"
    for port in range(7000, 7022):
        seq = next_seq()
        stamp(
            ScanObservation(
                pseudo, float(seq), port, "tcp", _ok({"banner": "ECHO"}, port), obs_seq=seq
            )
        )
    return items


def _chunks(items: List[Any], size: int) -> List[List[Any]]:
    return [items[i : i + size] for i in range(0, len(items), size)]


def apply_item(processor: WriteSideProcessor, item: Any) -> Any:
    if isinstance(item, RemoveCommand):
        return processor.remove_service(item.entity_id, item.key, item.time, obs_seq=item.seq)
    return processor.submit(item)


def run_oracle(
    items: List[Any], snapshot_every: int = SNAPSHOT_EVERY
) -> Tuple[EventJournal, WriteSideProcessor]:
    """The fault-free reference run: in order, in memory."""
    journal = EventJournal(snapshot_every=snapshot_every)
    processor = WriteSideProcessor(journal, EventBus())
    for item in items:
        apply_item(processor, item)
    return journal, processor


def journal_fingerprint(journal: EventJournal) -> Dict[str, Any]:
    """Everything that defines journal state, in comparable form."""
    out: Dict[str, Any] = {}
    for entity_id in sorted(journal.entity_ids()):
        log = journal._logs[entity_id]
        out[entity_id] = {
            "current": journal.reconstruct(entity_id),
            "events": [
                (e.seq, e.time, e.kind, dict(e.payload)) for e in journal.events_for(entity_id)
            ],
            "snapshots": [(seq, t, state) for seq, t, state in log.snapshots],
            "hdd_watermark": log.hdd_watermark,
        }
    return out


def storage_fingerprint(journal: EventJournal) -> Dict[str, int]:
    s = journal.stats
    return {
        "events": s.events,
        "snapshots": s.snapshots,
        "event_bytes": s.event_bytes,
        "snapshot_bytes": s.snapshot_bytes,
        "ssd_bytes": s.ssd_bytes,
        "hdd_bytes": s.hdd_bytes,
    }


def max_durable_seq(journal: EventJournal) -> int:
    """The highest delivery sequence stamped into any durable event."""
    best = -1
    for entity_id in journal.entity_ids():
        for event in journal.events_for(entity_id):
            seq = event.payload.get("obs_seq")
            if seq is not None and seq > best:
                best = seq
    return best


@dataclass
class ChaosResult:
    journal: EventJournal          # the live journal at end of run
    recovered: EventJournal        # a cold recovery from disk after the run
    crashes: int
    recoveries: int
    rounds: int
    torn_discarded: int
    injector: Any
    processor: WriteSideProcessor


def run_chaos(
    items: List[Any],
    plan: FaultPlan,
    wal_dir: str,
    snapshot_every: int = SNAPSHOT_EVERY,
    retry: Optional[RetryPolicy] = None,
    max_rounds: int = 3000,
    group_commit_events: int = 1,
    wal_crash_hooks: Tuple[str, ...] = (),
) -> ChaosResult:
    """Drive the workload through the faulted, durable pipeline to completion.

    ``group_commit_events`` sizes the WAL's commit window (1 = the
    fsync-per-batch reference).  ``wal_crash_hooks`` is an ordered list of
    WAL crash points (``"pre_fsync"`` / ``"post_fsync"``): each entry
    crashes the process the first time that point fires, so a crash can
    land mid-group-commit — between buffering batches and the covering
    fsync — and recovery is exercised against a partially-synced window.
    """
    retry = retry or RetryPolicy(max_attempts=6, base_delay=0.05)
    injector = plan.injector()

    def fresh_processor(journal: EventJournal) -> WriteSideProcessor:
        return WriteSideProcessor(
            journal, EventBus(), faults=injector, retry=retry, dlq=DeadLetterQueue()
        )

    remaining_hooks = list(wal_crash_hooks)

    def wal_crash_hook(point: str) -> None:
        if remaining_hooks and remaining_hooks[0] == point:
            remaining_hooks.pop(0)
            raise SimulatedCrash(f"wal crash at {point}")

    journal = EventJournal(
        snapshot_every=snapshot_every,
        wal=WriteAheadLog(
            wal_dir,
            group_commit_events=group_commit_events,
            crash_hook=wal_crash_hook if wal_crash_hooks else None,
        ),
        fault_injector=injector,
    )
    processor = fresh_processor(journal)
    source = AtLeastOnceSource(items)
    resequencer = Resequencer()
    channel = FaultyChannel(injector)
    crashes = recoveries = rounds = torn = 0

    while not source.done:
        rounds += 1
        if rounds > max_rounds:
            raise AssertionError(
                f"chaos run did not converge in {max_rounds} rounds "
                f"({source.outstanding} items outstanding)"
            )
        arrivals = channel.transmit(source.pending())
        crashed = False
        for arrival in arrivals:
            for ready in resequencer.push(arrival):
                try:
                    apply_item(processor, ready)
                    source.ack(item_seq(ready))
                except SimulatedCrash:
                    # The process 'dies': in-memory journal, processor state,
                    # resequencer buffer, and channel in-flight are all lost.
                    crashes += 1
                    journal.close()
                    journal = EventJournal.recover(
                        wal_dir,
                        snapshot_every,
                        fault_injector=injector,
                        group_commit_events=group_commit_events,
                    )
                    if journal.wal is not None:
                        journal.wal.crash_hook = wal_crash_hook if remaining_hooks else None
                    recoveries += 1
                    torn += journal.stats.torn_records_discarded
                    processor = fresh_processor(journal)
                    durable = max_durable_seq(journal)
                    source.reset_all_unacked()
                    source.ack_through(durable)
                    resequencer = Resequencer(next_seq=durable + 1)
                    channel.reset()
                    crashed = True
                    break
            if crashed:
                break

    journal.close()
    recovered = EventJournal.recover(wal_dir, snapshot_every, reopen=False)
    torn += recovered.stats.torn_records_discarded
    return ChaosResult(
        journal=journal,
        recovered=recovered,
        crashes=crashes,
        recoveries=recoveries,
        rounds=rounds,
        torn_discarded=torn,
        injector=injector,
        processor=processor,
    )


# -- the failover chaos harness ---------------------------------------------
#
# run_chaos above models a *recoverable* crash: the WAL survives and the
# process restarts on it.  run_failover_chaos models *node loss*: a shard
# primary dies with its WAL, and the shard fails over to its most-advanced
# replica.  Ingest acks are gated on the replication watermark (not on
# local apply), so the invariant under test is: no acknowledged write is
# ever lost, for any seeded kill/partition schedule.


@dataclass(frozen=True)
class FailoverEvent:
    """One scheduled disaster for one shard.

    ``kind="kill"``: primary node loss + immediate failover once the shard
    primary has journaled ``at_events`` events.  ``kind="partition"``: the
    primary becomes unreachable (no ingest, no replication shipping) for
    ``partition_rounds`` delivery rounds; with ``depose=True`` the
    partition ends in a failover (the deposed primary never returns)
    instead of healing.
    """

    shard: int
    at_events: int
    kind: str = "kill"
    partition_rounds: int = 4
    depose: bool = False


class _ShardItem(NamedTuple):
    """Per-shard delivery envelope: contiguous local seq over global items.

    Per-shard sources need gap-free sequence numbers for the resequencer,
    while the wrapped item keeps its global ``obs_seq`` (what the write
    side stamps into payloads, and what the oracle sees).
    """

    seq: int
    item: Any


@dataclass
class _ShardLane:
    """Everything one shard's ingest path owns in the failover harness."""

    shard: int
    group: ReplicatedShard
    processor: WriteSideProcessor
    source: AtLeastOnceSource
    channel: FaultyChannel
    resequencer: Resequencer
    #: global obs seq -> local delivery seq for this shard's items.
    g2l: Dict[int, int]
    #: Highest local seq acked via the replication watermark (the audit
    #: value for the zero-acked-write-loss invariant).
    acked_watermark: int = -1
    partition_left: int = 0
    depose_on_heal: bool = False
    fired: List[FailoverEvent] = field(default_factory=list)

    @property
    def done(self) -> bool:
        return self.source.done and self.partition_left == 0


@dataclass
class FailoverResult:
    lanes: List["_ShardLane"]
    oracle: ShardedJournal
    fail_overs: int
    rounds: int
    plan: FaultPlan

    def shard_journals(self) -> List[EventJournal]:
        return [lane.group.primary for lane in self.lanes]

    def close(self) -> None:
        for lane in self.lanes:
            lane.group.close()


def _lane_injector(plan: FaultPlan, shard: int) -> FaultInjector:
    """Per-shard ingest-link injector: decorrelated from the replication
    links (which derive their own seeds), never carrying crash points —
    node loss is scheduled by FailoverEvents, not by SimulatedCrash."""
    return FaultInjector(
        dataclasses.replace(plan, seed=plan.seed + 7001 * (shard + 1), crash_points=())
    )


def run_failover_chaos(
    items: List[Any],
    plan: FaultPlan,
    root: str,
    *,
    shards: int = 1,
    replicas: int = 2,
    ack_replicas: int = 1,
    schedule: Tuple[FailoverEvent, ...] = (),
    snapshot_every: int = SNAPSHOT_EVERY,
    group_commit_events: int = 1,
    chunk: int = 1,
    retry: Optional[RetryPolicy] = None,
    max_rounds: int = 6000,
) -> FailoverResult:
    """Drive the workload through per-shard replicated pipelines while the
    schedule kills/partitions primaries; returns converged state.

    ``chunk`` > 1 commits every ``chunk`` consecutive items a lane applies
    in a round as a single WAL batch — the shape ``submit_many`` gives the
    platform's ingest chunks — so replication ships multi-entity,
    chunk-sized batches and a killed primary abandons whole un-acked chunks.

    Acks flow back to each shard's source only up to the replication
    watermark (items that journal nothing are acked on apply — they are
    deterministic no-ops and re-applying them is free).  On every failover
    the harness asserts the zero-acked-write-loss invariant *before*
    resuming: everything acked through the watermark must already be in
    the promoted journal.
    """
    retry = retry or RetryPolicy(max_attempts=6, base_delay=0.05)
    shard_map = ShardMap(shards)
    lanes: List[_ShardLane] = []
    per_shard_items: List[List[Any]] = [[] for _ in range(shards)]
    for item in items:
        per_shard_items[shard_map.shard_of(item.entity_id)].append(item)
    for shard in range(shards):
        envelopes = [_ShardItem(i, item) for i, item in enumerate(per_shard_items[shard])]
        g2l = {item_seq(item): i for i, item in enumerate(per_shard_items[shard])}
        injector = _lane_injector(plan, shard)
        group = ReplicatedShard(
            os.path.join(root, f"shard-{shard:02d}"),
            replication_factor=replicas,
            plan=plan,
            snapshot_every=snapshot_every,
            # The WAL's group-commit event bound; every epoch of the lane,
            # original and promoted, inherits it.
            group_commit_events=group_commit_events,
            ack_replicas=ack_replicas,
            fault_injector=None,
            shard_id=shard,
        )
        lanes.append(
            _ShardLane(
                shard=shard,
                group=group,
                processor=WriteSideProcessor(
                    group.primary, EventBus(), faults=injector, retry=retry,
                    dlq=DeadLetterQueue(),
                ),
                source=AtLeastOnceSource(envelopes),
                channel=FaultyChannel(injector),
                resequencer=Resequencer(),
                g2l=g2l,
            )
        )

    pending_events: Dict[int, List[FailoverEvent]] = {}
    for event in schedule:
        if not 0 <= event.shard < shards:
            raise ValueError(f"schedule names shard {event.shard}, have {shards}")
        pending_events.setdefault(event.shard, []).append(event)
    for queue in pending_events.values():
        queue.sort(key=lambda e: e.at_events)

    fail_overs = 0
    rounds = 0

    def do_fail_over(lane: _ShardLane) -> None:
        nonlocal fail_overs
        lane.group.kill_primary()
        promoted = lane.group.fail_over()
        durable_global = max_durable_seq(promoted)
        durable_local = lane.g2l[durable_global] if durable_global >= 0 else -1
        # THE invariant: the watermark never outruns the most-advanced
        # replica, so no acked write can be missing from the promotion.
        assert lane.acked_watermark <= durable_local, (
            f"LOST ACKED WRITES on shard {lane.shard}: acked through local seq "
            f"{lane.acked_watermark} but promoted journal only holds "
            f"{durable_local} — plan {lane_plan_repr}"
        )
        lane.processor = WriteSideProcessor(
            promoted, EventBus(), faults=lane.channel.injector, retry=retry,
            dlq=lane.processor.dlq,
        )
        # Failover completes only once the promoted tail is re-replicated
        # under the NEW configuration (Raft-style: a new leader re-commits
        # its tail to quorum before serving) — otherwise a second failover
        # before catch-up could drop writes that were acked under the old
        # group's watermark.
        local_wm = -1
        for _ in range(500):
            obs_wm = lane.group.obs_watermark()
            local_wm = lane.g2l[obs_wm] if obs_wm >= 0 else -1
            if local_wm >= lane.acked_watermark:
                break
            lane.group.pump(1)
        else:
            raise AssertionError(
                f"shard {lane.shard}: promoted tail failed to re-replicate "
                f"after failover — plan {lane_plan_repr}"
            )
        lane.source.reset_all_unacked()
        lane.source.ack_through(local_wm)
        lane.acked_watermark = max(lane.acked_watermark, local_wm)
        # The promoted journal durably holds everything through
        # durable_local, so delivery resumes just past it: retransmitted
        # items at or below arrive as duplicates and are discarded.
        lane.resequencer = Resequencer(next_seq=durable_local + 1)
        lane.channel.reset()
        fail_overs += 1

    lane_plan_repr = repr(plan)
    while any(not lane.done for lane in lanes):
        rounds += 1
        if rounds > max_rounds:
            outstanding = [(lane.shard, lane.source.outstanding) for lane in lanes]
            raise AssertionError(
                f"failover chaos run did not converge in {max_rounds} rounds "
                f"(outstanding per shard: {outstanding}) — plan {lane_plan_repr}"
            )
        for lane in lanes:
            if lane.partition_left > 0:
                # Primary unreachable: no ingest delivery, no replication
                # shipping; replicas idle at their last-applied position.
                lane.partition_left -= 1
                if lane.partition_left == 0 and lane.depose_on_heal:
                    lane.depose_on_heal = False
                    do_fail_over(lane)
                continue
            round_start = lane.group.primary.stats.events
            arrivals = lane.channel.transmit(lane.source.pending())
            ready = [env for arrival in arrivals for env in lane.resequencer.push(arrival)]
            for group in _chunks(ready, chunk):
                with lane.group.primary.transaction() if chunk > 1 else nullcontext():
                    for env in group:
                        before = lane.group.primary.stats.events
                        apply_item(lane.processor, env.item)
                        if lane.group.primary.stats.events == before:
                            # Journaled nothing: a deterministic no-op, safe to
                            # ack immediately (losing and redoing it is free).
                            lane.source.ack(env.seq)
            if lane.group.primary.stats.events == round_start:
                # Idle round: nothing journaled, so a partially filled
                # group-commit window would never reach its event bound.
                # A production WAL bounds the wait with a timer; model that
                # timer firing here, or the tail of the workload sits
                # unshipped (and unackable) forever.
                wal = lane.group.primary.wal
                if wal is not None:
                    wal.flush_commit_window()
            lane.group.pump(1)
            obs_wm = lane.group.obs_watermark()
            if obs_wm >= 0:
                local_wm = lane.g2l.get(obs_wm)
                if local_wm is not None and local_wm > lane.acked_watermark:
                    lane.acked_watermark = local_wm
                    lane.source.ack_through(local_wm)
            # Scheduled disasters trigger on the primary's journal growth.
            queue = pending_events.get(lane.shard, ())
            while queue and lane.group.primary.stats.events >= queue[0].at_events:
                event = queue.pop(0)
                lane.fired.append(event)
                if event.kind == "kill":
                    do_fail_over(lane)
                elif event.kind == "partition":
                    lane.partition_left = max(1, event.partition_rounds)
                    lane.depose_on_heal = event.depose
                    break  # the primary just went dark
                else:
                    raise ValueError(f"unknown failover event kind {event.kind!r}")

    # Quiesce: force any open group-commit window durable — batches only
    # become ship-eligible at their covering fsync — then let replication
    # drain so every replica converges too.
    for lane in lanes:
        wal = lane.group.primary.wal
        if wal is not None:
            wal.flush_commit_window()
        for _ in range(500):
            lane.group.pump(1)
            if lane.group.replicator.watermark() == len(lane.group.replicator.log) and all(
                r.acked_seq == len(lane.group.replicator.log)
                for r in lane.group.replicator.replicas
            ):
                break
        else:
            raise AssertionError(
                f"shard {lane.shard}: replicas failed to drain after the run "
                f"— plan {lane_plan_repr}"
            )

    oracle_journal = ShardedJournal(shard_map, snapshot_every=snapshot_every)
    oracle_processor = WriteSideProcessor(oracle_journal, EventBus())
    for item in items:
        apply_item(oracle_processor, item)

    return FailoverResult(
        lanes=lanes,
        oracle=oracle_journal,
        fail_overs=fail_overs,
        rounds=rounds,
        plan=plan,
    )


# -- the compaction chaos harness --------------------------------------------
#
# Compaction rewrites durable storage while ingest runs, so its failure
# modes are different from ingest crashes: the process can die between
# writing the new cold file, renaming it into place, swapping the
# manifest, and deleting the folded segments.  run_chaos_with_compaction
# interleaves compaction passes with the faulted ingest loop and can kill
# the process at any of those hooks; recovery must still converge to the
# *uncompacted* fault-free oracle at the read level.


def read_fingerprint(journal: Any) -> Dict[str, Any]:
    """Observable reads in comparable form, valid across compaction.

    ``journal_fingerprint`` pins internals (resident snapshots, tier
    watermarks) that compaction legitimately rewrites; this fingerprint
    pins only what a reader can observe — the stitched event stream,
    current state, and time-travel samples — in canonical JSON, so it is
    identical for a compacted journal and the uncompacted oracle.
    """
    from repro.pipeline import canonical_json

    out: Dict[str, Any] = {}
    for entity_id in sorted(journal.entity_ids()):
        events = journal.events_for(entity_id)
        times = [e.time for e in events]
        sample_times = sorted({times[0], times[len(times) // 2], times[-1]}) if times else []
        out[entity_id] = {
            "current": canonical_json(journal.reconstruct(entity_id)),
            "events": [
                (e.seq, e.time, e.kind, canonical_json(e.payload)) for e in events
            ],
            "samples": [
                canonical_json(journal.reconstruct(entity_id, at)) for at in sample_times
            ],
        }
    return out


@dataclass
class CompactionChaosResult:
    journal: EventJournal
    recovered: EventJournal
    crashes: int
    compaction_crashes: int
    recoveries: int
    compaction_runs: int
    events_folded: int
    leftovers_removed: int
    rounds: int


def run_chaos_with_compaction(
    items: List[Any],
    plan: FaultPlan,
    wal_dir: str,
    *,
    snapshot_every: int = SNAPSHOT_EVERY,
    segment_max_records: int = 16,
    compact_every_rounds: int = 2,
    min_sealed_segments: int = 2,
    crash_hooks: Tuple[str, ...] = (),
    chunk: int = 1,
    retry: Optional[RetryPolicy] = None,
    max_rounds: int = 3000,
) -> CompactionChaosResult:
    """run_chaos with periodic compaction passes and compaction kills.

    ``chunk`` > 1 commits every ``chunk`` consecutive items as one
    multi-entity WAL batch (the ingest-chunk commit unit) and acks them
    only once that batch has committed, so sealed segments hold
    chunk-sized records.

    ``crash_hooks`` is an ordered sequence of compactor hook names (from
    {"cold_written", "cold_renamed", "manifest_written", "mid_delete"}):
    each time a fold reaches the hook at the head of the remaining list,
    the compactor raises :class:`SimulatedCrash` there — modeling a
    process death between write-new / rename / manifest-swap /
    delete-old — and the next fold attempt targets the next entry.
    Recovery then rebuilds the journal from whatever mix of manifest,
    leftover segments, and orphan cold files the crash left behind.
    """
    from repro.pipeline import CrashPoint, SegmentCompactor

    retry = retry or RetryPolicy(max_attempts=6, base_delay=0.05)
    injector = plan.injector()
    remaining_hooks = list(crash_hooks)

    def crash_hook(hook: str) -> None:
        if remaining_hooks and remaining_hooks[0] == hook:
            remaining_hooks.pop(0)
            raise SimulatedCrash(CrashPoint(1, "after"))

    def fresh_processor(journal: EventJournal) -> WriteSideProcessor:
        return WriteSideProcessor(
            journal, EventBus(), faults=injector, retry=retry, dlq=DeadLetterQueue()
        )

    def fresh_compactor(journal: EventJournal) -> SegmentCompactor:
        return SegmentCompactor(
            journal,
            wal_dir,
            min_sealed_segments=min_sealed_segments,
            crash_hook=crash_hook,
        )

    journal = EventJournal(
        snapshot_every=snapshot_every,
        wal=WriteAheadLog(wal_dir, segment_max_records=segment_max_records),
        fault_injector=injector,
    )
    processor = fresh_processor(journal)
    compactor = fresh_compactor(journal)
    source = AtLeastOnceSource(items)
    resequencer = Resequencer()
    channel = FaultyChannel(injector)
    crashes = compaction_crashes = recoveries = rounds = 0
    compaction_runs = events_folded = leftovers_removed = 0

    def recover() -> None:
        nonlocal journal, processor, compactor, resequencer
        journal.close()
        journal = EventJournal.recover(
            wal_dir,
            snapshot_every,
            segment_max_records=segment_max_records,
            fault_injector=injector,
        )
        processor = fresh_processor(journal)
        compactor = fresh_compactor(journal)
        durable = max_durable_seq(journal)
        source.reset_all_unacked()
        source.ack_through(durable)
        resequencer = Resequencer(next_seq=durable + 1)
        channel.reset()

    while not source.done:
        rounds += 1
        if rounds > max_rounds:
            raise AssertionError(
                f"compaction chaos run did not converge in {max_rounds} rounds "
                f"({source.outstanding} items outstanding)"
            )
        arrivals = channel.transmit(source.pending())
        crashed = False
        try:
            ready = [item for arrival in arrivals for item in resequencer.push(arrival)]
            for group in _chunks(ready, chunk):
                with journal.transaction() if chunk > 1 else nullcontext():
                    for item in group:
                        apply_item(processor, item)
                # Acked only once the batch holding it has committed.
                for item in group:
                    source.ack(item_seq(item))
        except SimulatedCrash:
            crashes += 1
            recoveries += 1
            recover()
            crashed = True
        if crashed:
            continue
        if rounds % compact_every_rounds == 0:
            try:
                report = compactor.run_once()
            except SimulatedCrash:
                compaction_crashes += 1
                recoveries += 1
                recover()
            else:
                if report["folded"]:
                    compaction_runs += 1
                    events_folded += report["events"]

    # Drain the remaining scheduled compaction kills, then finish with a
    # clean pass so every grid exercises at least one completed fold.
    for _ in range(len(remaining_hooks) * 2 + 2):
        try:
            report = compactor.run_once()
        except SimulatedCrash:
            compaction_crashes += 1
            recoveries += 1
            recover()
            continue
        if report["folded"]:
            compaction_runs += 1
            events_folded += report["events"]
        if not remaining_hooks:
            break
    if remaining_hooks:
        raise AssertionError(
            f"scheduled compaction crashes never fired: {remaining_hooks} "
            "(workload too small to seal enough segments?)"
        )
    leftovers_removed = compactor.stats.leftovers_removed
    journal.close()
    recovered = EventJournal.recover(
        wal_dir, snapshot_every, segment_max_records=segment_max_records, reopen=False
    )
    # Ground truth for "how much actually folded": a crash at mid_delete
    # commits the manifest but raises before run_once returns, so the
    # run-report counters under-report; the manifest does not.
    if recovered.cold_store is not None:
        events_folded = max(events_folded, recovered.cold_store.manifest["stats"]["events"])
    return CompactionChaosResult(
        journal=journal,
        recovered=recovered,
        crashes=crashes,
        compaction_crashes=compaction_crashes,
        recoveries=recoveries,
        compaction_runs=compaction_runs,
        events_folded=events_folded,
        leftovers_removed=leftovers_removed,
        rounds=rounds,
    )
