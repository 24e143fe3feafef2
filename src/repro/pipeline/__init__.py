"""CQRS data pipeline: events, journal, snapshots, write/read sides, queues.

Durability and fault tolerance layer on the same surface: a write-ahead
log backend (``wal``), crash recovery (``EventJournal.recover``), seeded
fault injection (``faults``), retry/dead-letter policies (``reliability``),
and an at-least-once delivery simulation (``delivery``).
"""

from repro.pipeline.cache import CacheStats, ReconstructionCache, VersionedLRU
from repro.pipeline.delivery import AtLeastOnceSource, FaultyChannel, Resequencer
from repro.pipeline.events import Event, EventKind, service_key
from repro.pipeline.executors import (
    SerialExecutor,
    ShardExecutor,
    ThreadShardExecutor,
    make_executor,
)
from repro.pipeline.faults import (
    CrashPoint,
    FaultInjector,
    FaultPlan,
    SimulatedCrash,
    TransientScanError,
)
from repro.pipeline.compaction import (
    ColdStore,
    CompactionStats,
    SegmentCompactor,
    ShardedCompactor,
    compact_journal_in_memory,
)
from repro.pipeline.journal import CompactionAnchor, EventJournal, JournalStats
from repro.pipeline.queues import EventBus
from repro.pipeline.replication import (
    BatchLog,
    ReplicaState,
    ReplicatedShard,
    ReplicationBatch,
    ReplicationError,
    ReplicationManager,
    ShardReplicator,
)
from repro.pipeline.sharding import ShardMap, ShardRecoveryError, ShardedJournal
from repro.pipeline.read_side import Enricher, ReadSide
from repro.pipeline.reliability import DeadLetter, DeadLetterQueue, RetryPolicy
from repro.pipeline.state import (
    apply_event,
    canonical_json,
    live_services,
    new_entity_state,
    state_digest,
)
from repro.pipeline.wal import WalCorruptionError, WriteAheadLog
from repro.pipeline.write_side import (
    ScanObservation,
    WriteSideProcessor,
    WriteStats,
    host_entity_id,
)

# Imported last: subscriptions pulls in repro.search (for compiled query
# plans), whose modules import repro.pipeline submodules — keeping this
# import at the tail means the package namespace above is already built
# if that chain re-enters this partially-initialized package.
from repro.pipeline.subscriptions import (  # noqa: E402
    Notification,
    NotificationDeliverer,
    Subscription,
    SubscriptionEngine,
    anchor_tokens,
    subscription_entity_id,
)

__all__ = [
    "Event",
    "EventKind",
    "service_key",
    "EventJournal",
    "JournalStats",
    "CacheStats",
    "ReconstructionCache",
    "VersionedLRU",
    "ShardMap",
    "ShardedJournal",
    "ShardRecoveryError",
    "EventBus",
    "ReadSide",
    "Enricher",
    "apply_event",
    "new_entity_state",
    "live_services",
    "ScanObservation",
    "WriteSideProcessor",
    "WriteStats",
    "host_entity_id",
    # Durability & fault tolerance
    "WriteAheadLog",
    "WalCorruptionError",
    "FaultPlan",
    "FaultInjector",
    "CrashPoint",
    "SimulatedCrash",
    "TransientScanError",
    "RetryPolicy",
    "DeadLetter",
    "DeadLetterQueue",
    "AtLeastOnceSource",
    "FaultyChannel",
    "Resequencer",
    # Parallel shard execution
    "ShardExecutor",
    "SerialExecutor",
    "ThreadShardExecutor",
    "make_executor",
    # Replication & failover
    "ReplicationBatch",
    "ReplicationError",
    "ReplicaState",
    "ShardReplicator",
    "ReplicatedShard",
    "ReplicationManager",
    "BatchLog",
    # Compaction & tiered storage
    "ColdStore",
    "CompactionAnchor",
    "CompactionStats",
    "SegmentCompactor",
    "ShardedCompactor",
    "compact_journal_in_memory",
    "canonical_json",
    "state_digest",
    # Standing queries
    "Notification",
    "NotificationDeliverer",
    "Subscription",
    "SubscriptionEngine",
    "anchor_tokens",
    "subscription_entity_id",
]
