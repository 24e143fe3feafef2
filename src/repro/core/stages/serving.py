"""The serving layer: lookup, search, and analytics surfaces.

The three read surfaces of the paper — the fast lookup API (journal
reconstruction + read-time enrichment), interactive search (the sharded
inverted index), and the analytics snapshot store — behind one object so
the facade, access-control client, and evaluation harness all query
through the same counted entry points.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.certs import cert_entity_id
from repro.core.stages.base import StageCounters
from repro.net import ip_to_str
from repro.pipeline import EventJournal, ReadSide, ReconstructionCache, host_entity_id
from repro.pipeline.sharding import ShardedJournal
from repro.search import QueryPlan, ShardedSearchIndex, SnapshotStore
from repro.simnet import SimulatedInternet

__all__ = ["ServingLayer"]


class ServingLayer:
    """Counted query surfaces over the journal, index, and snapshots."""

    def __init__(
        self,
        internet: SimulatedInternet,
        journal: Union[EventJournal, ShardedJournal],
        read_side: ReadSide,
        index: ShardedSearchIndex,
        analytics: Optional[SnapshotStore] = None,
        reconstruction_cache: Optional[ReconstructionCache] = None,
        replication: Optional[Any] = None,
    ) -> None:
        self.internet = internet
        self.journal = journal
        self.read_side = read_side
        self.index = index
        self.analytics = analytics or SnapshotStore()
        #: Versioned memo over journal.reconstruct; None = uncached reads.
        self.reconstruction_cache = reconstruction_cache
        #: Bounded-staleness replica reads (a ReplicationManager); None or
        #: a manager with serve_reads=False keeps every read on the primary.
        self.replication = replication
        self.counters = StageCounters(
            lookups_served=0,
            replica_lookups_served=0,
            searches_served=0,
            histories_served=0,
            snapshots_taken=0,
            documents_exported=0,
        )

    def entity_for_ip(self, ip_index: int) -> str:
        return host_entity_id(ip_to_str(self.internet.space.ip_at(ip_index)))

    # -- the fast lookup API --------------------------------------------------

    def lookup_host(self, ip_index: int, at: Optional[float] = None) -> Dict[str, Any]:
        """Host state by address (and timestamp), enriched at read time.

        With replication enabled for reads, an eligible replica (within
        the staleness bound AND holding the entity at the primary's exact
        version — so the answer is bit-identical and read-your-writes
        holds) serves the lookup; otherwise the primary does.
        """
        self.counters.bump("lookups_served")
        entity_id = self.entity_for_ip(ip_index)
        if self.replication is not None:
            replica = self.replication.replica_for_read(entity_id)
            if replica is not None:
                self.counters.bump("replica_lookups_served")
                return self.read_side.lookup(entity_id, at=at, journal=replica)
        return self.read_side.lookup(entity_id, at=at)

    def host_view(self, ip_index: int, at: Optional[float] = None):
        """Typed variant of :meth:`lookup_host` (a HostView dataclass)."""
        from repro.entities import HostView

        return HostView.from_view(self.lookup_host(ip_index, at=at))

    def certificate_view(self, sha256: str):
        """Typed certificate lookup by fingerprint."""
        from repro.entities import CertificateView

        return CertificateView.from_state(self._reconstruct(cert_entity_id(sha256)))

    def _reconstruct(self, entity_id: str) -> Dict[str, Any]:
        if self.reconstruction_cache is not None:
            return self.reconstruction_cache.reconstruct(entity_id)
        return self.journal.reconstruct(entity_id)

    def lookup_many(
        self, ip_indexes: List[int], at: Optional[float] = None
    ) -> List[Dict[str, Any]]:
        """Batch host lookup: :meth:`lookup_host` per address, in input order.

        Equal to N single lookups in answers and in every counter,
        replica reads included.  It runs on the caller's thread: the
        journal shards are in-process, so a pool would overlap nothing
        under the interpreter lock (DESIGN §5d).
        """
        return [self.lookup_host(i, at=at) for i in ip_indexes]

    def host_history(
        self,
        ip_index: int,
        since_seq: int = 0,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """The host-history API: the entity's journaled events in order.

        Serves from the stitched event stream — compaction may have folded
        old history into the cold tier, and this surface transparently
        reads across the fold boundary, so the answer is identical with
        and without compaction.  Each row is a JSON-able dict.
        """
        self.counters.bump("histories_served")
        entity_id = self.entity_for_ip(ip_index)
        events = self.journal.events_for(entity_id, since_seq=since_seq)
        if limit is not None:
            events = events[:limit]
        return [
            {
                "entity_id": event.entity_id,
                "seq": event.seq,
                "time": event.time,
                "kind": event.kind,
                "payload": event.payload,
            }
            for event in events
        ]

    # -- interactive search ----------------------------------------------------

    def search(
        self, query: Union[str, "QueryPlan"], limit: Optional[int] = None
    ) -> List[str]:
        """Interactive search; accepts query text or a pre-compiled plan
        (strings compile once through the process-wide plan cache)."""
        self.counters.bump("searches_served")
        return self.index.search(query, limit=limit)

    def search_many(
        self, queries: List[Union[str, "QueryPlan"]], limit: Optional[int] = None
    ) -> List[List[str]]:
        """Batch search: :meth:`search` per query, in input order, on the
        caller's thread (each query's shard scatter is already a loop)."""
        return [self.search(q, limit=limit) for q in queries]

    # -- analytics / raw data --------------------------------------------------

    def snapshot_now(self, now: float) -> int:
        """Store the current map into the analytics snapshot store."""
        day = int(now // 24.0)
        docs = [dict(doc) for _doc_id, doc in self.index.items()]
        self.analytics.store(day, docs)
        self.counters.bump("snapshots_taken")
        return len(docs)

    def export_snapshot(self, path) -> int:
        """Raw data download: dump the current map as JSON-lines.

        Stands in for the paper's daily Apache Avro snapshots (academic
        researchers prefer full downloads over APIs, §5.3).
        """
        count = 0
        with Path(path).open("w") as handle:
            for doc_id, doc in self.index.items():
                handle.write(json.dumps({"entity_id": doc_id, **doc},
                                        default=str, sort_keys=True))
                handle.write("\n")
                count += 1
        self.counters.bump("documents_exported", count)
        return count
