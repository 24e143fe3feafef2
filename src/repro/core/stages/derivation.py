"""The derivation stage: asynchronous enrich + reindex consumers.

Everything downstream of the bus that turns journal state into serving
state lives here: the dirty-set reindexer that keeps the search shards in
sync with the write side, the certificate processing pipeline (CT log,
CRLs, revalidation), and the keyspace-sharded secondary indexes.  All of
it is fed by bus messages — never inline with ingestion.
"""

from __future__ import annotations

from typing import Any, Dict, Union

from repro.certs import CaWorld, CertificateProcessor, CrlRegistry, CtLog, cert_entity_id
from repro.core.secondary import ShardedSecondaryIndexes
from repro.core.stages.base import StageCounters
from repro.pipeline import EventBus, EventJournal, ReadSide
from repro.pipeline.sharding import ShardedJournal
from repro.search import (
    ShardedSearchIndex,
    flatten_certificate_state,
    flatten_host_view,
    flatten_webproperty_view,
)

__all__ = ["DerivationStage"]

#: Write-side topics whose entities must be reindexed for search.
REINDEX_TOPICS = (
    "service_found",
    "service_changed",
    "service_removed",
    "service_unresponsive",
    "host_pseudo_flagged",
)


class DerivationStage:
    """Bus-fed enrichment, certificate processing, and search reindexing."""

    def __init__(
        self,
        journal: Union[EventJournal, ShardedJournal],
        bus: EventBus,
        read_side: ReadSide,
        index: ShardedSearchIndex,
        ca_world: CaWorld,
        crl: CrlRegistry,
        ct_log: CtLog,
        shard_map=None,
    ) -> None:
        self.journal = journal
        self.read_side = read_side
        self.index = index
        self.ca_world = ca_world
        self.crl = crl
        self.ct_log = ct_log
        #: Entities to reindex, in first-dirtied order (a dict, not a set:
        #: index ``items()`` order and the notification stream follow this
        #: order, so it must not depend on the interpreter's hash seed).
        self._dirty: Dict[str, None] = {}
        self.cert_processor = CertificateProcessor(
            journal, ca_world, crl, ct_log, on_processed=self._index_certificate
        )
        # Subscription order is load-bearing: per-topic delivery follows
        # subscription order, and the seed platform registered the dirty
        # marker, then the TLS handler, then the secondary tables.
        for topic in REINDEX_TOPICS:
            bus.subscribe(topic, self._mark_dirty_message)
        bus.subscribe("service_found", self._on_tls_service)
        bus.subscribe("service_changed", self._on_tls_service)
        self.secondary = ShardedSecondaryIndexes(bus, shard_map)
        #: Optional standing-query engine fed by every reindex/deindex
        #: (attached by the platform when subscriptions are enabled; None
        #: keeps this stage byte-identical to the pre-subscription path).
        self.subscriptions = None
        self.counters = StageCounters(
            reindexed_entities=0,
            deindexed_entities=0,
            certificates_indexed=0,
        )

    # -- bus handlers ---------------------------------------------------------

    def _mark_dirty_message(self, message: Dict[str, Any]) -> None:
        self._dirty[message["entity_id"]] = None

    def mark_dirty(self, entity_id: str) -> None:
        self._dirty[entity_id] = None

    def _on_tls_service(self, message: Dict[str, Any]) -> None:
        record = message.get("record") or {}
        if not record.get("tls.certificate_sha256"):
            return
        self.cert_processor.observe_tls_scan(message)

    def _index_certificate(self, cert, time: float) -> None:
        entity = cert_entity_id(cert.sha256)
        doc = flatten_certificate_state(self.journal.reconstruct(entity))
        self.index.put(entity, doc)
        self.counters.bump("certificates_indexed")
        if self.subscriptions is not None:
            self.subscriptions.on_document(entity, doc, now=time)

    # -- the stage interface ---------------------------------------------------

    def advance(self) -> int:
        """Reindex every entity dirtied since the last pass.

        Amortized: reconstructions happen per entity (they must — each
        reads its own journal state), but the index writes go through one
        ``put_many`` per pass and the subscription engine is fed one
        entity-coalesced ``on_documents`` batch.  Both batch paths
        keep the order entities were first dirtied in (the dirty set is
        insertion-ordered, so the order is the same under every hash
        seed), the set holds each entity at most once, and puts/deletes target
        disjoint ids within a pass — so documents, ``items()`` order, and
        the notification transition stream (sequence numbers included)
        are identical to the per-event loop; only the per-shard
        generation arithmetic coarsens (one bump per touched shard per
        pass), which query caches treat as extra invalidation, never
        staleness.
        """
        reindexed = 0
        subs = self.subscriptions
        puts: list = []
        sub_updates: list = []
        for entity_id in self._dirty:
            doc = None
            if entity_id.startswith("host:"):
                view = self.read_side.lookup(entity_id)
                if view["services"]:
                    doc = flatten_host_view(view)
            elif entity_id.startswith(("web:", "host6:")):
                view = self.read_side.lookup(entity_id, enrich=False)
                if view["services"]:
                    doc = flatten_webproperty_view(view)
            else:
                continue
            if doc is not None:
                puts.append((entity_id, doc))
                reindexed += 1
            else:
                self.index.delete(entity_id)
                self.counters.bump("deindexed_entities")
            sub_updates.append((entity_id, doc))
        if puts:
            self.index.put_many(puts)
        if subs is not None and sub_updates:
            subs.on_documents(sub_updates)
        self._dirty.clear()
        self.counters.bump("reindexed_entities", reindexed)
        return reindexed

    def daily(self, now: float) -> None:
        """CT polling and certificate revalidation (daily housekeeping).

        One WAL batch per shard for the whole pass; the platform flushes
        the commit windows before anything downstream acts on it.
        """
        with self.journal.transaction():
            self.cert_processor.poll_ct(now)
            self.cert_processor.revalidate_all(now)
