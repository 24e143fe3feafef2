"""The Censys platform facade: composable pipeline stages over a
keyspace-sharded journal/index layer.

``CensysPlatform`` no longer implements the pipeline — it *wires* it.
Each tick advances five independently scalable stages (mirroring the
production system's decomposition):

1. :class:`~repro.core.stages.DiscoveryStage` — TCP/UDP discovery tiers,
   predictive proposals, re-injections, due refreshes, and web-property
   name discovery feed the deduplicating scan queue;
2. :class:`~repro.core.stages.InterrogationStage` — workers drain the
   queue: protocol detection, full handshakes, refresh fast-paths,
   multi-PoP retry;
3. :class:`~repro.core.stages.IngestStage` — the CQRS write side journals
   deltas into per-shard journals and pumps follow-up work onto the bus;
4. :class:`~repro.core.stages.DerivationStage` — asynchronous consumers:
   search reindexing, certificate processing, secondary indexes;
5. :class:`~repro.core.stages.ServingLayer` — lookup, search, and
   analytics read surfaces.

Storage is partitioned by a deterministic
:class:`~repro.pipeline.sharding.ShardMap`; ``shards=1`` (the default) is
bit-identical to the unsharded seed platform, and ``shards=N`` keeps all
query results invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.certs import CaWorld, CrlRegistry, CtLog, seed_ct_log_from_workload
from repro.core.scheduler import RefreshScheduler
from repro.core.stages import (
    DerivationStage,
    DiscoveryStage,
    IngestStage,
    InterrogationStage,
    ServingLayer,
    TierSweep,
)
from repro.enrich import GeoIpRegistry, WhoisRegistry, standard_enrichers
from repro.pipeline import (
    EventBus,
    ReadSide,
    ReconstructionCache,
    ShardMap,
    ShardedJournal,
    WriteSideProcessor,
    make_executor,
)
from repro.protocols import Interrogator, ProtocolRegistry, default_registry
from repro.scan import (
    PredictiveEngine,
    ScanQueue,
    default_pops,
    make_background_tier,
    make_cloud_tier,
    make_priority_tier,
    make_udp_tier,
    priority_ports,
)
from repro.scan.exclusions import ExclusionList
from repro.scan.pop import PointOfPresence
from repro.search import ShardedSearchIndex
from repro.simnet import DAY, SimClock, SimulatedInternet
from repro.simnet.instances import ServiceInstance
from repro.webprops import NameFeed, WebPropertyScanner

__all__ = ["PlatformConfig", "CensysPlatform"]


@dataclass(slots=True)
class PlatformConfig:
    """Operational policy knobs (the paper's headline numbers as defaults)."""

    priority_cycle_hours: float = 24.0
    cloud_cycle_hours: float = 24.0
    background_ports_per_ip_per_day: float = 100.0
    refresh_interval_hours: float = 24.0
    eviction_after_hours: float = 72.0
    predictive_enabled: bool = True
    predictive_daily_budget: int = 4000
    reinject_window_hours: float = 60 * DAY
    webprop_refresh_hours: float = 30 * DAY
    filter_pseudo_services: bool = True
    snapshot_daily: bool = False
    #: L7 interrogations per simulated hour (None: unbounded).
    l7_capacity_per_hour: Optional[int] = None
    scanner_id: str = "censys"
    seed: int = 0
    #: Keyspace shards for the journal/index layer (1 = unsharded).
    shards: int = 1
    #: Directory for per-shard write-ahead logs (None = in-memory journal).
    wal_dir: Optional[str] = None
    #: Group-commit window for durable shards: fsync after this many WAL
    #: batches (1 = fsync-per-batch, the reference).  Inside a tick the
    #: window is what a crash can lose; every tick (and every
    #: ``ingest_many``) ends with a flush, before replication ships or
    #: subscriptions deliver, so zero acked-write loss holds at any size.
    group_commit_events: int = 1
    #: Byte bound on the group-commit window (None = event bound only).
    group_commit_bytes: Optional[int] = None
    #: Max observations per batched ingest call from the interrogation
    #: drain (1 = per-event reference path; any size is bit-identical).
    ingest_batch: int = 64
    #: Versioned read-path caches (reconstruction, view, query-result).
    #: False = the bit-identical uncached reference configuration.
    read_cache: bool = True
    reconstruction_cache_entries: int = 4096
    view_cache_entries: int = 4096
    query_cache_entries: int = 256
    #: Per-shard fan-out backend: "serial" (the bit-identical reference),
    #: "thread", or a ShardExecutor instance.
    executor: Any = "serial"
    #: Worker count for pooled executors (None = backend default).
    executor_workers: Optional[int] = None
    #: Replica journals per shard (0 = no replication: the pre-replication
    #: platform, bit-identical).  Requires ``wal_dir`` — replication ships
    #: committed WAL batches, so shards must be durable.
    replication_factor: int = 0
    #: Replicas that must hold a batch before it counts as acknowledged
    #: (None = all of them; see pipeline/replication.py watermark notes).
    replication_ack_replicas: Optional[int] = None
    #: Serve single-host lookups from replicas when within the staleness
    #: bound below (batch endpoints always read the primary).
    replica_reads: bool = False
    #: Staleness bound for replica reads, in whole-shard journal events
    #: (0 = only fully caught-up replicas may serve).
    replica_max_lag_events: int = 0
    #: Optional FaultPlan for the simulated replication transport (chaos
    #: tests; None = perfect links).
    replication_plan: Any = None
    #: Background journal compaction: fold sealed WAL segments into the
    #: per-shard cold tier (requires ``wal_dir``).  False = the
    #: uncompacted reference; reads are bit-identical either way.
    compaction: bool = False
    #: Simulated hours between compaction passes.
    compaction_interval_hours: float = 24.0
    #: Sealed segments a shard must accumulate before a fold runs.
    compaction_min_sealed_segments: int = 4
    #: Upper bound on sealed segments folded per pass per shard.
    compaction_max_segments_per_run: int = 64
    #: Also fold replica journals (and freeze acked batch-log prefixes)
    #: during each compaction pass when replication is enabled.
    compaction_replicas: bool = True
    #: Standing-query subscriptions: registered plans evaluated
    #: incrementally on every reindex (False = off, the bit-identical
    #: default used by every committed experiment run).
    subscriptions: bool = False
    #: Optional FaultPlan for the notification delivery channel (chaos
    #: tests; None = perfect delivery).
    subscription_delivery_plan: Any = None


class CensysPlatform:
    """Composition root: builds the shared substrate, wires the stages."""

    def __init__(
        self,
        internet: SimulatedInternet,
        config: Optional[PlatformConfig] = None,
        pops: Optional[List[PointOfPresence]] = None,
        registry: Optional[ProtocolRegistry] = None,
        start_time: Optional[float] = None,
    ) -> None:
        self.internet = internet
        self.config = cfg = config or PlatformConfig()
        self.registry = registry or default_registry()
        self.pops = pops or default_pops()
        start = start_time if start_time is not None else internet.workload.config.t_start
        self.clock = SimClock(start)
        self._start_time = start
        sid = cfg.scanner_id

        # -- sharded storage substrate ------------------------------------
        self.shard_map = ShardMap(cfg.shards)
        self.executor = make_executor(cfg.executor, workers=cfg.executor_workers)
        if cfg.wal_dir:
            self.journal = ShardedJournal.durable(
                cfg.wal_dir,
                self.shard_map,
                group_commit_events=cfg.group_commit_events,
                group_commit_bytes=cfg.group_commit_bytes,
            )
        else:
            self.journal = ShardedJournal(self.shard_map)
        self.replication = None
        if cfg.replication_factor > 0:
            if not cfg.wal_dir:
                raise ValueError(
                    "replication_factor > 0 requires wal_dir: replication ships "
                    "committed WAL batches, so shard journals must be durable"
                )
            from repro.pipeline.replication import ReplicationManager

            self.replication = ReplicationManager(
                self.journal,
                cfg.replication_factor,
                cfg.wal_dir,
                plan=cfg.replication_plan,
                ack_replicas=cfg.replication_ack_replicas,
                serve_reads=cfg.replica_reads,
                max_lag_events=cfg.replica_max_lag_events,
                executor=self.executor,
            )
        self.compactor = None
        if cfg.compaction:
            if not cfg.wal_dir:
                raise ValueError(
                    "compaction=True requires wal_dir: compaction folds sealed "
                    "WAL segments, so shard journals must be durable"
                )
            from repro.pipeline.compaction import ShardedCompactor

            self.compactor = ShardedCompactor(
                self.journal.journals,
                [
                    self.shard_map.shard_dir(cfg.wal_dir, shard)
                    for shard in range(self.shard_map.shards)
                ],
                min_sealed_segments=cfg.compaction_min_sealed_segments,
                max_segments_per_run=cfg.compaction_max_segments_per_run,
                batch_limit_for=(
                    self.replication.batch_limit_for if self.replication is not None else None
                ),
            )
        self.bus = EventBus()
        self.write_side = WriteSideProcessor(
            self.journal, self.bus, filter_pseudo_services=cfg.filter_pseudo_services
        )
        self.geoip = GeoIpRegistry(internet.topology)
        self.whois = WhoisRegistry(internet.topology)
        self.reconstruction_cache = (
            ReconstructionCache(self.journal, cfg.reconstruction_cache_entries)
            if cfg.read_cache
            else None
        )
        self.read_side = ReadSide(
            self.journal,
            standard_enrichers(internet.space, self.geoip, self.whois),
            cache=self.reconstruction_cache,
            view_cache_entries=cfg.view_cache_entries if cfg.read_cache else 0,
        )
        self.index = ShardedSearchIndex(
            self.shard_map,
            query_cache_entries=cfg.query_cache_entries if cfg.read_cache else 0,
            executor=self.executor,
        )

        # -- shared scanning components ------------------------------------
        tiers = [
            make_priority_tier(internet, cfg.priority_cycle_hours, seed=cfg.seed + 11, scanner_id=sid),
            make_udp_tier(internet, cfg.priority_cycle_hours, seed=cfg.seed + 13, scanner_id=sid),
        ]
        cloud = make_cloud_tier(internet, cfg.cloud_cycle_hours, seed=cfg.seed + 17, scanner_id=sid)
        if cloud is not None:
            tiers.append(cloud)
        tiers.append(
            make_background_tier(
                internet, cfg.background_ports_per_ip_per_day, seed=cfg.seed + 19, scanner_id=sid
            )
        )
        self.queue = ScanQueue()
        self.interrogator = Interrogator(self.registry)
        self.exclusions = ExclusionList(internet.space)
        self.predictive = PredictiveEngine(
            internet.topology, reinject_window_hours=cfg.reinject_window_hours, seed=cfg.seed + 23
        )
        self.scheduler = RefreshScheduler(
            refresh_interval=cfg.refresh_interval_hours, eviction_after=cfg.eviction_after_hours
        )

        # -- certificates and web properties --------------------------------
        self.ca_world = CaWorld()
        self.crl = CrlRegistry()
        self.ct_log = CtLog()
        seed_ct_log_from_workload(internet, self.ca_world, self.ct_log)
        self.name_feed = NameFeed(internet.workload, self.ct_log, seed=cfg.seed)
        self.web_scanner = WebPropertyScanner(internet, self.interrogator, scanner_id=sid)

        # -- the stages ------------------------------------------------------
        self.ingest = IngestStage(self.journal, self.bus, self.write_side)
        self.derivation = DerivationStage(
            self.journal, self.bus, self.read_side, self.index,
            self.ca_world, self.crl, self.ct_log, self.shard_map,
        )
        self.subscriptions = None
        if cfg.subscriptions:
            from repro.pipeline import SubscriptionEngine

            self.subscriptions = SubscriptionEngine(
                journal=self.journal,
                delivery_plan=cfg.subscription_delivery_plan,
                clock=lambda: self.clock.now,
            )
            # A recovered WAL may already hold journaled registrations.
            if self.subscriptions.restore() > 0:
                self.subscriptions.resync(self.index.items())
            self.derivation.subscriptions = self.subscriptions
        self.discovery = DiscoveryStage(
            internet, TierSweep(tiers), self.queue, self.pops, self.exclusions,
            self.predictive, self.scheduler, self.name_feed,
            predictive_enabled=cfg.predictive_enabled,
            predictive_daily_budget=cfg.predictive_daily_budget,
            webprop_refresh_hours=cfg.webprop_refresh_hours,
        )
        self.interrogation = InterrogationStage(
            internet, self.interrogator, self.queue, self.pops, self.exclusions,
            self.scheduler, self.predictive, self.ingest, self.web_scanner,
            frozenset(priority_ports()),
            scanner_id=sid, l7_capacity_per_hour=cfg.l7_capacity_per_hour,
            ingest_batch=cfg.ingest_batch,
            executor=self.executor,
        )
        self.serving = ServingLayer(
            internet, self.journal, self.read_side, self.index,
            reconstruction_cache=self.reconstruction_cache,
            executor=self.executor,
            replication=self.replication,
        )
        self.stages = [
            self.discovery, self.interrogation, self.ingest, self.derivation, self.serving
        ]

        # -- aliases kept for the public API --------------------------------
        self.secondary = self.derivation.secondary
        self.cert_processor = self.derivation.cert_processor
        self.analytics = self.serving.analytics
        self._last_daily = self.clock.now
        self._last_compaction = self.clock.now

    # -- main loop ----------------------------------------------------------

    def run_until(self, t_end: float, tick_hours: float = 6.0) -> None:
        """Advance the platform (and simulated time) to ``t_end``."""
        while self.clock.now < t_end - 1e-9:
            dt = min(tick_hours, t_end - self.clock.now)
            self.tick(dt)

    def tick(self, dt: float = 6.0) -> None:
        """One slice of simulated time through every stage, in stage order."""
        t0 = self.clock.now
        due_names = self.discovery.advance(t0, dt)
        self.interrogation.scan_web_properties(due_names, t0 + dt, self.derivation.mark_dirty)
        self.clock.advance(dt)
        now = self.clock.now
        self.interrogation.advance(now, dt)
        # Pump the bus first — consumers journal too (the certificate
        # processor appends CERT_OBSERVED on TLS messages) — then ack: the
        # drain above only committed into the group-commit windows, and
        # this flush makes the whole tick's writes durable before anything
        # acts on them.  Replication must not ship and subscriptions must
        # not deliver an event whose covering fsync has not happened yet.
        self.ingest.pump()
        self.ingest.ack()
        if self.replication is not None:
            self.replication.pump()
        self.derivation.advance()
        if self.subscriptions is not None:
            self.subscriptions.pump_delivery()
        if now - self._last_daily >= 24.0:
            self._daily_housekeeping(now)
            self._last_daily = now
        if (
            self.compactor is not None
            and now - self._last_compaction >= self.config.compaction_interval_hours
        ):
            self.compact_now()
            self._last_compaction = now

    def _daily_housekeeping(self, now: float) -> None:
        self.ingest.evict_due(now, self.scheduler, self.predictive)
        self.derivation.daily(now)
        self.ingest.pump()
        self.ingest.ack()
        if self.replication is not None:
            self.replication.pump()
        self.derivation.advance()
        if self.config.snapshot_daily:
            self.snapshot_now()

    # -- operational controls ------------------------------------------------

    @property
    def tiers(self) -> List:
        return self.discovery.tiers

    @tiers.setter
    def tiers(self, value: List) -> None:
        self.discovery.sweep.tiers = list(value)

    @property
    def observations_processed(self) -> int:
        return self.interrogation.counters["interrogations_run"]

    def trigger_cve_response(
        self, cve_id: str, ports: List[int], duration_days: float = 21.0, cycle_hours: float = 6.0
    ):
        """Scan CVE-relevant ports more frequently for several weeks (§4.1).

        Returns the temporary tier; it retires automatically after
        ``duration_days``.
        """
        from repro.net import ProbeSpace
        from repro.scan.tiers import DiscoveryTier

        space = ProbeSpace.single_range(0, self.internet.space.size, ports)
        tier = DiscoveryTier(
            f"cve-response-{cve_id}", self.internet, space,
            rate_per_hour=space.size / cycle_hours,
            seed=self.config.seed + len(self.discovery.cve_tiers) + 101,
            scanner_id=self.config.scanner_id,
        )
        self.discovery.add_cve_tier(tier, self.clock.now + duration_days * 24.0)
        return tier

    def request_exclusion(self, cidr, organization: str, whois_verified: bool = True):
        """File an operator opt-out (the §8 process) at the current time."""
        return self.exclusions.request_exclusion(
            cidr, organization, self.clock.now, whois_verified=whois_verified
        )

    def ingest_many(self, observations: List[Any]) -> List[Optional[str]]:
        """Bulk-apply pre-built scan observations (the batched write facade).

        Observations are shard-grouped and whole groups ingest through the
        configured executor; the result list is per-observation journal
        event kinds, in input order, bit-identical to submitting one at a
        time.  This is the one place a caller is handed an ack, so all
        group-commit windows are flushed before returning: every acked
        observation is durable.
        """
        kinds = self.ingest.submit_many(observations, executor=self.executor)
        self.ingest.ack()
        return kinds

    def request_scan(self, ip_index: int, port: int, transport: str = "tcp") -> None:
        """Real-time user scan requests jump the queue."""
        self.queue.push_new(ip_index, port, transport, source="user", not_before=self.clock.now)

    def fail_over(self, shard: int):
        """Kill one shard's primary journal and promote its most-advanced
        replica (chaos drills / injected node loss).

        Read caches are cleared afterwards: the promoted journal's version
        counters can sit *below* values already cached for the dead
        primary, which lazy version-equality checks cannot distinguish
        from 'unchanged'.  Derived stores (search index, secondary pivots)
        are not rolled back; see DESIGN.md §5e.  Returns the promoted
        :class:`~repro.pipeline.journal.EventJournal`.
        """
        if self.replication is None:
            raise RuntimeError("fail_over requires replication_factor > 0")
        promoted = self.replication.fail_over(shard)
        self.read_side.clear_caches()
        if self.compactor is not None:
            self.compactor.rebind(shard, promoted, promoted.wal.directory)
        return promoted

    def compact_now(self) -> List[Dict[str, Any]]:
        """Run one compaction pass over every shard (and the replicas).

        Returns the per-shard fold reports.  Compaction never changes what
        reads return — it folds superseded history into the cold tier and
        leaves every entity's version counter untouched, so warm read
        caches stay valid.
        """
        if self.compactor is None:
            raise RuntimeError("compact_now requires compaction=True")
        reports = self.compactor.run_once()
        if self.replication is not None and self.config.compaction_replicas:
            self.replication.compact_replicas()
        return reports

    def on_new_endpoints(self, instances: List[ServiceInstance]) -> None:
        """Notify running tiers about endpoints injected mid-run (honeypots)."""
        self.discovery.sweep.notify_new_instances(instances)

    # -- read surfaces (delegating to the serving layer) ---------------------

    def entity_for_ip(self, ip_index: int) -> str:
        return self.serving.entity_for_ip(ip_index)

    def lookup_host(self, ip_index: int, at: Optional[float] = None) -> Dict[str, Any]:
        """The Fast Lookup API: host state by address (and timestamp)."""
        return self.serving.lookup_host(ip_index, at=at)

    def lookup_many(
        self, ip_indexes: List[int], at: Optional[float] = None
    ) -> List[Dict[str, Any]]:
        """Batch host lookup, overlapped across shards by the executor."""
        return self.serving.lookup_many(ip_indexes, at=at)

    def host_view(self, ip_index: int, at: Optional[float] = None):
        """Typed variant of :meth:`lookup_host` (a HostView dataclass)."""
        return self.serving.host_view(ip_index, at=at)

    def certificate_view(self, sha256: str):
        """Typed certificate lookup by fingerprint."""
        return self.serving.certificate_view(sha256)

    def host_history(
        self, ip_index: int, since_seq: int = 0, limit: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """The host-history API: a host's journaled events in order
        (stitched across the compaction fold boundary when enabled)."""
        return self.serving.host_history(ip_index, since_seq=since_seq, limit=limit)

    def search(self, query: str, limit: Optional[int] = None) -> List[str]:
        """The interactive search interface."""
        return self.serving.search(query, limit=limit)

    def search_many(
        self, queries: List[str], limit: Optional[int] = None
    ) -> List[List[str]]:
        """Batch search, overlapped across queries by the executor."""
        return self.serving.search_many(queries, limit=limit)

    # -- standing queries -----------------------------------------------------

    def subscribe(self, query: str, sub_id: Optional[str] = None) -> str:
        """Register a standing query; notifications arrive as the map
        changes (``config.subscriptions=True`` required)."""
        if self.subscriptions is None:
            raise RuntimeError("subscribe requires PlatformConfig(subscriptions=True)")
        return self.subscriptions.subscribe(query, sub_id=sub_id, now=self.clock.now)

    def unsubscribe(self, sub_id: str) -> bool:
        """Cancel a standing query (journaled; survives recovery)."""
        if self.subscriptions is None:
            raise RuntimeError("unsubscribe requires PlatformConfig(subscriptions=True)")
        return self.subscriptions.unsubscribe(sub_id, now=self.clock.now)

    def drain_notifications(self) -> List[Dict[str, Any]]:
        """Pump delivery and hand over every notification that arrived."""
        if self.subscriptions is None:
            return []
        return self.subscriptions.drain_notifications()

    def close(self) -> None:
        """Release the executor's worker pool and close the journal WALs.

        Idempotent; safe to call while reads are in flight (the journal's
        close-once guard serialises against them).  Required for platforms
        built with ``executor="thread"`` so worker threads do not outlive
        the platform.
        """
        if self.replication is not None:
            self.replication.close()
        self.journal.close()
        self.executor.close()

    def snapshot_now(self) -> int:
        """Store the current map into the analytics snapshot store."""
        return self.serving.snapshot_now(self.clock.now)

    def export_snapshot(self, path) -> int:
        """Raw data download: dump the current map as JSON-lines."""
        return self.serving.export_snapshot(path)

    # -- accounting -----------------------------------------------------------

    def traffic_report(self) -> Dict[str, Any]:
        """Scan-traffic and per-stage accounting (the §8 ethics arithmetic
        plus one counter block per pipeline stage and per-shard storage).
        """
        tiers = self.discovery.sweep.probes_by_tier(self.discovery.active_tiers(self.clock.now))
        total = sum(tiers.values())
        hours = max(1e-9, self.clock.now - self._start_time)
        probes_per_hour = total / hours
        per_ip_per_hour = probes_per_hour / self.internet.space.size
        return {
            "probes_by_tier": tiers,
            "total_probes": total,
            "probes_per_hour": probes_per_hour,
            "mean_minutes_between_probes_per_ip": (
                60.0 / per_ip_per_hour if per_ip_per_hour > 0 else float("inf")
            ),
            "stages": {
                "discovery": dict(self.discovery.counters),
                "interrogation": dict(self.interrogation.counters),
                "ingest": dict(self.ingest.counters),
                "derivation": dict(self.derivation.counters),
                "serving": dict(self.serving.counters),
            },
            "queue": self.queue.stats(),
            "scheduler": {
                "tracked_services": self.scheduler.tracked_count,
                "pending_eviction": self.scheduler.pending_count(),
                "evictions": self.scheduler.evictions,
            },
            "shards": {
                "count": self.shard_map.shards,
                "events_per_shard": self.journal.events_per_shard(),
                "entities_per_shard": self.journal.entities_per_shard(),
                "documents_per_shard": self.index.docs_per_shard(),
                "journal_versions_per_shard": self.journal.shard_versions(),
                "index_generations_per_shard": list(self.index.generations()),
            },
            "read_cache": {
                "enabled": self.config.read_cache,
                **self.read_side.cache_report(),
                "query": self.index.cache_report(),
            },
            "storage": {
                "compaction_enabled": self.config.compaction,
                **self.journal.storage_report(),
                "compaction": (
                    self.compactor.stats_report() if self.compactor is not None else None
                ),
            },
            "executor": self.executor.report(),
            "replication": (
                {"enabled": True, **self.replication.report()}
                if self.replication is not None
                else {"enabled": False}
            ),
            "subscriptions": (
                {"enabled": True, **self.subscriptions.report()}
                if self.subscriptions is not None
                else {"enabled": False}
            ),
        }
