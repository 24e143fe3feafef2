"""The four workloads, each as set-up -> timed main section -> probe ->
recover -> checks.

End-to-end numbers are taken with nothing installed, through the
``CensysPlatform`` facade only (``run_until``, ``tick``, ``ingest_many``,
``lookup_host``, ``search``, ``host_history``, ``close``) plus
``index.aggregate`` and ``ShardedJournal.recover``.  A traced run wraps the
layer entry points for the main section only and reports per-layer numbers.

Every workload reports every end-to-end metric.  A metric the main section
does not produce comes from a short *probe* of the complementary side on
the same platform: build workloads answer a block of the standard read mix
on the map they just built, and ``serve_read`` runs a block of hourly
ticks after its reads.
"""

from __future__ import annotations

import gc
import random
import resource
import shutil
import tempfile
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.platform import CensysPlatform
from repro.pipeline import ShardMap, ShardedJournal
from repro.simnet import DAY

from benchmarks.e2e import checks, inputs, stats
from benchmarks.e2e.catalogue import COVERAGE_FLOOR
from benchmarks.e2e.inputs import AGGREGATE, HISTORY, LOOKUP, SEARCH, Sizes
from benchmarks.e2e.tracing import LAYER_OF, Tracer, install_platform_wrappers

__all__ = ["Run", "WORKLOAD_FUNCTIONS", "SETUP_REPEATS", "DETERMINISTIC_COUNTS"]

#: Platform constructions per run; ``setup_s`` uses their median.
SETUP_REPEATS = 3
#: Cold recoveries of the closed WAL directory; ``recover_s`` is their median.
RECOVER_REPEATS = 3
#: Counts that must be identical between repeats of one workload and seed.
DETERMINISTIC_COUNTS = ("ingest.observations", "journal.events", "wal.fsyncs", "wal.bytes_written")

clock = time.perf_counter


def _num(report: Any, *path: str) -> float:
    """A numeric leaf of a ``traffic_report()``; 0 where the subsystem is
    off (its block is absent) — zero work is what an absent layer did.  A
    per-shard list counts as its sum."""
    node = report
    for key in path:
        node = node.get(key) if isinstance(node, dict) else None
        if node is None:
            return 0
    return sum(node) if isinstance(node, list) else node


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _wal_fsyncs(plat: Any) -> int:
    return sum(j.wal.stats.fsyncs for j in plat.journal.journals if j.wal is not None)


def _replication_sum(report: Any, field: str) -> float:
    return sum(_num(shard, field) for shard in _num_list(report, "replication", "shards"))


def _num_list(report: Any, *path: str) -> List[Any]:
    node = report
    for key in path:
        node = node.get(key) if isinstance(node, dict) else None
        if node is None:
            return []
    return node


class Run:
    """One benchmark run: inputs, phase timings, failures, checks, metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 quick: bool, workdir: str, world_seed: int = inputs.WORLD_SEED) -> None:
        self.workload = workload
        self.seed = seed
        self.world_seed = world_seed
        self.seconds = seconds
        self.trace = trace
        self.quick = quick
        self.sizes: Sizes = inputs.sizes_for(seconds, quick)
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.checks: Dict[str, Dict[str, Any]] = {}
        self.phases: Dict[str, float] = {}
        self.e2e: Dict[str, float] = {}
        self.per_layer: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        self.info: Dict[str, Any] = {}
        self.tracer: Optional[Tracer] = None
        #: Per-kind read latencies, and the time spent issuing reads.
        self.latencies: Tuple[List[float], ...] = ([], [], [], [])
        self.read_seconds = 0.0
        self.sample = checks.AnswerSample()
        self.shape = 0
        self._report_before: Any = None
        self._report_after: Any = None

    # -- bookkeeping -----------------------------------------------------------

    def check(self, name: str, ok: bool, **detail: Any) -> None:
        self.checks[name] = {"ok": bool(ok), **detail}

    def error(self, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append("".join(traceback.format_exception_only(type(exc), exc)).strip())

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(c["ok"] for c in self.checks.values())

    def tempdir(self) -> str:
        return tempfile.mkdtemp(prefix="wal-", dir=self.workdir)

    # -- set-up ------------------------------------------------------------------

    def set_up(self, make_config: Callable[[int, str], Any], start_days: float
               ) -> Tuple[Any, CensysPlatform, str]:
        """World once, platform ``SETUP_REPEATS`` times (median counts), and
        the last platform is the one the run uses."""
        t0 = clock()
        world = inputs.build_world(self.world_seed, self.sizes)
        self.phases["world_build_s"] = clock() - t0
        constructions: List[float] = []
        plat = wal_dir = None
        for repeat in range(SETUP_REPEATS):
            wal_dir = self.tempdir()
            t0 = clock()
            plat = CensysPlatform(
                world, make_config(self.seed, wal_dir), start_time=-start_days * DAY
            )
            constructions.append(clock() - t0)
            if repeat < SETUP_REPEATS - 1:
                plat.close()
                shutil.rmtree(wal_dir)
        self.phases["platform_construct_s"] = stats.median(constructions)
        self.info["platform_construct_samples_s"] = constructions
        return world, plat, wal_dir

    def prepared(self, seconds: float) -> None:
        """Close set-up: ``setup_s`` = world + median construction + the
        workload's own untimed preparation."""
        self.phases["prepare_s"] = seconds
        self.e2e["setup_s"] = (
            self.phases["world_build_s"] + self.phases["platform_construct_s"] + seconds
        )

    # -- the timed main section ------------------------------------------------------

    def main_section(self, plat: CensysPlatform, body: Callable[[], None]) -> float:
        """Run ``body`` timed; in a traced run, with the wrappers on."""
        # What is alive now was built by set-up; exempting it from the
        # collector's scans (as a long-running service does after start-up)
        # keeps full collections of a 300 MiB heap — whose timing depends on
        # allocation counts, not on the code under test — out of the
        # section.  Objects the section itself creates are collected as usual.
        gc.collect()
        gc.freeze()
        self._report_before = plat.traffic_report()
        fsyncs_before = _wal_fsyncs(plat)
        if self.trace:
            self.tracer = Tracer()
            install_platform_wrappers(self.tracer, plat)
        try:
            t0 = clock()
            body()
            wall = clock() - t0
        finally:
            gc.unfreeze()
            if self.tracer is not None:
                self.tracer.uninstall()
        self._report_after = plat.traffic_report()
        self.e2e["wall_s"] = wall
        self.counts = {
            "ingest.observations": self.delta("stages", "ingest", "observations_ingested"),
            "journal.events": self.delta("shards", "events_per_shard"),
            "wal.fsyncs": _wal_fsyncs(plat) - fsyncs_before,
            "wal.bytes_written": self.delta("storage", "wal_bytes_written"),
        }
        return wall

    def delta(self, *path: str) -> float:
        return _num(self._report_after, *path) - _num(self._report_before, *path)

    # -- reads -----------------------------------------------------------------------

    def issue_reads(self, plat: CensysPlatform, ops: Sequence[Tuple[int, Any, Any]], first: int,
                    sampled: frozenset) -> None:
        """Closed loop, one client: each read waits for its answer."""
        lookup, search, history = plat.lookup_host, plat.search, plat.host_history
        aggregate = plat.index.aggregate
        latencies, sample = self.latencies, self.sample
        shape = self.shape
        started = clock()
        for position, (kind, key, extra) in enumerate(ops, first):
            t0 = clock()
            try:
                if kind == LOOKUP:
                    answer = lookup(key, at=extra)
                    t1 = clock()
                    size = len(answer["services"])
                elif kind == SEARCH:
                    answer = search(key, limit=25)
                    t1 = clock()
                    size = len(answer)
                elif kind == AGGREGATE:
                    answer = aggregate(key, extra)
                    t1 = clock()
                    size = len(answer)
                else:
                    answer = history(key)
                    t1 = clock()
                    size = len(answer)
            except Exception as exc:  # a failed read is counted, not fatal
                self.error(exc)
                continue
            latencies[kind].append(t1 - t0)
            # A cheap running checksum over *every* answer's size; the kept
            # 2 % are compared in full.
            shape = (shape * 1_000_003 + size + kind) & 0xFFFFFFFFFFFF
            if position in sampled:
                sample.keep(position, answer)
        self.read_seconds += clock() - started
        self.attempted += len(ops)
        self.shape = shape

    def read_metrics(self) -> None:
        lat = self.latencies
        reads = sum(len(samples) for samples in lat)
        self.e2e["read_ops_per_s"] = reads / self.read_seconds
        for kind, name in ((LOOKUP, "lookup"), (SEARCH, "search"), (AGGREGATE, "aggregate")):
            self.e2e[f"{name}_p50_us"] = stats.median(lat[kind]) * 1e6
            self.e2e[f"{name}_p99_us"] = (
                stats.require_percentile(lat[kind], 0.99, f"{name} latency") * 1e6
            )
        self.info["latency_samples"] = {
            inputs.OP_NAMES[kind]: len(lat[kind]) for kind in (LOOKUP, SEARCH, AGGREGATE, HISTORY)
        }

    def read_probe(self, plat: CensysPlatform, world: Any) -> None:
        """Build workloads: the standard mix, once, on the map just built.

        The probe is a yardstick, so its order is the same for every seed
        (the seed has already shaped the map it is held against): with
        40k reads and cold caches, which expensive query misses when moves
        ``search_p99_us`` by a quarter between orders.
        """
        mix = inputs.ReadMix(world, self.sizes, inputs.PROBE_ORDER_SEED, self.sizes.probe_reads, "probe")
        self.issue_reads(plat, mix.ops, 0, mix.sampled)
        self.phases["read_probe_s"] = self.read_seconds
        self.read_metrics()

    def timed_ticks(self, plat: CensysPlatform, count: int, hours: float) -> List[float]:
        samples = []
        for _ in range(count):
            t0 = clock()
            plat.tick(hours)
            samples.append(clock() - t0)
        self.attempted += count
        return samples

    # -- close, recover, compare -------------------------------------------------------

    def close_and_recover(self, plat: CensysPlatform, wal_dir: str,
                          digest_entities: Optional[int] = None) -> None:
        """Close, time a cold recovery of the WAL directory, and require
        the recovered journal to hold what the live one held.

        ``digest_entities`` compares a seeded sample of that many entities
        instead of all of them: reading history back through the cold tier
        costs a file read per entity, which the serve workloads (whose
        subject is not the journal) cannot afford in full.
        """
        self.e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        entities: Optional[List[str]] = None
        if digest_entities is not None:
            entities = sorted(plat.journal.entity_ids())
            random.Random(self.seed).shuffle(entities)
            entities = sorted(entities[:digest_entities])
        total_events = int(_num(plat.traffic_report(), "shards", "events_per_shard"))
        live_digest, live_events = checks.journal_digest(plat.journal, entities)
        shards = plat.shard_map.shards
        plat.close()
        wal_bytes = checks.directory_bytes(wal_dir)
        recoveries: List[float] = []
        recovered = None
        for _ in range(RECOVER_REPEATS):
            if recovered is not None:
                recovered.close()
            gc.collect()
            t0 = clock()
            recovered = ShardedJournal.recover(wal_dir, ShardMap(shards))
            recoveries.append(clock() - t0)
        self.e2e["recover_s"] = stats.median(recoveries)
        self.info["recover_samples_s"] = recoveries
        try:
            digest, events = checks.journal_digest(recovered, entities)
            recovered_total = sum(recovered.events_per_shard())
        finally:
            recovered.close()
        self.attempted += 1
        self.check("recovered_journal_equals_live",
                   digest == live_digest and events == live_events
                   and recovered_total == total_events,
                   compared_events=live_events, live_events=total_events,
                   recovered_events=recovered_total)
        self.e2e["wal_bytes_per_event"] = wal_bytes / total_events
        self.info["journal_events"] = total_events
        self.info["wal_dir_bytes"] = wal_bytes
        self.info["journal_digest"] = live_digest
        shutil.rmtree(wal_dir)

    # -- per-layer metrics -----------------------------------------------------------------

    def layer_metrics(self) -> None:
        """Fill ``per_layer`` from the spans and the report deltas of the
        main section (traced runs only)."""
        tracer, delta, end = self.tracer, self.delta, self._report_after
        assert tracer is not None
        wall = self.e2e["wall_s"]
        seconds = tracer.layer_seconds()
        m = self.per_layer
        for name in set(LAYER_OF.values()) - {"tick.self_s"}:
            m[name] = seconds.get(name, 0.0)
        spans = tracer.summary()

        def count(*names: str) -> int:
            return sum(int(spans[name]["count"]) for name in names if name in spans)

        probes = delta("total_probes")
        enqueued = delta("stages", "discovery", "candidates_enqueued")
        m["discovery.probes"] = probes
        m["discovery.candidates_enqueued"] = enqueued
        m["discovery.hit_share"] = _share(enqueued, probes)
        m["queue.backlog_end"] = _num(end, "queue", "backlog")
        m["queue.dedup_share"] = _share(
            delta("queue", "deduplicated"), delta("queue", "deduplicated") + delta("queue", "enqueued")
        )
        m["simnet.connects"] = count("simnet.connect")
        interrogations = count("protocols.interrogate", "protocols.refresh")
        m["protocols.interrogations"] = interrogations
        m["protocols.refresh_fastpaths"] = delta("stages", "interrogation", "refresh_fastpaths")
        m["protocols.identified_share"] = _share(
            sum(tracer.result_counts.values()), interrogations
        )
        m["interrogation.connect_fail_share"] = _share(
            delta("stages", "interrogation", "connect_failures"),
            delta("stages", "interrogation", "interrogations_run"),
        )
        observations = self.counts["ingest.observations"]
        m["interrogation.mean_chunk_obs"] = _share(
            observations, count("ingest.submit", "ingest.submit_many")
        )
        m["ingest.observations"] = observations
        m["ingest.events_journaled"] = delta("stages", "ingest", "events_journaled")
        m["ingest.events_per_obs"] = _share(m["ingest.events_journaled"], observations)
        m["ingest.messages_pumped"] = delta("stages", "ingest", "messages_pumped")
        m["ingest.evictions"] = delta("stages", "ingest", "evictions")
        m["journal.events"] = self.counts["journal.events"]
        m["journal.resident_events"] = _num(end, "storage", "resident_events")
        m["journal.live_bytes"] = _num(end, "storage", "live_bytes")
        m["wal.fsyncs"] = self.counts["wal.fsyncs"]
        m["wal.fsyncs_per_kobs"] = _share(m["wal.fsyncs"] * 1000.0, observations)
        m["wal.bytes_written"] = self.counts["wal.bytes_written"]
        m["wal.records"] = delta("storage", "wal_records")
        m["derivation.reindexed_entities"] = delta("stages", "derivation", "reindexed_entities")
        m["derivation.certificates_indexed"] = delta("stages", "derivation", "certificates_indexed")
        m["search.queries"] = count("search.search", "search.aggregate")
        hits, misses = delta("read_cache", "query", "hits"), delta("read_cache", "query", "misses")
        m["search.query_cache_hit_share"] = _share(hits, hits + misses)
        for cache, name in (("views", "view"), ("reconstruction", "reconstruction")):
            hits, misses = delta("read_cache", cache, "hits"), delta("read_cache", cache, "misses")
            m[f"read_side.{name}_hit_share"] = _share(hits, hits + misses)
        m["read_side.invalidations"] = (
            delta("read_cache", "views", "invalidations")
            + delta("read_cache", "reconstruction", "invalidations")
        )
        m["read_side.evictions"] = (
            delta("read_cache", "views", "evictions")
            + delta("read_cache", "reconstruction", "evictions")
        )
        m["serving.lookups"] = delta("stages", "serving", "lookups_served")
        m["serving.searches"] = delta("stages", "serving", "searches_served")
        m["serving.histories"] = delta("stages", "serving", "histories_served")
        m["serving.aggregates"] = sum(
            1 for i, p in enumerate(tracer.parent)
            if p < 0 and tracer.names[tracer.name_idx[i]] == "search.aggregate"
        )
        for field in ("tasks", "batches", "inline_fallbacks"):
            m[f"executor.{field}"] = delta("executor", field)
        m["replication.batches"] = (
            _replication_sum(end, "batches") - _replication_sum(self._report_before, "batches")
        )
        m["replication.max_lag_events"] = max(
            (max(shard.get("lag_events") or [0]) for shard in _num_list(end, "replication", "shards")),
            default=0,
        )
        m["replication.duplicates_dropped"] = (
            _replication_sum(end, "duplicates_dropped")
            - _replication_sum(self._report_before, "duplicates_dropped")
        )
        m["compaction.segments_compacted"] = delta("storage", "compaction", "segments_compacted")
        m["compaction.events_folded"] = delta("storage", "compaction", "events_folded")
        m["compaction.cold_file_bytes"] = _num(end, "storage", "compaction", "cold_file_bytes")
        pauses: Dict[int, float] = {}
        for i, nid in enumerate(tracer.name_idx):
            if tracer.names[nid].startswith("compaction."):
                owner = tracer.parent[i]
                pauses[owner] = pauses.get(owner, 0.0) + tracer.end[i] - tracer.start[i]
        m["compaction.max_pause_ms"] = max(pauses.values(), default=0.0) * 1e3
        m["subscriptions.candidates_per_event"] = _share(
            delta("subscriptions", "candidates_evaluated"), delta("subscriptions", "events_seen")
        )
        m["subscriptions.notifications_delivered"] = delta("subscriptions", "notifications_delivered")
        m["subscriptions.dead_letters"] = delta("subscriptions", "dead_letters")
        ticks = tracer.durations_of("tick")
        m["tick.count"] = len(ticks)
        m["tick.p50_ms"] = stats.median(ticks) * 1e3 if ticks else 0.0
        m["tick.max_ms"] = max(ticks, default=0.0) * 1e3
        attributed = sum(v for k, v in seconds.items() if k != "tick.self_s")
        m["trace.attributed_share"] = attributed / wall
        overhead = len(tracer) * tracer.per_span_cost()
        # An estimate from the wrapper's measured cost on a no-op; the
        # suite replaces it with traced wall / untraced median - 1.
        m["trace.overhead_share"] = overhead / max(wall - overhead, 1e-9)
        self.info["span_count"] = len(tracer)
        self.info["span_summary"] = spans
        self.info["skipped_targets"] = tracer.skipped
        self.info["tick_self_s"] = seconds.get("tick.self_s", 0.0)

    def stress_check(self, name: str, ok: bool, **detail: Any) -> None:
        """A traced-run assertion that the workload stresses what it claims.

        The claims are about the nominal world; on the ``--quick`` one the
        outcome is recorded but does not fail the run.
        """
        if self.quick:
            self.check(f"stresses:{name}", True, held=bool(ok), advisory=True, **detail)
        else:
            self.check(f"stresses:{name}", ok, **detail)


# -- map_build ---------------------------------------------------------------------------


def map_build(run: Run) -> None:
    sizes = run.sizes
    world, plat, wal_dir = run.set_up(inputs.plain_config, sizes.map_days)
    run.prepared(0.0)
    ticks: List[float] = []
    n_ticks = round(sizes.map_days * 24.0 / inputs.TICK_HOURS)

    def body() -> None:
        for k in range(n_ticks):
            t0 = clock()
            # One tick per call, so each is timed; the sequence of ticks is
            # exactly run_until(0.0, tick_hours=6.0).
            plat.run_until(-sizes.map_days * DAY + (k + 1) * inputs.TICK_HOURS, inputs.TICK_HOURS)
            ticks.append(clock() - t0)

    wall = run.main_section(plat, body)
    observations = run.counts["ingest.observations"]
    run.attempted += int(observations)
    run.e2e["obs_per_s"] = observations / wall
    run.info["tick_ms"] = [t * 1e3 for t in ticks]
    if run.trace:
        run.layer_metrics()
        m = run.per_layer
        scan = (m["discovery.self_s"] + m["simnet.connect_s"] + m["protocols.interrogate_s"]
                + m["interrogation.self_s"])
        # The issue predicted >= 0.6 from a cProfile run, which charges per
        # call and so inflates the call-heavy scan layers; measured without
        # a profiler they are 0.44-0.47 of wall, still the largest group.
        run.stress_check("scan_layers_are_largest_group", scan >= 0.35 * wall, share=scan / wall)
        run.stress_check("write_side_is_minor", m["ingest.submit_s"] <= 0.25 * wall,
                         share=m["ingest.submit_s"] / wall)
        run.stress_check("attributed", m["trace.attributed_share"] >= 0.95,
                         share=m["trace.attributed_share"])
    run.read_probe(plat, world)
    share, services = checks.coverage_share(plat, world)
    run.attempted += 1
    # The floor was measured at the nominal world and horizon.
    floor = COVERAGE_FLOOR if not run.quick and run.seconds >= inputs.NOMINAL_SECONDS else 0.0
    run.check("coverage_floor", share >= floor, share=share, floor=floor, services=services)
    run.close_and_recover(plat, wal_dir)


# -- ingest_replay -----------------------------------------------------------------------


def _capture_stream(run: Run, world: Any, days: float) -> List[Any]:
    """The observations a map_build-shaped donor hands to the ingest stage."""
    donor = CensysPlatform(world, inputs.plain_config(run.seed, None), start_time=-days * DAY)
    stream: List[Any] = []
    submit, submit_many = donor.ingest.submit, donor.ingest.submit_many

    def capture_one(obs: Any) -> Any:
        stream.append(obs)
        return submit(obs)

    def capture_many(observations: Any, executor: Any = None) -> Any:
        observations = list(observations)
        stream.extend(observations)
        return submit_many(observations, executor=executor)

    donor.ingest.submit, donor.ingest.submit_many = capture_one, capture_many
    try:
        donor.run_until(0.0, tick_hours=inputs.TICK_HOURS)
    finally:
        donor.close()
    return stream


def _slices(stream: List[Any], days: float) -> List[List[Any]]:
    """The stream in time order, cut at the 6 h tick boundaries."""
    ordered = sorted(stream, key=lambda obs: obs.time)
    n = round(days * 24.0 / inputs.TICK_HOURS)
    slices: List[List[Any]] = [[] for _ in range(n)]
    start = -days * DAY
    for obs in ordered:
        k = int((obs.time - start - 1e-9) // inputs.TICK_HOURS)
        slices[min(max(k, 0), n - 1)].append(obs)
    return slices


def _without_discovery(plat: CensysPlatform) -> CensysPlatform:
    plat.tiers = []
    return plat


def ingest_replay(run: Run) -> None:
    sizes = run.sizes
    days = sizes.replay_days

    def replay_config(seed: int, wal_dir: Optional[str]) -> Any:
        return inputs.plain_config(seed, wal_dir, predictive_enabled=False)

    world, plat, wal_dir = run.set_up(replay_config, days)
    _without_discovery(plat)
    t0 = clock()
    slices = _slices(_capture_stream(run, world, days), days)
    gc.collect()
    run.prepared(clock() - t0)
    ticks: List[float] = []
    unacked = 0

    def body() -> None:
        nonlocal unacked
        for batch in slices:
            for i in range(0, len(batch), inputs.INGEST_CHUNK):
                chunk = batch[i:i + inputs.INGEST_CHUNK]
                kinds = plat.ingest_many(chunk)
                unacked += abs(len(chunk) - len(kinds))
            t0 = clock()
            plat.tick(inputs.TICK_HOURS)
            ticks.append(clock() - t0)

    wall = run.main_section(plat, body)
    replayed = sum(len(batch) for batch in slices)
    run.attempted += replayed
    run.failed += unacked
    run.check("every_observation_acked", unacked == 0, replayed=replayed, unacked=unacked)
    run.e2e["obs_per_s"] = run.counts["ingest.observations"] / wall
    run.info["tick_ms"] = [t * 1e3 for t in ticks]
    run.info["replayed_observations"] = replayed
    interrogations_run = run.delta("stages", "interrogation", "interrogations_run")
    run.check("no_queue_interrogations", interrogations_run == 0, interrogations_run=interrogations_run)
    if run.trace:
        run.layer_metrics()
        m = run.per_layer
        write = (m["ingest.submit_s"] + m["ingest.pump_s"] + m["ingest.evict_s"] + m["wal.flush_s"]
                 + m["derivation.self_s"] + m["derivation.daily_s"] + m["search.put_s"])
        run.stress_check("write_layers_dominate", write >= 0.85 * wall, share=write / wall)
        run.stress_check("scanning_removed",
                         m["protocols.interrogations"] <= 0.01 * m["ingest.observations"],
                         interrogations=m["protocols.interrogations"])
        run.stress_check("attributed", m["trace.attributed_share"] >= 0.95,
                         share=m["trace.attributed_share"])
    run.read_probe(plat, world)

    # The reference: same stream, one observation at a time, in memory.
    reference = _without_discovery(CensysPlatform(
        world, inputs.plain_config(run.seed, None, predictive_enabled=False, ingest_batch=1),
        start_time=-days * DAY,
    ))
    try:
        for batch in slices:
            for obs in batch:
                reference.ingest_many([obs])
            reference.tick(inputs.TICK_HOURS)
        hosts = inputs.ReadMix(world, sizes, run.seed, 1, "digest").hosts[: sizes.view_sample_hosts]
        expected = checks.serving_digest(reference, hosts)
    finally:
        reference.close()
    actual = checks.serving_digest(plat, hosts)
    run.attempted += 1
    run.check("matches_one_at_a_time_reference", actual == expected, hosts=len(hosts))
    run.close_and_recover(plat, wal_dir)


# -- serve_read --------------------------------------------------------------------------


def _answer(plat: CensysPlatform, kind: int, key: Any, extra: Any) -> Any:
    if kind == LOOKUP:
        return plat.lookup_host(key, at=extra)
    if kind == SEARCH:
        return plat.search(key, limit=25)
    if kind == AGGREGATE:
        return plat.index.aggregate(key, extra)
    return plat.host_history(key)


def serve_read(run: Run) -> None:
    sizes = run.sizes
    world, plat, wal_dir = run.set_up(inputs.plain_config, sizes.serve_days)
    t0 = clock()
    plat.run_until(0.0, tick_hours=inputs.TICK_HOURS)
    mix = inputs.ReadMix(world, sizes, run.seed, sizes.serve_reads, "serve")
    run.prepared(clock() - t0)

    run.main_section(plat, lambda: run.issue_reads(plat, mix.ops, 0, mix.sampled))
    run.read_metrics()
    run.check("no_ingest_during_reads", run.counts["ingest.observations"] == 0)
    if run.trace:
        run.layer_metrics()
        m = run.per_layer
        for name in ("read_side.view_hit_share", "search.query_cache_hit_share"):
            run.stress_check(f"{name}_between_fit_and_thrash", 0.35 <= m[name] <= 0.85, share=m[name])

    # The kept 2 % re-issued with cold read caches must answer the same.
    plat.read_side.clear_caches()
    reissued = checks.AnswerSample()
    for position in sorted(mix.sampled):
        try:
            reissued.keep(position, _answer(plat, *mix.ops[position]))
        except Exception as exc:  # counted like any other failed read
            run.error(exc)
    mismatches = run.sample.mismatches(reissued)
    run.failed += mismatches
    run.check("sampled_answers_match_uncached", mismatches == 0,
              sampled=len(run.sample.kept), mismatches=mismatches)

    ticks = run.timed_ticks(plat, sizes.probe_ticks, 1.0)
    run.phases["write_probe_s"] = sum(ticks)
    observed = _num(plat.traffic_report(), "stages", "ingest", "observations_ingested") - _num(
        run._report_after, "stages", "ingest", "observations_ingested")
    run.e2e["obs_per_s"] = observed / sum(ticks)
    run.info["tick_ms"] = [t * 1e3 for t in ticks]
    run.close_and_recover(plat, wal_dir, digest_entities=sizes.view_sample_hosts)


# -- serve_under_ingest ------------------------------------------------------------------


def serve_under_ingest(run: Run) -> None:
    sizes = run.sizes
    world, plat, wal_dir = run.set_up(inputs.full_config, sizes.sui_days)
    t0 = clock()
    inputs.register_watchlist(plat, sizes)
    plat.run_until(0.0, tick_hours=inputs.TICK_HOURS)
    mix = inputs.ReadMix(world, sizes, run.seed, sizes.sui_reads, "serve")
    run.prepared(clock() - t0)
    per_tick = len(mix.ops) // sizes.sui_ticks
    ticks: List[float] = []

    def body() -> None:
        for k in range(sizes.sui_ticks):
            last = len(mix.ops) if k == sizes.sui_ticks - 1 else (k + 1) * per_tick
            run.issue_reads(plat, mix.ops[k * per_tick:last], k * per_tick, mix.sampled)
            ticks.extend(run.timed_ticks(plat, 1, 1.0))

    run.main_section(plat, body)
    run.read_metrics()
    run.e2e["obs_per_s"] = run.counts["ingest.observations"] / sum(ticks)
    run.info["tick_ms"] = [t * 1e3 for t in ticks]
    report = run._report_after
    run.check("no_dead_letters", _num(report, "subscriptions", "dead_letters") == 0)
    if run.trace:
        run.layer_metrics()
        m = run.per_layer
        for name in ("read_side.invalidations", "compaction.segments_compacted",
                     "replication.batches", "subscriptions.notifications_delivered"):
            run.stress_check(f"{name}_positive", m[name] > 0, value=m[name])
    run.close_and_recover(plat, wal_dir, digest_entities=sizes.view_sample_hosts)


WORKLOAD_FUNCTIONS: Dict[str, Callable[[Run], None]] = {
    "map_build": map_build,
    "ingest_replay": ingest_replay,
    "serve_read": serve_read,
    "serve_under_ingest": serve_under_ingest,
}
