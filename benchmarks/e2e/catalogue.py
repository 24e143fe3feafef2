"""The metric and workload catalogue — mirrored by ``BENCHMARK.json``.

``test_bench_e2e.py`` asserts the two agree, so the names, units,
directions and bounds are defined once here and declared once there.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["WORKLOADS", "END_TO_END", "PER_LAYER", "COVERAGE_FLOOR", "unit_of"]

#: Share of ground-truth services alive at t=0 (every port, UDP included)
#: that ``map_build`` must find in its 2.5 days.  Measured 0.52 on worlds 11
#: and 23; a scanner that gets faster by probing less falls below the floor.
COVERAGE_FLOOR = 0.40

WORKLOADS: List[Tuple[str, str]] = [
    ("map_build",
     "Cold-start scan of the world through run_until: discovery, simnet connect and protocol "
     "interrogation are the largest group of layers (~45 % of wall), write side and derivation "
     "the rest, serving none."),
    ("ingest_replay",
     "The observation stream of a map_build-shaped run replayed through ingest_many with "
     "scanning removed: journal, WAL, derivation and index commit do the work; scanners none."),
    ("serve_read",
     "Zipf read mix on a quiescent map with a working set a few times the read caches: "
     "median is the cache-hit path, p99 the miss path; pipeline layers idle."),
    ("serve_under_ingest",
     "The same read mix interleaved with hourly ticks, everything on (4 shards, threads, "
     "replicas, compaction, 5k standing queries): caches invalidate while writes land."),
]

#: (name, unit, better, bound).  Every workload reports every metric; the
#: README says which phase of each workload a metric is measured in.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("obs_per_s", "1/s", "higher", 0.25),
    ("read_ops_per_s", "1/s", "higher", 0.25),
    ("lookup_p50_us", "us", "lower", 0.25),
    ("lookup_p99_us", "us", "lower", 0.25),
    ("search_p50_us", "us", "lower", 0.25),
    ("search_p99_us", "us", "lower", 0.25),
    ("aggregate_p50_us", "us", "lower", 0.25),
    ("aggregate_p99_us", "us", "lower", 0.25),
    ("recover_s", "s", "lower", 0.25),
    ("wal_bytes_per_event", "B", "lower", 0.02),
    ("peak_rss_mb", "MiB", "lower", 0.10),
]

#: (name, unit, better).  Times are self times from the traced main
#: section; counts are ``traffic_report()`` deltas over it; ``*_end`` and
#: the journal/cold-file sizes are gauges read when it ends.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("discovery.self_s", "s", "lower"),
    ("discovery.probes", "count", "lower"),
    ("discovery.candidates_enqueued", "count", "higher"),
    ("discovery.hit_share", "ratio", "higher"),
    ("queue.backlog_end", "count", "lower"),
    ("queue.dedup_share", "ratio", "lower"),
    ("simnet.connect_s", "s", "lower"),
    ("simnet.connects", "count", "lower"),
    ("protocols.interrogate_s", "s", "lower"),
    ("protocols.interrogations", "count", "lower"),
    ("protocols.refresh_fastpaths", "count", "higher"),
    ("protocols.identified_share", "ratio", "higher"),
    ("interrogation.self_s", "s", "lower"),
    ("interrogation.connect_fail_share", "ratio", "lower"),
    ("interrogation.mean_chunk_obs", "count", "higher"),
    ("ingest.submit_s", "s", "lower"),
    ("ingest.observations", "count", "higher"),
    ("ingest.events_journaled", "count", "lower"),
    ("ingest.events_per_obs", "ratio", "lower"),
    ("ingest.pump_s", "s", "lower"),
    ("ingest.messages_pumped", "count", "lower"),
    ("ingest.evict_s", "s", "lower"),
    ("ingest.evictions", "count", "lower"),
    ("journal.events", "count", "lower"),
    ("journal.resident_events", "count", "lower"),
    ("journal.live_bytes", "B", "lower"),
    ("wal.flush_s", "s", "lower"),
    ("wal.fsyncs", "count", "lower"),
    ("wal.fsyncs_per_kobs", "ratio", "lower"),
    ("wal.bytes_written", "B", "lower"),
    ("wal.records", "count", "lower"),
    ("derivation.self_s", "s", "lower"),
    ("derivation.daily_s", "s", "lower"),
    ("derivation.reindexed_entities", "count", "lower"),
    ("derivation.certificates_indexed", "count", "lower"),
    ("search.put_s", "s", "lower"),
    ("search.query_s", "s", "lower"),
    ("search.queries", "count", "higher"),
    ("search.query_cache_hit_share", "ratio", "higher"),
    ("read_side.lookup_s", "s", "lower"),
    ("read_side.view_hit_share", "ratio", "higher"),
    ("read_side.reconstruction_hit_share", "ratio", "higher"),
    ("read_side.invalidations", "count", "lower"),
    ("read_side.evictions", "count", "lower"),
    ("serving.self_s", "s", "lower"),
    ("serving.lookups", "count", "higher"),
    ("serving.searches", "count", "higher"),
    ("serving.aggregates", "count", "higher"),
    ("serving.histories", "count", "higher"),
    ("executor.tasks", "count", "lower"),
    ("executor.batches", "count", "lower"),
    ("executor.inline_fallbacks", "count", "lower"),
    ("replication.pump_s", "s", "lower"),
    ("replication.batches", "count", "lower"),
    ("replication.max_lag_events", "count", "lower"),
    ("replication.duplicates_dropped", "count", "lower"),
    ("compaction.run_s", "s", "lower"),
    ("compaction.max_pause_ms", "ms", "lower"),
    ("compaction.segments_compacted", "count", "higher"),
    ("compaction.events_folded", "count", "higher"),
    ("compaction.cold_file_bytes", "B", "lower"),
    ("subscriptions.feed_s", "s", "lower"),
    ("subscriptions.deliver_s", "s", "lower"),
    ("subscriptions.candidates_per_event", "ratio", "lower"),
    ("subscriptions.notifications_delivered", "count", "higher"),
    ("subscriptions.dead_letters", "count", "lower"),
    ("tick.count", "count", "higher"),
    ("tick.p50_ms", "ms", "lower"),
    ("tick.max_ms", "ms", "lower"),
    ("trace.attributed_share", "ratio", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
]


def unit_of() -> Dict[str, str]:
    units = {name: unit for name, unit, _better, _bound in END_TO_END}
    units.update({name: unit for name, unit, _better in PER_LAYER})
    return units
