"""Perf-regression harness: micro hot paths, macro serving, and storage tiers.

Six suites, selected with ``--suite``:

* ``micro`` (default) — each vectorized hot path and its retained scalar
  reference for N rounds → ``benchmarks/results/BENCH_micro.json`` with
  per-path median/p90 latencies, population sizes, the git commit, and
  the vectorized-over-reference speedups.
* ``serving`` — a seeded Zipfian mixed workload (repeated lookups,
  repeated searches, aggregates, and a segment interleaved with live
  ingest ticks) against two identically-built platforms, one with the
  versioned read-path caches and one with ``read_cache=False`` →
  ``benchmarks/results/BENCH_serving.json`` with per-segment p50/p95
  latency proxies, ops/s, cache hit rates, and cached-over-uncached
  speedups.
* ``replication`` — the per-shard replication tier: ingest wall-clock for
  the same batched workload at replication factor 0 / 1 / 2 (factor-0 is
  the pre-replication pipeline, so the ratios are the tier's overhead),
  plus timed ``kill_primary()`` → ``fail_over()`` promotions over lossy
  links with the replayed tail size and a zero-acked-write-loss check on
  every promotion → ``benchmarks/results/BENCH_replication.json``.
* ``standing`` — the standing-query tier: a scale sweep registering
  10k / 30k / 100k subscriptions (anchored vocabulary sized so the
  per-event match count stays fixed) against one synthetic document
  stream, asserting per-event evaluation cost is bounded by matches —
  flat as registrations grow 10x — plus an at-least-once delivery
  segment under a seeded drop/duplicate/delay FaultPlan (consumer set
  must equal the emitted set, exactly once) and a platform segment
  measuring ingest-tick overhead with a 100k-subscription watchlist
  attached vs none → ``benchmarks/results/BENCH_standing.json``.
* ``ingest`` — the ingest fast path: a fixed synthetic observation
  stream into a durable sharded journal across a grid of batch sizes
  (1 / 16 / 64 / 256, single shard, group-commit window matched to the
  batch) and shard counts (2 / 4 at batch 256, serial and thread
  executors) → ``benchmarks/results/BENCH_ingest.json`` with per-config
  throughput, fsync counts, and speedups vs the per-event single-shard
  baseline (the headline: >= 5x at batch 256, asserted in-bench).
  Equality gates run before any timing: every configuration must match
  the per-event reference's logical journal digest and WriteStats, and
  an ack-point copy of each WAL directory must cold-recover to the same
  digest — an acked batch is a durable batch at every grid point.
* ``compaction`` — the journal-compaction tier: an identical long
  refresh-heavy history fed into a periodically-compacted and a
  never-compacted WAL-backed journal, reporting the resident-event
  series (compacted must plateau), median cold-recovery wall time from
  each directory (anchored recovery must be >= 5x faster at full
  scale), and storage-tier accounting →
  ``benchmarks/results/BENCH_compaction.json``.  In-bench equality
  gates abort on any divergence: ``reconstruct(entity, at)`` across
  eras, the stitched event stream, recovered state, and a platform
  pair's lookup / search / aggregate answers with compaction on vs off.

The equality of every cached/uncached and vectorized/reference pair is
asserted separately by ``benchmarks/test_perf_regression.py``; this
harness only measures (the in-bench equality gates aside).

Usage::

    PYTHONPATH=src python benchmarks/perf_harness.py [--rounds N]
    PYTHONPATH=src python benchmarks/perf_harness.py --suite serving [--ops-scale S]

Pass ``--out`` (CI smoke) to write somewhere other than the committed
``benchmarks/results/`` artifacts.  The micro configuration matches
``test_microbenchmarks.py`` (bits=14, seed 71, 1500 services, a full-port
probe space, one-day segments), so numbers are comparable across commits.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.net import AffinePermutation, ProbeSpace
from repro.search import SearchIndex
from repro.simnet import DAY, Vantage, WorkloadConfig, build_simnet

RESULTS = Path(__file__).resolve().parent / "results"


def _timed(fn, rounds: int, inner: int = 5) -> dict:
    """Median/p90 seconds-per-call over ``rounds`` samples of ``inner`` calls."""
    fn()  # warm caches (numpy columns, routing masks) before sampling
    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - t0) / inner)
    samples.sort()
    return {
        "median_ms": round(statistics.median(samples) * 1e3, 4),
        "p90_ms": round(samples[int(0.9 * (len(samples) - 1))] * 1e3, 4),
        "rounds": rounds,
    }


def bench_segment_query(rounds: int) -> dict:
    net = build_simnet(
        bits=14,
        workload_config=WorkloadConfig(
            seed=71, services_target=1500, t_start=-10 * DAY, t_end=10 * DAY
        ),
        seed=71,
    )
    space = ProbeSpace.single_range(0, net.space.size, list(range(65536)))
    perm = AffinePermutation(space.size, seed=9)
    index = net.prepare_scan(space, perm)
    segment = net.space.size * 100  # one day of background scanning
    rate = segment / 24.0
    state = {"cursor": 0}

    def make_runner(query):
        def run():
            query(state["cursor"], segment, 0.0, rate, vantage)
            state["cursor"] = (state["cursor"] + segment) % space.size
        return run

    out = {}
    for label, vantage in [
        ("", Vantage("bench", "us", loss_rate=0.0, vantage_id=50)),
        ("_lossy", Vantage("bench-lossy", "us", loss_rate=0.03, vantage_id=50)),
    ]:
        state["cursor"] = 0
        out[f"segment_query{label}"] = _timed(make_runner(index.query), rounds)
        state["cursor"] = 0
        out[f"segment_query{label}_reference"] = _timed(make_runner(index.query_reference), rounds)
    out["_population"] = {
        "probe_space": space.size,
        "indexed_instances": len(index._refs),
        "pseudo_rows": 0 if index._pseudo_cols is None else int(index._pseudo_cols.positions.size),
        "segment": segment,
    }

    # Piggyback the reachability and liveness paths on the same world.
    rng = np.random.default_rng(3)
    n = 5000
    ips = rng.integers(0, net.space.size, n)
    times = rng.uniform(-10 * DAY, 10 * DAY, n)
    salts = rng.integers(-(2**40), 2**40, n)
    vantage = Vantage("bench", "us", loss_rate=0.03, vantage_id=50)
    out["reachable_batch"] = _timed(lambda: net.reachable_many(ips, vantage, times, salts), rounds)
    ips_l = ips.tolist()
    times_l = times.tolist()
    salts_l = salts.tolist()
    out["reachable_batch_reference"] = _timed(
        lambda: [
            net.reachable(ip, vantage, t, s)
            for ip, t, s in zip(ips_l, times_l, salts_l)
        ],
        max(3, rounds // 3),
    )
    out["_population"]["reachability_points"] = n

    instances = net.workload.instances
    out["services_alive_at"] = _timed(lambda: net.services_alive_at(2.0), rounds)
    out["services_alive_at_reference"] = _timed(
        lambda: [i for i in instances if i.alive_at(2.0) and i.protocol != "NONE"], rounds
    )
    out["_population"]["workload_instances"] = len(instances)
    return out


def bench_search(rounds: int) -> dict:
    def populate(index: SearchIndex) -> None:
        rng = random.Random(3)
        names = ["HTTP", "HTTPS", "SSH", "MODBUS", "RDP", "FTP"]
        countries = ["US", "DE", "CN", "FR"]
        for i in range(5000):
            index.put(
                f"host:{i}",
                {
                    "services.service_name": [rng.choice(names)],
                    "location.country": [rng.choice(countries)],
                    "services.port": [rng.choice([80, 443, 22, 502, 3389])],
                },
            )

    fast = SearchIndex()
    slow = SearchIndex(accelerated=False)
    populate(fast)
    populate(slow)
    out = {}
    for name, query in [
        ("search_range", "services.port: [100 to 600]"),
        ("search_not", "not services.service_name: HTTP"),
        ("search_term_and", "services.service_name: MODBUS and location.country: US"),
    ]:
        out[name] = _timed(lambda q=query: fast.search(q), rounds)
        out[f"{name}_reference"] = _timed(lambda q=query: slow.search(q), rounds)
    out["_population"] = {"documents": 5000}
    return out


# -- the macro serving benchmark -------------------------------------------

#: The interactive query pool the Zipfian search segments draw from.
SERVING_QUERIES = [
    "services.service_name: HTTP",
    "services.service_name: SSH",
    "services.port: [1 to 1024]",
    "services.port < 1000 and location.country: US",
    "services.service_name: MODBUS or services.service_name: DNP3",
    "not services.service_name: HTTP",
    "location.country: DE",
    "services.port: 443",
]

SERVING_AGG_FIELDS = ["services.service_name", "location.country", "services.port"]


def _zipf_weights(n: int, s: float = 1.1) -> list:
    return [1.0 / (rank + 1) ** s for rank in range(n)]


def _latency_stats(samples: list) -> dict:
    ordered = sorted(samples)
    total = sum(ordered)
    return {
        "ops": len(ordered),
        "p50_us": round(statistics.median(ordered) * 1e6, 3),
        "p95_us": round(ordered[int(0.95 * (len(ordered) - 1))] * 1e6, 3),
        "ops_per_s": round(len(ordered) / total, 1) if total > 0 else float("inf"),
    }


def bench_serving(ops_scale: float = 1.0, seed: int = 11) -> dict:
    """Zipfian mixed serving workload: cached platform vs read_cache=False.

    Both platforms are built from the same world and warmed identically;
    every segment replays the exact same seeded operation schedule against
    each, so the latency ratio isolates the read-path caches (their
    bit-identical answers are asserted in test_perf_regression.py).
    """
    from repro.core import CensysPlatform, PlatformConfig

    def build(read_cache: bool) -> CensysPlatform:
        net = build_simnet(
            bits=12,
            workload_config=WorkloadConfig(
                seed=seed, services_target=250, t_start=-8 * DAY, t_end=8 * DAY
            ),
            seed=seed,
        )
        plat = CensysPlatform(
            net,
            PlatformConfig(predictive_daily_budget=300, seed=seed, shards=4,
                           read_cache=read_cache),
            start_time=-6 * DAY,
        )
        plat.run_until(0.0, tick_hours=6.0)
        return plat

    cached, uncached = build(True), build(False)
    hosts = [i.ip_index for i in cached.internet.services_alive_at(0.0)][:120]
    host_weights = _zipf_weights(len(hosts))
    query_weights = _zipf_weights(len(SERVING_QUERIES))

    def scaled(n: int) -> int:
        return max(20, int(n * ops_scale))

    def run_segment(make_schedule) -> dict:
        out = {}
        for label, plat in (("cached", cached), ("uncached", uncached)):
            rng = random.Random(seed + 1)  # identical schedule per platform
            samples = []
            for op in make_schedule(plat, rng):
                t0 = time.perf_counter()
                op()
                samples.append(time.perf_counter() - t0)
            out[label] = _latency_stats(samples)
        out["speedup_p50"] = round(out["uncached"]["p50_us"] / out["cached"]["p50_us"], 2)
        return out

    def lookup_schedule(plat, rng):
        picks = rng.choices(range(len(hosts)), weights=host_weights, k=scaled(1500))
        ats = [rng.choice([None, None, None, -2 * DAY, -4 * DAY]) for _ in picks]
        return [
            (lambda h=hosts[i], at=at: plat.lookup_host(h, at=at))
            for i, at in zip(picks, ats)
        ]

    def search_schedule(plat, rng):
        picks = rng.choices(range(len(SERVING_QUERIES)), weights=query_weights, k=scaled(1000))
        return [(lambda q=SERVING_QUERIES[i]: plat.search(q, limit=10)) for i in picks]

    def aggregate_schedule(plat, rng):
        picks = rng.choices(range(len(SERVING_QUERIES)), weights=query_weights, k=scaled(300))
        fields = rng.choices(SERVING_AGG_FIELDS, k=len(picks))
        return [
            (lambda q=SERVING_QUERIES[i], f=f: plat.index.aggregate(q, f))
            for i, f in zip(picks, fields)
        ]

    def mixed_schedule(plat, rng):
        # Lookups and searches interleaved with live ingest pumps: every
        # 40th op ticks the platform (scans + journal writes + reindex),
        # invalidating the entities and shards those writes touch.
        ops = []
        for n in range(scaled(800)):
            if n % 40 == 39:
                ops.append(lambda p=plat: p.tick(0.25))
            elif rng.random() < 0.6:
                i = rng.choices(range(len(hosts)), weights=host_weights, k=1)[0]
                ops.append(lambda p=plat, h=hosts[i]: p.lookup_host(h))
            else:
                i = rng.choices(range(len(SERVING_QUERIES)), weights=query_weights, k=1)[0]
                ops.append(lambda p=plat, q=SERVING_QUERIES[i]: p.search(q, limit=10))
        return ops

    segments = {
        "repeated_lookup": run_segment(lookup_schedule),
        "repeated_search": run_segment(search_schedule),
        "aggregate": run_segment(aggregate_schedule),
        "mixed_with_ingest": run_segment(mixed_schedule),
    }
    return {
        "config": {
            "bits": 12, "seed": seed, "services_target": 250, "shards": 4,
            "warmup_days": 6, "hosts": len(hosts), "queries": len(SERVING_QUERIES),
            "zipf_s": 1.1, "ops_scale": ops_scale,
        },
        "segments": segments,
        "cache": cached.traffic_report()["read_cache"],
    }


def bench_replication(ops_scale: float = 1.0, seed: int = 11, rounds: int = 12) -> dict:
    """Replication ingest overhead and failover promotion latency.

    The workload is a fixed schedule of atomic WAL batches appended
    through one :class:`ReplicatedShard`.  Ingest timing runs the full
    schedule (including the per-batch replication pump and final
    catch-up) at factor 0 / 1 / 2 over perfect links — factor 0 has no
    replicator attached, so the ratios isolate the tier's cost.  The
    failover segment ingests over *lossy* links so replicas genuinely
    lag, then times ``kill_primary()`` + ``fail_over()`` and checks the
    promoted journal holds every acked write (the chaos suite's
    invariant, re-asserted here so the bench can't report a fast but
    lossy promotion).
    """
    import tempfile

    from repro.pipeline import FaultPlan
    from repro.pipeline.replication import ReplicatedShard

    n_batches = max(40, int(300 * ops_scale))
    events_per_batch = 4
    rng = random.Random(seed)
    batches = []
    t = 0.0
    for _ in range(n_batches):
        batch = []
        for _ in range(events_per_batch):
            t += 0.25
            ip = f"10.{rng.randrange(4)}.{rng.randrange(16)}.{rng.randrange(256)}"
            batch.append(
                (
                    f"host:{ip}",
                    t,
                    "service_found",
                    {
                        "key": f"{rng.choice([22, 80, 443, 3306])}/tcp",
                        "record": {"banner": f"svc-{rng.randrange(1000)}"},
                        "source": "scan",
                    },
                )
            )
        batches.append(batch)
    total_events = n_batches * events_per_batch

    def ingest_once(factor: int) -> float:
        with tempfile.TemporaryDirectory(prefix="bench-repl-") as root:
            shard = ReplicatedShard(
                os.path.join(root, "shard"),
                replication_factor=factor,
                plan=None,
                snapshot_every=32,
                segment_max_records=256,
            )
            t0 = time.perf_counter()
            for batch in batches:
                with shard.primary.transaction():
                    for entity_id, at, kind, payload in batch:
                        shard.primary.append(entity_id, at, kind, payload)
                if factor:
                    shard.pump(1)
            wall = time.perf_counter() - t0
            if shard.replicator.watermark() != n_batches:  # pragma: no cover
                raise SystemExit(
                    f"factor {factor}: watermark {shard.replicator.watermark()} "
                    f"!= {n_batches} batches over perfect links"
                )
            assert shard.primary.stats.events == total_events
            shard.close()
            return wall

    ingest_reps = 5
    ingest_out = {}
    for factor in (0, 1, 2):
        walls = sorted(ingest_once(factor) for _ in range(ingest_reps))
        median = statistics.median(walls)
        ingest_out[f"factor_{factor}"] = {
            "median_ms": round(median * 1e3, 3),
            "p90_ms": round(walls[int(0.9 * (len(walls) - 1))] * 1e3, 3),
            "events_per_s": round(total_events / median, 1),
            "reps": ingest_reps,
        }
    base = ingest_out["factor_0"]["median_ms"]
    overhead = {
        f"factor_{f}": round(ingest_out[f"factor_{f}"]["median_ms"] / base, 3)
        for f in (1, 2)
    }

    promote_samples = []
    tails = []
    for r in range(rounds):
        plan = FaultPlan(
            seed=seed + 1000 * (r + 1),
            drop_rate=0.2,
            duplicate_rate=0.1,
            reorder_rate=0.2,
            delay_rate=0.1,
            max_delay_rounds=2,
        )
        with tempfile.TemporaryDirectory(prefix="bench-repl-fo-") as root:
            shard = ReplicatedShard(
                os.path.join(root, "shard"),
                replication_factor=2,
                ack_replicas=2,
                plan=plan,
                snapshot_every=32,
                segment_max_records=256,
            )
            for batch in batches:
                with shard.primary.transaction():
                    for entity_id, at, kind, payload in batch:
                        shard.primary.append(entity_id, at, kind, payload)
                shard.pump(1)
            report = shard.replicator.report()
            watermark = report["watermark"]
            # The most-advanced replica's tail beyond the watermark is what
            # fail_over() replays into the new primary's WAL.
            tails.append(n_batches - min(report["lag_batches"]) - watermark)
            acked_events = watermark * events_per_batch
            t0 = time.perf_counter()
            shard.kill_primary()
            promoted = shard.fail_over()
            promote_samples.append(time.perf_counter() - t0)
            if promoted.stats.events < acked_events:  # pragma: no cover
                raise SystemExit(
                    f"round {r}: promotion lost acked writes "
                    f"({promoted.stats.events} < {acked_events}) — plan {plan!r}"
                )
            # The new epoch's replicas catch up from the promoted log.
            for _ in range(500):
                if shard.replicator.watermark() == len(shard.replicator.log):
                    break
                shard.pump(1)
            else:  # pragma: no cover
                raise SystemExit(f"round {r}: post-failover catch-up stalled")
            shard.close()
    promote_samples.sort()

    return {
        "config": {
            "seed": seed,
            "ops_scale": ops_scale,
            "batches": n_batches,
            "events_per_batch": events_per_batch,
            "ingest_reps": ingest_reps,
            "failover_rounds": rounds,
            "failover_plan": {
                "drop_rate": 0.2, "duplicate_rate": 0.1, "reorder_rate": 0.2,
                "delay_rate": 0.1, "max_delay_rounds": 2,
            },
            "zero_acked_loss_checked": True,
        },
        "ingest": ingest_out,
        "overhead_vs_factor_0": overhead,
        "failover": {
            "promote_median_ms": round(statistics.median(promote_samples) * 1e3, 3),
            "promote_p90_ms": round(
                promote_samples[int(0.9 * (len(promote_samples) - 1))] * 1e3, 3
            ),
            "tail_batches_replayed_mean": round(sum(tails) / len(tails), 2),
            "tail_batches_replayed_max": max(tails),
        },
    }


def bench_compaction(ops_scale: float = 1.0, seed: int = 11) -> dict:
    """Journal compaction: bounded memory and O(snapshot + tail) recovery.

    Feeds an identical long refresh-heavy history (the LZR observation:
    most re-scans change nothing) into two WAL-backed journals — one
    compacted periodically, one never — then measures (a) the resident
    event series under the feed (the compacted journal must plateau while
    the uncompacted one grows linearly), and (b) cold-recovery wall time
    from each directory (anchored recovery must be >= 5x faster on the
    full history).  Before any number is reported, an equality gate
    replays reads across eras — ``reconstruct(entity, at)`` at sampled
    timestamps, current state, and the stitched event stream — and a
    platform-level gate compares lookup / search / aggregate answers for
    a compaction-on vs compaction-off platform pair; any divergence
    aborts the bench.
    """
    import shutil
    import tempfile

    from repro.core.platform import CensysPlatform, PlatformConfig
    from repro.pipeline import EventJournal, SegmentCompactor, WriteAheadLog, canonical_json

    rng = random.Random(seed)
    n_hosts = 32
    rounds = max(60, int(420 * ops_scale))
    segment_max_records = 64
    snapshot_every = 16
    compact_every = max(4, rounds // 24)  # fold ~24 times across the feed

    hosts = [f"host:10.1.{i // 256}.{i % 256}" for i in range(n_hosts)]
    ports = [22, 80, 443]

    def workload():
        """One deterministic generator per consumer (identical schedules)."""
        local = random.Random(seed + 1)
        t = 0.0
        for round_ in range(rounds):
            for host in hosts:
                for port in ports:
                    t += 0.125
                    key = f"{port}/tcp"
                    if round_ == 0:
                        yield round_, host, t, "service_found", {
                            "key": key, "protocol": "tcp",
                            "record": {"banner": f"svc-{port}", "status": 200},
                        }
                    elif local.random() < 0.06:
                        yield round_, host, t, "service_changed", {
                            "key": key, "changed": {"banner": f"svc-{port}-r{round_}"},
                        }
                    else:
                        # The dominant case: a no-change re-observation,
                        # heartbeat-encoded on the WAL wire.
                        yield round_, host, t, "service_refreshed", {"key": key}

    root = tempfile.mkdtemp(prefix="bench-compaction-")
    plain_dir = os.path.join(root, "plain")
    compact_dir = os.path.join(root, "compact")
    try:
        plain = EventJournal(
            snapshot_every=snapshot_every,
            wal=WriteAheadLog(plain_dir, segment_max_records=segment_max_records,
                              group_commit_events=64),
        )
        compacted = EventJournal(
            snapshot_every=snapshot_every,
            wal=WriteAheadLog(compact_dir, segment_max_records=segment_max_records,
                              group_commit_events=64),
        )
        compactor = SegmentCompactor(compacted, compact_dir, min_sealed_segments=2)

        resident_series = {"round": [], "plain": [], "compacted": []}
        sample_times: list = []
        last_round = -1
        for round_, host, t, kind, payload in workload():
            if round_ != last_round:
                if last_round >= 0 and last_round % compact_every == 0:
                    compactor.run_once()
                if last_round >= 0 and last_round % max(1, rounds // 16) == 0:
                    resident_series["round"].append(last_round)
                    resident_series["plain"].append(plain.stats.resident_events)
                    resident_series["compacted"].append(compacted.stats.resident_events)
                    sample_times.append(t)
                last_round = round_
            plain.append(host, t, kind, dict(payload))
            compacted.append(host, t, kind, dict(payload))
        compactor.run_once()
        resident_series["round"].append(last_round)
        resident_series["plain"].append(plain.stats.resident_events)
        resident_series["compacted"].append(compacted.stats.resident_events)

        # -- equality gate: reads across eras must be bit-identical -------
        t_end = plain._logs[hosts[0]].events[-1].time if plain._logs[hosts[0]].events else 0.0
        gate_times = sorted(set(sample_times[:3] + sample_times[-3:] + [t_end, None]),
                            key=lambda v: (v is None, v))
        checked = 0
        for host in hosts:
            for at in gate_times:
                a = canonical_json(plain.reconstruct(host, at))
                b = canonical_json(compacted.reconstruct(host, at))
                if a != b:  # pragma: no cover - the gate
                    raise SystemExit(f"equality gate: reconstruct({host}, {at}) diverged")
                checked += 1
            ev_a = [(e.seq, e.time, e.kind, canonical_json(e.payload))
                    for e in plain.events_for(host)]
            ev_b = [(e.seq, e.time, e.kind, canonical_json(e.payload))
                    for e in compacted.events_for(host)]
            if ev_a != ev_b:  # pragma: no cover - the gate
                raise SystemExit(f"equality gate: event stream for {host} diverged")

        storage = {
            "plain": plain.storage_report(),
            "compacted": compacted.storage_report(),
            "compaction": {
                name: getattr(compactor.stats, name)
                for name in ("runs", "segments_compacted", "events_folded",
                             "event_bytes_folded", "cold_files", "cold_file_bytes",
                             "synthetic_anchors")
            },
        }
        total_events = plain.stats.events
        plain.close()
        compacted.close()

        # -- recovery timing: O(history) vs O(snapshot + tail) ------------
        def recover_once(directory: str) -> tuple:
            t0 = time.perf_counter()
            journal = EventJournal.recover(
                directory, snapshot_every, segment_max_records=segment_max_records,
                reopen=False,
            )
            wall = time.perf_counter() - t0
            replayed = journal.stats.recovered_events
            return wall, replayed, journal

        recovery = {}
        recovered_journals = {}
        for label, directory in (("plain", plain_dir), ("compacted", compact_dir)):
            walls = []
            for _ in range(3):
                wall, replayed, journal = recover_once(directory)
                walls.append(wall)
                recovered_journals[label] = journal
            recovery[label] = {
                "median_ms": round(statistics.median(walls) * 1000, 3),
                "events_replayed": replayed,
            }
        speedup = round(
            recovery["plain"]["median_ms"] / recovery["compacted"]["median_ms"], 2
        )

        # Recovered journals must agree with each other too.
        for host in rng.sample(hosts, 8):
            a = canonical_json(recovered_journals["plain"].reconstruct(host))
            b = canonical_json(recovered_journals["compacted"].reconstruct(host))
            if a != b:  # pragma: no cover - the gate
                raise SystemExit(f"equality gate: recovered state for {host} diverged")
    finally:
        shutil.rmtree(root, ignore_errors=True)

    # -- platform-level gate: lookup / search / aggregate ------------------
    plat_root = tempfile.mkdtemp(prefix="bench-compaction-plat-")
    try:
        def build(compaction: bool) -> CensysPlatform:
            net = build_simnet(
                bits=12,
                workload_config=WorkloadConfig(
                    seed=seed, services_target=250, t_start=-6 * DAY, t_end=2 * DAY
                ),
                seed=seed,
            )
            cfg = PlatformConfig(
                predictive_daily_budget=300, seed=seed, shards=2,
                wal_dir=os.path.join(plat_root, "on" if compaction else "off"),
                compaction=compaction, compaction_interval_hours=24.0,
                compaction_min_sealed_segments=2,
            )
            plat = CensysPlatform(net, cfg, start_time=-6 * DAY)
            plat.run_until(0.0, tick_hours=6.0)
            return plat

        plat_off = build(False)
        plat_on = build(True)
        platform_gate = {"lookups": 0, "searches": 0, "aggregates": 0}
        gate_ips = sorted({i.ip_index for i in plat_off.internet.services_alive_at(0.0)})[:60]
        for ip in gate_ips:
            for at in (None, -3 * DAY):
                a = canonical_json(plat_off.lookup_host(ip, at=at))
                b = canonical_json(plat_on.lookup_host(ip, at=at))
                if a != b:  # pragma: no cover - the gate
                    raise SystemExit(f"platform gate: lookup({ip}, {at}) diverged")
                platform_gate["lookups"] += 1
        queries = ("services.service_name: HTTP", "services.port: [100 to 600]",
                   "not services.service_name: HTTP")
        for query in queries:
            if plat_off.search(query) != plat_on.search(query):  # pragma: no cover
                raise SystemExit(f"platform gate: search({query!r}) diverged")
            platform_gate["searches"] += 1
        for query, agg_field in (("services.port: *", "services.service_name"),
                                 ("services.service_name: HTTP", "location.country")):
            if plat_off.index.aggregate(query, agg_field) != \
                    plat_on.index.aggregate(query, agg_field):  # pragma: no cover
                raise SystemExit(f"platform gate: aggregate({query!r}) diverged")
            platform_gate["aggregates"] += 1
        platform_storage = plat_on.traffic_report()["storage"]
        plat_off.close()
        plat_on.close()
    finally:
        shutil.rmtree(plat_root, ignore_errors=True)

    plateau = {
        "plain_final": resident_series["plain"][-1],
        "compacted_final": resident_series["compacted"][-1],
        "compacted_peak": max(resident_series["compacted"]),
        # Bounded memory: the compacted journal's resident ceiling vs the
        # uncompacted journal's final (linearly-grown) population.
        "reduction_at_end": round(
            resident_series["plain"][-1] / max(1, resident_series["compacted"][-1]), 1
        ),
    }

    gates_pass = {
        "reads_identical": True,  # divergence aborts above
        "recovery_speedup_target": 5.0,
        "recovery_speedup_ok": speedup >= 5.0,
        "memory_plateaus": plateau["compacted_peak"] < resident_series["plain"][-1] // 2,
        "reconstructions_checked": checked,
        "platform": platform_gate,
    }
    if ops_scale >= 1.0 and not gates_pass["recovery_speedup_ok"]:  # pragma: no cover
        raise SystemExit(f"recovery speedup {speedup} < 5x at full scale")

    return {
        "config": {
            "seed": seed, "ops_scale": ops_scale, "hosts": n_hosts, "rounds": rounds,
            "events": total_events, "segment_max_records": segment_max_records,
            "snapshot_every": snapshot_every, "compact_every_rounds": compact_every,
        },
        "recovery": {**recovery, "speedup": speedup},
        "resident_events": resident_series,
        "memory": plateau,
        "storage": storage,
        "platform_storage": platform_storage,
        "gates": gates_pass,
    }


# -- the standing-query benchmark -------------------------------------------

STANDING_LEVELS = (10_000, 30_000, 100_000)


def bench_standing(ops_scale: float = 1.0, seed: int = 11) -> dict:
    """Standing queries at scale: per-event cost bounded by matches.

    The scale sweep registers N anchored subscriptions whose token
    vocabulary grows with N (a fixed ``subs_per_token``, plus a fixed
    handful of broad ones), then replays the identical synthetic
    document stream at every level.  Because each event's expected match
    count is constant by construction, a correct inverted predicate
    index keeps per-event evaluations and wall time flat while
    registrations grow 10x — asserted, not just reported, alongside the
    evaluations-avoided ratio vs the evaluate-everything strawman.

    The delivery segment pushes one level's notification stream through
    the seeded drop/duplicate/delay channel and requires the consumer
    set to equal the emitted set exactly once (at-least-once wire, seq
    dedupe at the consumer, zero dead letters).  The platform segment
    attaches a full-scale idle watchlist plus a small live one to a real
    ingest run and reports the tick wall-clock next to an identically
    seeded subscription-free platform.
    """
    from repro.core import CensysPlatform, PlatformConfig
    from repro.pipeline import FaultPlan, Notification, NotificationDeliverer, SubscriptionEngine
    from repro.pipeline.reliability import RetryPolicy

    subs_per_token = 10
    broad_subs = 20
    tokens_per_event = 3
    n_events = max(200, int(2000 * ops_scale))
    levels = sorted({max(500, int(n * ops_scale)) for n in STANDING_LEVELS})

    def event_stream(vocab_size: int):
        """One deterministic stream of document upserts (identical per level
        up to vocabulary size; token ranks are shared across levels)."""
        rng = random.Random(seed + 1)
        for n in range(n_events):
            entity = f"host:{n % (n_events // 4)}"
            ranks = rng.sample(range(vocab_size), tokens_per_event)
            yield entity, {
                "services.protocol": [f"proto{r}" for r in ranks],
                "services.port": [rng.choice([22, 80, 443, 8080])],
            }

    sweep = {}
    for n_subs in levels:
        vocab_size = max(tokens_per_event, n_subs // subs_per_token)
        engine = SubscriptionEngine()
        rng = random.Random(seed)
        for i in range(n_subs - broad_subs):
            token = f"proto{i % vocab_size}"
            if rng.random() < 0.3:
                query = f"services.protocol: {token} and services.port > 1000"
            else:
                query = f"services.protocol: {token}"
            engine.subscribe(query, sub_id=f"watch-{i:07d}")
        for i in range(broad_subs):
            engine.subscribe(f"services.port > {7000 + i}", sub_id=f"broad-{i:03d}")

        t0 = time.perf_counter()
        for entity, document in event_stream(vocab_size):
            engine.on_document(entity, document)
        wall = time.perf_counter() - t0
        engine.deliverer.pump()
        engine.deliverer.drain_delivered()
        report = engine.report()
        per_event = report["candidates_evaluated"] / report["events_seen"]
        sweep[str(n_subs)] = {
            "subscriptions": n_subs,
            "vocab_tokens": vocab_size,
            "events": report["events_seen"],
            "us_per_event": round(wall / report["events_seen"] * 1e6, 2),
            "candidates_per_event": round(per_event, 2),
            "notifications_emitted": report["notifications_emitted"],
            # The evaluate-everything strawman runs n_subs plan matches
            # per event; this is the fraction the anchor index skipped.
            "evals_avoided_vs_naive": round(1.0 - per_event / n_subs, 4),
        }

    lo, hi = sweep[str(levels[0])], sweep[str(levels[-1])]
    growth = levels[-1] / levels[0]
    sublinear = {
        "registrations_growth": round(growth, 1),
        "candidates_per_event_growth": round(
            hi["candidates_per_event"] / lo["candidates_per_event"], 3
        ),
        "us_per_event_growth": round(hi["us_per_event"] / lo["us_per_event"], 3),
    }
    # The contract, asserted: per-event evaluations stay flat (bounded by
    # the constructed match count) while registrations grow ~10x, and
    # wall time grows far slower than the registration count.
    if sublinear["candidates_per_event_growth"] > 1.5:  # pragma: no cover - the gate
        raise SystemExit(
            f"candidate evaluations grew {sublinear['candidates_per_event_growth']}x "
            f"across a {growth:.0f}x registration sweep — the anchor index is not narrowing"
        )
    if sublinear["us_per_event_growth"] > growth / 2:  # pragma: no cover - the gate
        raise SystemExit(
            f"per-event wall time grew {sublinear['us_per_event_growth']}x "
            f"across a {growth:.0f}x registration sweep"
        )

    # -- at-least-once delivery under a seeded fault plan ------------------
    plan = FaultPlan(seed=seed, drop_rate=0.3, duplicate_rate=0.2, delay_rate=0.2)
    deliverer = NotificationDeliverer(plan, RetryPolicy(max_attempts=64))
    emitted = max(100, int(800 * ops_scale))
    for i in range(emitted):
        deliverer.offer(
            Notification(i, f"watch-{i % 97:07d}", f"host:{i % 53}", "entered", float(i), "q")
        )
    t0 = time.perf_counter()
    deliverer.pump(max_rounds=512)
    delivery_wall = time.perf_counter() - t0
    delivered = deliverer.drain_delivered()
    if sorted(n.seq for n in delivered) != list(range(emitted)):  # pragma: no cover
        raise SystemExit(
            f"delivery gate: {len(delivered)}/{emitted} notifications arrived "
            f"under plan {plan!r}"
        )
    delivery = {
        "emitted": emitted,
        "delivered": len(delivered),
        "exactly_once_at_consumer": True,
        "transmissions": deliverer.transmissions,
        "retransmit_ratio": round(deliverer.transmissions / emitted, 3),
        "duplicates_dropped": deliverer.duplicates_dropped,
        "dead_letters": len(deliverer.dead_letters),
        "wall_ms": round(delivery_wall * 1e3, 3),
        "fault_plan": {"seed": seed, "drop_rate": 0.3, "duplicate_rate": 0.2,
                       "delay_rate": 0.2},
    }

    # -- ingest-load segment: a full-scale watchlist on a live platform ----
    idle_watchlist = levels[-1]

    def build(subscriptions: bool) -> CensysPlatform:
        net = build_simnet(
            bits=12,
            workload_config=WorkloadConfig(
                seed=seed, services_target=250, t_start=-8 * DAY, t_end=4 * DAY
            ),
            seed=seed,
        )
        return CensysPlatform(
            net,
            PlatformConfig(predictive_daily_budget=300, seed=seed,
                           subscriptions=subscriptions),
            start_time=-4 * DAY,
        )

    def run(plat: CensysPlatform) -> float:
        t0 = time.perf_counter()
        plat.run_until(0.0, tick_hours=6.0)
        return time.perf_counter() - t0

    baseline = build(False)
    baseline_wall = run(baseline)

    watched = build(True)
    t0 = time.perf_counter()
    # The realistic shape: a huge mostly-idle watchlist (anchored tokens
    # that never occur in this world) plus a small live one.
    for i in range(idle_watchlist - 50):
        watched.subscribe(f"services.protocol: cve{i:07d}", sub_id=f"idle-{i:07d}")
    live_queries = [
        "services.protocol: http", "services.protocol: ssh",
        "services.service_name: MODBUS", "services.tls.self_signed: true",
        "services.port > 8000",
    ]
    for i in range(50):
        watched.subscribe(live_queries[i % len(live_queries)], sub_id=f"live-{i:03d}")
    register_wall = time.perf_counter() - t0
    watched_wall = run(watched)
    notes = watched.drain_notifications()
    report = watched.traffic_report()["subscriptions"]
    platform_segment = {
        "registered": report["registered"],
        "register_wall_s": round(register_wall, 3),
        "ingest_wall_s": round(watched_wall, 3),
        "baseline_ingest_wall_s": round(baseline_wall, 3),
        "ingest_overhead": round(watched_wall / baseline_wall, 3),
        "events_seen": report["events_seen"],
        "candidates_per_event": round(
            report["candidates_evaluated"] / max(1, report["events_seen"]), 2
        ),
        "notifications_delivered": len(notes),
        "dead_letters": report["dead_letters"],
    }
    baseline.close()
    watched.close()

    return {
        "config": {
            "seed": seed, "ops_scale": ops_scale, "levels": levels,
            "subs_per_token": subs_per_token, "broad_subs": broad_subs,
            "tokens_per_event": tokens_per_event, "events": n_events,
            "sublinear_gates": {"candidates_growth_max": 1.5,
                                "time_growth_max": round(growth / 2, 1)},
        },
        "sweep": sweep,
        "sublinear": sublinear,
        "delivery": delivery,
        "platform": platform_segment,
    }


def bench_ingest(ops_scale: float = 1.0, seed: int = 11) -> dict:
    """The ingest fast path: batch size x shards x executor x group commit.

    A fixed synthetic observation stream (mixed finds / refreshes /
    changes / failures with same-entity runs) ingests into a durable
    sharded journal under a grid of configurations:

    * the **batch axis** — single shard, batch size 1 / 16 / 64 / 256,
      group-commit window matched to the batch (the headline: >= 5x the
      per-event single-shard baseline at batch 256);
    * the **shard axis** — batch 256 at 2 and 4 shards across the three
      executor backends (the process backend runs ingest closures through
      its in-process fallback, so it times like the thread backend).

    Equality gates run before any timing and abort the bench on
    divergence: every configuration must produce the same logical journal
    digest, the same ``WriteStats``, and the same serving digest — every
    lookup view, full event history, search answer, and aggregate table
    computed over the ingested journal — as the per-event reference, and
    a copy of each WAL directory taken at the ack point (windows flushed,
    handles still open — a crash, not a clean close) must recover to both
    digests.  An acked batch is a durable batch, at every grid point, and
    the batched fast path is invisible to readers.
    """
    import shutil
    import tempfile

    from repro.pipeline import (
        EventBus,
        ScanObservation,
        ShardMap,
        ShardedJournal,
        WriteSideProcessor,
        make_executor,
    )
    from repro.pipeline.read_side import ReadSide
    from repro.protocols.interrogate import InterrogationResult
    from repro.search import SearchIndex
    from repro.search.flatten import flatten_host_view

    n_obs = max(400, int(2500 * ops_scale))
    rng = random.Random(seed)
    hosts = [f"host:10.4.{i // 8}.{i % 8 + 1}" for i in range(96)]
    ports = [22, 80, 443, 3306]
    versions: dict = {}
    stream = []
    while len(stream) < n_obs:
        host = rng.choice(hosts)
        for _ in range(rng.choice([1, 1, 1, 2, 3, 4])):  # same-entity runs
            port = rng.choice(ports)
            t = float(len(stream)) * 0.01
            key = (host, port)
            roll = rng.random()
            if roll < 0.15:
                result = InterrogationResult(port=port, transport="tcp", success=False)
            else:
                if roll < 0.35:
                    versions[key] = versions.get(key, 0) + 1
                else:
                    versions.setdefault(key, 1)
                result = InterrogationResult(
                    port=port, transport="tcp", success=True, protocol="HTTP",
                    record={"http.status": 200, "banner": f"v{versions[key]}"},
                )
            stream.append(
                ScanObservation(host, t, port, "tcp", result, obs_seq=len(stream))
            )
    stream = stream[:n_obs]

    def logical_digest(journal) -> str:
        """Shard-count-independent journal content hash."""
        h = hashlib.sha256()
        for entity_id in sorted(journal.entity_ids()):
            for e in journal.events_for(entity_id):
                h.update(
                    json.dumps(
                        [e.entity_id, e.seq, e.time, e.kind, e.payload],
                        sort_keys=True, default=str,
                    ).encode()
                )
        return h.hexdigest()

    INGEST_QUERIES = [
        "services.service_name: HTTP",
        "services.port: 443",
        "services.port: [1 to 1024]",
        "services.banner: v2 or services.banner: v3",
        "not services.service_name: HTTP",
    ]
    INGEST_AGG_FIELDS = ["services.port", "services.service_name", "services.banner"]

    def serving_digest(journal) -> str:
        """Read-level equality: every lookup view, full history, search
        answer, and aggregate table over the ingested journal."""
        reads = ReadSide(journal)
        index = SearchIndex()
        h = hashlib.sha256()
        for entity_id in sorted(journal.entity_ids()):
            view = reads.lookup(entity_id, enrich=False)
            h.update(json.dumps(view, sort_keys=True, default=str).encode())
            h.update(
                json.dumps(reads.history(entity_id), sort_keys=True, default=str).encode()
            )
            if view["services"]:
                index.put(entity_id, flatten_host_view(view))
        for query in INGEST_QUERIES:
            h.update(json.dumps(index.search(query), default=str).encode())
            for field in INGEST_AGG_FIELDS:
                h.update(
                    json.dumps(
                        sorted(index.aggregate(query, field).items()), default=str
                    ).encode()
                )
        return h.hexdigest()

    def run_config(root, batch, shards, executor, window):
        journal = ShardedJournal.durable(
            os.path.join(root, "wal"), ShardMap(shards), group_commit_events=window
        )
        ws = WriteSideProcessor(journal, EventBus())
        t0 = time.perf_counter()
        if batch == 1:
            for obs in stream:
                ws.submit(obs)
            journal.flush_commit_windows()
        else:
            for lo in range(0, len(stream), batch):
                ws.submit_many(stream[lo : lo + batch], executor=executor)
        wall = time.perf_counter() - t0
        return journal, ws, wall

    grid = [("batch_1", 1, 1, "serial", 1)]
    for batch in (16, 64, 256):
        grid.append((f"batch_{batch}", batch, 1, "serial", batch))
    for shards in (2, 4):
        for backend in ("serial", "thread"):
            grid.append((f"shards_{shards}_{backend}", 256, shards, backend, 256))

    executors = {name: make_executor(name) for name in ("serial", "thread")}

    # -- equality gates (abort before timing on any divergence) ------------
    reference_digest = None
    reference_stats = None
    reference_serving = None
    fsyncs = {}
    for name, batch, shards, backend, window in grid:
        with tempfile.TemporaryDirectory(prefix="bench-ingest-") as root:
            journal, ws, _ = run_config(root, batch, shards, executors[backend], window)
            digest = logical_digest(journal)
            serving = serving_digest(journal)
            stats = dataclasses.asdict(ws.stats)
            fsyncs[name] = sum(j.wal.stats.fsyncs for j in journal.journals)
            if reference_digest is None:
                reference_digest, reference_stats = digest, stats
                reference_serving = serving
            elif digest != reference_digest:  # pragma: no cover
                raise SystemExit(f"ingest gate: {name} journal diverged from per-event reference")
            elif serving != reference_serving:  # pragma: no cover
                raise SystemExit(
                    f"ingest gate: {name} serving (lookup/search/aggregate/history) diverged"
                )
            elif stats != reference_stats:  # pragma: no cover
                raise SystemExit(f"ingest gate: {name} WriteStats diverged: {stats}")
            # Crash-recovery equality: copy the WAL at the ack point (the
            # live handles stay open — nothing close() does can help) and
            # recover the copy cold.
            crash_copy = os.path.join(root, "crash-copy")
            shutil.copytree(os.path.join(root, "wal"), crash_copy)
            journal.close()
            recovered = ShardedJournal.recover(crash_copy, ShardMap(shards), reopen=False)
            if logical_digest(recovered) != reference_digest:  # pragma: no cover
                raise SystemExit(f"ingest gate: {name} crash recovery diverged")
            if serving_digest(recovered) != reference_serving:  # pragma: no cover
                raise SystemExit(f"ingest gate: {name} post-crash serving diverged")

    # -- timing ------------------------------------------------------------
    # Best-of-reps: fsync latency on shared filesystems is noisy in one
    # direction only, so the minimum is the stable estimator; reps are
    # interleaved round-robin so a slow patch of I/O hits every config.
    reps = 5
    walls: dict = {name: [] for name, *_ in grid}
    for _ in range(reps):
        for name, batch, shards, backend, window in grid:
            with tempfile.TemporaryDirectory(prefix="bench-ingest-") as root:
                journal, _, wall = run_config(root, batch, shards, executors[backend], window)
                journal.close()
                walls[name].append(wall)
    out = {}
    for name, batch, shards, backend, window in grid:
        best = min(walls[name])
        out[name] = {
            "batch": batch,
            "shards": shards,
            "executor": backend,
            "group_commit_events": window,
            "best_ms": round(best * 1e3, 3),
            "median_ms": round(statistics.median(walls[name]) * 1e3, 3),
            "events_per_s": round(n_obs / best, 1),
            "fsyncs": fsyncs[name],
            "reps": reps,
        }
    for executor in executors.values():
        executor.close()

    baseline = out["batch_1"]["best_ms"]
    speedups = {
        name: round(baseline / cfg["best_ms"], 2)
        for name, cfg in out.items()
        if name != "batch_1"
    }
    if ops_scale >= 1.0 and speedups["batch_256"] < 5.0:  # pragma: no cover
        raise SystemExit(
            f"ingest bench: batch-256 speedup {speedups['batch_256']}x "
            "is below the 5x single-shard target at full scale"
        )
    return {
        "config": {"observations": n_obs, "seed": seed, "ops_scale": ops_scale},
        "gates": {
            "journal_digest": "identical across all configurations",
            "serving_digest": (
                "lookup/search/aggregate/history answers identical across all "
                "configurations"
            ),
            "write_stats": "identical across all configurations",
            "crash_recovery": (
                "ack-point WAL copy recovers to the reference journal and "
                "serving digests"
            ),
        },
        "configurations": out,
        "speedups_vs_per_event": speedups,
    }


def _git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, cwd=Path(__file__).resolve().parent,
        ).stdout.strip()
    except OSError:
        return ""


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--suite",
        choices=["micro", "serving", "replication", "compaction", "standing", "ingest"],
        default="micro",
    )
    parser.add_argument("--rounds", type=int, default=30, help="micro: timing samples per path")
    parser.add_argument(
        "--ops-scale", type=float, default=1.0,
        help="serving/replication: scale factor on op counts (CI smoke uses < 1)",
    )
    parser.add_argument(
        "--seed", type=int, default=11,
        help="serving/replication: world + schedule seed (recorded in the emitted JSON)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="output JSON path (default: the committed benchmarks/results/ artifact "
        "for the suite); smoke runs point this elsewhere to leave committed results alone",
    )
    args = parser.parse_args()

    if args.suite == "ingest":
        ingest = bench_ingest(ops_scale=args.ops_scale, seed=args.seed)
        payload = {
            "commit": _git_commit(),
            "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
            **ingest,
        }
        out_path = args.out
        if out_path is None:
            RESULTS.mkdir(exist_ok=True)
            out_path = RESULTS / "BENCH_ingest.json"
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(json.dumps(payload["speedups_vs_per_event"], indent=2))
        print(f"wrote {out_path}")
        return

    if args.suite == "standing":
        standing = bench_standing(ops_scale=args.ops_scale, seed=args.seed)
        payload = {
            "commit": _git_commit(),
            "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
            **standing,
        }
        out_path = args.out
        if out_path is None:
            RESULTS.mkdir(exist_ok=True)
            out_path = RESULTS / "BENCH_standing.json"
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(json.dumps(
            {
                "sublinear": payload["sublinear"],
                "delivery_retransmit_ratio": payload["delivery"]["retransmit_ratio"],
                "platform_ingest_overhead": payload["platform"]["ingest_overhead"],
            },
            indent=2,
        ))
        print(f"wrote {out_path}")
        return

    if args.suite == "compaction":
        compaction = bench_compaction(ops_scale=args.ops_scale, seed=args.seed)
        payload = {
            "commit": _git_commit(),
            "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
            **compaction,
        }
        out_path = args.out
        if out_path is None:
            RESULTS.mkdir(exist_ok=True)
            out_path = RESULTS / "BENCH_compaction.json"
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(json.dumps(
            {
                "recovery_speedup": payload["recovery"]["speedup"],
                "resident_plain_final": payload["memory"]["plain_final"],
                "resident_compacted_peak": payload["memory"]["compacted_peak"],
                "gates": payload["gates"],
            },
            indent=2,
        ))
        print(f"wrote {out_path}")
        return

    if args.suite == "replication":
        replication = bench_replication(ops_scale=args.ops_scale, seed=args.seed)
        payload = {
            "commit": _git_commit(),
            "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
            **replication,
        }
        out_path = args.out
        if out_path is None:
            RESULTS.mkdir(exist_ok=True)
            out_path = RESULTS / "BENCH_replication.json"
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(json.dumps(
            {
                "overhead_vs_factor_0": payload["overhead_vs_factor_0"],
                "promote_median_ms": payload["failover"]["promote_median_ms"],
            },
            indent=2,
        ))
        print(f"wrote {out_path}")
        return

    if args.suite == "serving":
        serving = bench_serving(ops_scale=args.ops_scale, seed=args.seed)
        payload = {
            "commit": _git_commit(),
            "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
            **serving,
        }
        out_path = args.out
        if out_path is None:
            RESULTS.mkdir(exist_ok=True)
            out_path = RESULTS / "BENCH_serving.json"
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(json.dumps(
            {name: seg["speedup_p50"] for name, seg in payload["segments"].items()}, indent=2
        ))
        print(f"wrote {out_path}")
        return

    results = {"segment": bench_segment_query(args.rounds), "search": bench_search(args.rounds)}

    benches = {}
    populations = {}
    for group in results.values():
        populations.update(group.pop("_population"))
        benches.update(group)
    speedups = {}
    for name, stats in benches.items():
        ref = benches.get(f"{name}_reference")
        if ref is not None and not name.endswith("_reference"):
            speedups[name] = round(ref["median_ms"] / stats["median_ms"], 2)

    payload = {
        "commit": _git_commit(),
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": {"bits": 14, "seed": 71, "services_target": 1500, "rounds": args.rounds},
        "populations": populations,
        "benchmarks": benches,
        "speedups_vs_reference": speedups,
    }
    out_path = args.out
    if out_path is None:
        RESULTS.mkdir(exist_ok=True)
        out_path = RESULTS / "BENCH_micro.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload["speedups_vs_reference"], indent=2))
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
