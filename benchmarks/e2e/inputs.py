"""Seeded inputs: the world, the two platform configs, and the read mix.

Everything here is a pure function of ``--seed`` and the sizes; the
platform under test receives only what these functions generate.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.platform import PlatformConfig
from repro.simnet import DAY, SimulatedInternet, build_simnet
from repro.simnet.workload import WorkloadConfig

__all__ = [
    "NOMINAL_SECONDS", "WORLD_SEED", "TICK_HOURS", "INGEST_CHUNK", "Sizes", "sizes_for",
    "build_world", "plain_config", "full_config", "register_watchlist",
    "PROBE_ORDER_SEED", "ReadMix", "LOOKUP", "SEARCH", "AGGREGATE", "HISTORY", "OP_NAMES",
]

#: The run length the sizes below were fitted to on the reference box
#: (2 vCPU); ``--seconds`` scales days and operation counts linearly.
NOMINAL_SECONDS = 8
#: The simulated Internet is the same for every ``--seed`` unless
#: ``--world-seed`` says otherwise.  Two worlds of 12,000 services differ by
#: ~10 % in wall time and by more in the tails (how many hosts a country or
#: a port range holds), which is more than the bounds the metrics carry; a
#: fixed world leaves ``--seed`` to vary what a scanner and its users choose
#: — probe order, predictive proposals, which hosts and queries are asked
#: for — and keeps run-to-run spread at the machine's own.
WORLD_SEED = 11
TICK_HOURS = 6.0
INGEST_CHUNK = 256

LOOKUP, SEARCH, AGGREGATE, HISTORY = 0, 1, 2, 3
OP_NAMES = ("lookup", "search", "aggregate", "history")
#: 55 % lookup_host, 30 % search, 8 % aggregate, 7 % host_history.
OP_WEIGHTS = (55, 30, 8, 7)
#: Orders the read probe of the build workloads, whatever ``--seed`` is.
PROBE_ORDER_SEED = 0
#: Fewest reads with which the rarest timed op (aggregate, 8 %) still has
#: the thousand samples a p99 needs (ten beyond it), with margin.
MIN_READS = 14_000

COUNTRIES = ["US", "CN", "DE", "JP", "GB", "FR", "KR", "NL", "RU", "BR",
             "IN", "CA", "SG", "AU", "IT", "OTHER"]
PORTS = [80, 443, 22, 7547, 21, 25, 8080, 23, 3389, 53, 445, 110, 502, 143,
         995, 8443, 993, 465, 587, 3306, 5060, 123, 161, 1883, 6379]
PROTOCOLS = ["HTTP", "SSH", "SMTP", "FTP", "TELNET", "RDP", "POP3", "MODBUS",
             "SMB", "IMAP", "MYSQL", "DNS", "VNC", "MQTT", "REDIS", "LDAP",
             "FOX", "SIP", "POSTGRES", "MONGODB"]
PORT_RANGES = [(1, 1024), (1, 100), (100, 1000), (1000, 2000), (2000, 5000),
               (5000, 10000), (8000, 9000), (10000, 20000), (20000, 40000),
               (40000, 65535), (440, 450), (20, 25)]
AGG_FIELDS = ["services.service_name", "location.country", "services.port"]
#: Historical ``at`` timestamps (hours) used by one lookup in three.
HISTORICAL_AT = [-6.0, -12.0, -18.0, -24.0]
LIVE_WATCHLIST = [
    "services.protocol: http",
    "services.service_name: MODBUS",
    "services.tls.self_signed: true",
    "services.port > 8000",
]


@dataclass(frozen=True)
class Sizes:
    """Every size a run depends on (recorded verbatim in the result)."""

    bits: int
    services: int
    #: Simulated days of cold-start scanning timed by ``map_build``.
    map_days: float
    #: Days of captured observation stream replayed by ``ingest_replay``.
    replay_days: float
    #: Days of untimed map build before ``serve_read`` / ``serve_under_ingest``.
    serve_days: float
    sui_days: float
    serve_reads: int
    sui_reads: int
    #: ``tick(1.0)`` calls interleaved into ``serve_under_ingest``.  Not
    #: scaled: compaction runs once per simulated day, and the workload
    #: must contain one pass.
    sui_ticks: int
    #: Reads of the standard mix issued after a build workload.
    probe_reads: int
    #: ``tick(1.0)`` calls issued after ``serve_read``.
    probe_ticks: int
    hosts: int
    idle_subscriptions: int
    view_sample_hosts: int

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


def _days(nominal: float, scale: float) -> float:
    """Scaled day count, a whole number of 6 h ticks, at least one day."""
    ticks_per_day = 24.0 / TICK_HOURS
    return max(1.0, round(nominal * scale * ticks_per_day) / ticks_per_day)


def sizes_for(seconds: float, quick: bool = False) -> Sizes:
    scale = seconds / NOMINAL_SECONDS
    if quick:
        return Sizes(
            bits=13, services=600, map_days=2.0, replay_days=2.0, serve_days=2.0,
            sui_days=1.0, serve_reads=16_000, sui_reads=MIN_READS, sui_ticks=24,
            probe_reads=MIN_READS, probe_ticks=12, hosts=500,
            idle_subscriptions=500, view_sample_hosts=200,
        )
    return Sizes(
        bits=17, services=12_000,
        map_days=_days(2.5, scale), replay_days=_days(2.0, scale),
        serve_days=1.5, sui_days=1.0,
        serve_reads=max(MIN_READS, int(130_000 * scale)),
        sui_reads=max(MIN_READS, int(25_000 * scale)),
        sui_ticks=24,
        probe_reads=40_000, probe_ticks=24, hosts=10_000,
        idle_subscriptions=5_000, view_sample_hosts=1_000,
    )


def build_world(world_seed: int, sizes: Sizes) -> SimulatedInternet:
    return build_simnet(
        bits=sizes.bits,
        workload_config=WorkloadConfig(seed=world_seed, services_target=sizes.services, t_end=8 * DAY),
        seed=world_seed,
    )


def plain_config(seed: int, wal_dir: Optional[str], **overrides: Any) -> PlatformConfig:
    """The config ROADMAP profiled: durable, group commit 64, rest default."""
    return PlatformConfig(seed=seed, wal_dir=wal_dir, group_commit_events=64, **overrides)


def full_config(seed: int, wal_dir: Optional[str]) -> PlatformConfig:
    """ROADMAP's "everything on" twin of :func:`plain_config`."""
    return plain_config(
        seed, wal_dir,
        shards=4, executor="thread", executor_workers=2, replication_factor=2,
        compaction=True, subscriptions=True,
    )


def register_watchlist(plat: Any, sizes: Sizes) -> None:
    """A large idle watchlist (tokens that never occur) plus 4 live queries."""
    for i in range(sizes.idle_subscriptions):
        plat.subscribe(f"services.protocol: cve{i:07d}", sub_id=f"idle-{i:07d}")
    for i, query in enumerate(LIVE_WATCHLIST):
        plat.subscribe(query, sub_id=f"live-{i}")


def query_universe() -> List[str]:
    """~750 interactive queries: port x country, protocol x country,
    negations and port ranges, interleaved so that every shape appears at
    every popularity.  The order is the popularity ranking and is the same
    for every seed: which queries are hot decides what the tail of the
    latency distribution costs, so it is part of the workload, not of the
    draw."""
    queries = [
        f"services.port: {port} and location.country: {country}"
        for port in PORTS for country in COUNTRIES
    ]
    queries += [
        f"services.service_name: {proto} and location.country: {country}"
        for proto in PROTOCOLS for country in COUNTRIES
    ]
    queries += [
        f"location.country: {country} and not services.service_name: HTTP"
        for country in COUNTRIES
    ]
    queries += [f"services.port: [{lo} to {hi}]" for lo, hi in PORT_RANGES]
    random.Random("query-popularity").shuffle(queries)
    return queries


def _zipf_counts(n_items: int, s: float, total: int) -> List[int]:
    """``total`` requests spread over ``n_items`` ranks in Zipf(s)
    proportion, exactly (largest-remainder rounding)."""
    weights = [1.0 / (rank + 1) ** s for rank in range(n_items)]
    scale = total / sum(weights)
    counts = [int(w * scale) for w in weights]
    by_remainder = sorted(range(n_items), key=lambda r: (counts[r] - weights[r] * scale, r))
    for rank in by_remainder[: total - sum(counts)]:
        counts[rank] += 1
    return counts


class ReadMix:
    """A pre-generated closed-loop read schedule.

    Hosts are asked for in Zipf(0.9) proportion over ``sizes.hosts``
    addresses that hold a service at t=0 (the default view/reconstruction
    caches hold 4,096), and queries in Zipf(1.0) proportion over
    :func:`query_universe` (the query cache holds 256), so the working set
    is a few times the caches: the median read is a cache hit and the tail
    is a miss.

    The *mix* is exact and the same for every seed — how often each host
    and query is asked for, one lookup in three historical — and the seed
    decides the *order*.  Drawing the mix at random as well would move the
    tail percentiles by tens of per cent between seeds (a p99 is set by
    which few expensive queries happened to be drawn), which no bound
    could tell from a regression.  Generation is outside every timed
    section.
    """

    def __init__(self, internet: SimulatedInternet, sizes: Sizes, seed: int, reads: int,
                 stream: str) -> None:
        hosts = sorted({inst.ip_index for inst in internet.services_alive_at(0.0)})
        random.Random("host-popularity").shuffle(hosts)
        self.hosts = hosts[: sizes.hosts]
        self.queries = queries = query_universe()
        per_kind = [reads * weight // sum(OP_WEIGHTS) for weight in OP_WEIGHTS]
        per_kind[LOOKUP] += reads - sum(per_kind)
        #: (kind, host or query, ``at`` / aggregate field / None) per read.
        ops: List[Tuple[int, Any, Any]] = []
        for rank, count in enumerate(_zipf_counts(len(self.hosts), 0.9, per_kind[LOOKUP])):
            for j in range(count):
                at = HISTORICAL_AT[(rank + j // 3) % len(HISTORICAL_AT)] if j % 3 == 2 else None
                ops.append((LOOKUP, self.hosts[rank], at))
        for rank, count in enumerate(_zipf_counts(len(queries), 1.0, per_kind[SEARCH])):
            ops.extend([(SEARCH, queries[rank], None)] * count)
        for rank, count in enumerate(_zipf_counts(len(queries), 1.0, per_kind[AGGREGATE])):
            for j in range(count):
                ops.append((AGGREGATE, queries[rank], AGG_FIELDS[(rank + j) % len(AGG_FIELDS)]))
        for rank, count in enumerate(_zipf_counts(len(self.hosts), 0.9, per_kind[HISTORY])):
            ops.extend([(HISTORY, self.hosts[rank], None)] * count)
        rng = random.Random(f"{seed}:{stream}")
        rng.shuffle(ops)
        self.ops = ops
        #: Positions of the seeded 2 % of reads whose answers are kept.
        self.sampled = frozenset(rng.sample(range(reads), max(1, reads // 50)))
