"""Correctness checks: digests of what the system stores and answers.

All of these run outside the timed sections.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.simnet import SimulatedInternet

__all__ = [
    "canonical", "journal_digest", "serving_digest", "coverage_share",
    "directory_bytes", "leaked_wal_files", "AnswerSample",
]


def canonical(answer: Any) -> bytes:
    """Order-independent JSON bytes of one API answer."""
    return json.dumps(answer, sort_keys=True, default=str).encode()


def journal_digest(journal: Any, entities: Optional[Sequence[str]] = None) -> Tuple[str, int]:
    """Shard-count-independent hash of every (entity, seq, time, kind,
    payload) of ``entities`` (default: all), and how many events that was.
    Reads across the compaction fold."""
    h = hashlib.sha256()
    events = 0
    for entity_id in sorted(journal.entity_ids()) if entities is None else entities:
        for e in journal.events_for(entity_id):
            h.update(canonical([e.entity_id, e.seq, e.time, e.kind, e.payload]))
            events += 1
    return h.hexdigest(), events


#: Fixed questions for :func:`serving_digest`.
DIGEST_QUERIES = [
    "services.service_name: HTTP",
    "services.port: 443",
    "services.port: [1 to 1024]",
    "not services.service_name: HTTP",
    "services.service_name: SSH and location.country: US",
]
DIGEST_AGG_FIELDS = ["services.service_name", "location.country", "services.port"]


def serving_digest(plat: Any, hosts: Iterable[int]) -> str:
    """Hash of the read surfaces: host views, search hits, aggregates."""
    h = hashlib.sha256()
    for ip_index in hosts:
        h.update(canonical(plat.lookup_host(ip_index)))
    for query in DIGEST_QUERIES:
        h.update(canonical(plat.search(query)))
        for field in DIGEST_AGG_FIELDS:
            h.update(canonical(sorted(plat.index.aggregate(query, field).items(), key=str)))
    return h.hexdigest()


def coverage_share(plat: Any, internet: SimulatedInternet, t: float = 0.0) -> Tuple[float, int]:
    """Share of ground-truth services alive at ``t`` that ``lookup_host``
    returns, and how many there were."""
    by_host: Dict[int, List[str]] = {}
    for inst in internet.services_alive_at(t):
        by_host.setdefault(inst.ip_index, []).append(f"{inst.port}/{inst.transport}")
    total = found = 0
    for ip_index, keys in by_host.items():
        services = plat.lookup_host(ip_index)["services"]
        total += len(keys)
        found += sum(1 for key in keys if key in services)
    return (found / total if total else 0.0), total


def directory_bytes(directory: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(directory):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def leaked_wal_files(root: str) -> List[str]:
    """WAL segment files under ``root`` — the chaos job's leak pattern
    (``segment-*.wal`` / ``segment-*.snap``)."""
    leaked = []
    for base, _dirs, files in os.walk(root):
        for name in files:
            if name.startswith("segment-") and name.endswith((".wal", ".snap")):
                leaked.append(os.path.join(base, name))
    return leaked


class AnswerSample:
    """The kept answers of the seeded 2 % of reads."""

    def __init__(self) -> None:
        self.kept: List[Tuple[int, Any]] = []

    def keep(self, position: int, answer: Any) -> None:
        # Answers are fresh copies, so holding the reference is safe and
        # keeps serialisation out of the timed loop.
        self.kept.append((position, answer))

    def blobs(self) -> List[Tuple[int, bytes]]:
        return [(position, canonical(answer)) for position, answer in self.kept]

    def digest(self) -> str:
        h = hashlib.sha256()
        for position, blob in self.blobs():
            h.update(str(position).encode())
            h.update(blob)
        return h.hexdigest()

    def mismatches(self, other: "AnswerSample") -> int:
        mine, theirs = self.blobs(), other.blobs()
        if len(mine) != len(theirs):
            return max(len(mine), len(theirs))
        return sum(1 for a, b in zip(mine, theirs) if a != b)
