"""The scan queue between L4 discovery and L7 interrogation.

Discovery scans, the predictive engine, refresh scheduling, and user
requests all enqueue candidates here; interrogation workers drain it.  The
queue deduplicates bindings within a cooldown window (repeat L4 hits on a
daily tier must not multiply L7 work) and supports priorities so real-time
user requests and CVE-response scans jump ahead of background candidates.

One heap ordered by (not_before, priority, arrival) and one dedup map: the
drain order does not depend on the journal's shard count, because nothing
here does.

Dedup state is bounded: ``pop_ready`` prunes ``_last_enqueued`` entries
older than the cooldown window.  Pruning cannot change dedup decisions —
every future candidate's ``not_before`` is at or after the draining
``now``, so an entry aged past the window could never suppress it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["ScanCandidate", "ScanQueue"]


@dataclass(frozen=True, slots=True)
class ScanCandidate:
    """One pending L7 interrogation."""

    ip_index: int
    port: int
    transport: str
    #: Where the candidate came from: "discovery" | "refresh" | "predictive"
    #: | "reinject" | "user" | "name".
    source: str
    #: Earliest time the interrogation may run.
    not_before: float
    #: Known protocol for refresh fast-path (None for fresh discoveries).
    expected_protocol: Optional[str] = None
    #: Lower sorts first.
    priority: int = 5

    @property
    def binding(self) -> Tuple[int, int, str]:
        return (self.ip_index, self.port, self.transport)


#: Priorities by source (user requests first, background last).
SOURCE_PRIORITY = {"user": 0, "refresh": 2, "discovery": 3, "name": 3, "reinject": 4, "predictive": 4}

_Item = Tuple[float, int, int, ScanCandidate]


class ScanQueue:
    """Priority queue with per-binding dedup cooldown."""

    def __init__(self, dedup_window_hours: float = 12.0) -> None:
        self.dedup_window = dedup_window_hours
        self._heap: List[_Item] = []
        self._counter = 0
        self._last_enqueued: Dict[Tuple[int, int, str], float] = {}
        self.enqueued = 0
        self.deduplicated = 0
        self.pruned = 0

    def push(self, candidate: ScanCandidate) -> bool:
        """Enqueue unless the binding was queued within the cooldown."""
        last_map = self._last_enqueued
        last = last_map.get(candidate.binding)
        if (
            last is not None
            and candidate.not_before - last < self.dedup_window
            and candidate.source not in ("user", "refresh")
        ):
            self.deduplicated += 1
            return False
        last_map[candidate.binding] = candidate.not_before
        # Ordered by readiness first, then priority: pop_ready stops at the
        # first not-yet-due candidate, so draining is O(ready), not O(queue).
        heapq.heappush(
            self._heap, (candidate.not_before, candidate.priority, self._counter, candidate)
        )
        self._counter += 1
        self.enqueued += 1
        return True

    def push_new(
        self,
        ip_index: int,
        port: int,
        transport: str,
        source: str,
        not_before: float,
        expected_protocol: Optional[str] = None,
    ) -> bool:
        return self.push(
            ScanCandidate(
                ip_index=ip_index,
                port=port,
                transport=transport,
                source=source,
                not_before=not_before,
                expected_protocol=expected_protocol,
                priority=SOURCE_PRIORITY.get(source, 5),
            )
        )

    # -- draining ----------------------------------------------------------

    def pop_ready(self, now: float, limit: Optional[int] = None) -> List[ScanCandidate]:
        """Dequeue due candidates in (not_before, priority, arrival) order."""
        self._prune(now)
        ready: List[ScanCandidate] = []
        heap = self._heap
        while heap and heap[0][0] <= now:
            if limit is not None and len(ready) >= limit:
                break
            ready.append(heapq.heappop(heap)[3])
        return ready

    # -- dedup-state bounding ----------------------------------------------

    def _prune(self, now: float) -> None:
        """Drop cooldown entries that can no longer suppress anything."""
        window = self.dedup_window
        last_map = self._last_enqueued
        expired = [binding for binding, t in last_map.items() if now - t >= window]
        for binding in expired:
            del last_map[binding]
        self.pruned += len(expired)

    # -- introspection ------------------------------------------------------

    @property
    def dedup_map_size(self) -> int:
        return len(self._last_enqueued)

    def stats(self) -> Dict[str, Any]:
        """Queue accounting for the platform's traffic report."""
        return {
            "enqueued": self.enqueued,
            "deduplicated": self.deduplicated,
            "pruned": self.pruned,
            "backlog": len(self),
            "dedup_map_size": self.dedup_map_size,
        }

    def __len__(self) -> int:
        return len(self._heap)
